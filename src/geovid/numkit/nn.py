"""Token containers and the two building blocks everything else is made of:
a two-layer GELU MLP and bias-free multi-head attention.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError, StateError
from .tensor import Tensor, as_tensor, gelu, matmul, softmax, stack, tmean, tsum


class Role(str, enum.Enum):
    BASE = "base"
    GEOM = "geom"
    LANG = "lang"
    BRIDGE = "bridge"
    CAMERA = "camera"


@dataclass(frozen=True)
class TokenSet:
    """[N, C] feature tokens, or a batch of such sets as [B, N, C], tagged with
    a role. Role is fixed at construction; `ts[i]` is item i of a batch."""

    tokens: Tensor
    role: Role

    def __post_init__(self):
        object.__setattr__(self, "tokens", as_tensor(self.tokens))
        object.__setattr__(self, "role", Role(self.role))
        if self.tokens.ndim not in (2, 3):
            raise ShapeError(f"tokens must be [N, C] or [B, N, C], got shape {self.tokens.shape}")
        if min(self.tokens.shape) < 1:
            raise ShapeError(f"tokens need every dim >= 1, got {list(self.tokens.shape)}")

    @staticmethod
    def stack(sets: "list[TokenSet]") -> "TokenSet":
        """Equal-shape [N, C] sets of one role as one [B, N, C] batch, in-graph."""
        return TokenSet(stack([s.tokens for s in sets]), sets[0].role)

    @property
    def count(self) -> int:
        return self.tokens.shape[-2]

    @property
    def dim(self) -> int:
        return self.tokens.shape[-1]

    def __getitem__(self, i: int) -> "TokenSet":
        return TokenSet(self.tokens[i], self.role)

    def with_tokens(self, tokens: Tensor) -> "TokenSet":
        return TokenSet(tokens, self.role)


@dataclass
class MlpParams:
    """Two fully connected layers with a GELU in between.

    w1 [c_in, hidden], b1 [hidden], w2 [hidden, c_out], b2 [c_out].
    """

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def __post_init__(self):
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise ShapeError("MLP weights must be 2-d")
        if self.w1.shape[1] != self.b1.shape[0]:
            raise ShapeError("b1 does not match w1 output dim")
        if self.w1.shape[1] != self.w2.shape[0]:
            raise ShapeError("w1 output dim does not chain into w2")
        if self.w2.shape[1] != self.b2.shape[0]:
            raise ShapeError("b2 does not match w2 output dim")

    @property
    def in_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def out_dim(self) -> int:
        return self.w2.shape[1]

    @staticmethod
    def init(rng: np.random.Generator, c_in: int, c_out: int | None = None,
             hidden: int | None = None,
             zero_out: bool = False, out_scale: float = 1.0) -> "MlpParams":
        """Gaussian fan-in init; `hidden` defaults to 4 * c_in. `zero_out`
        zeroes the second layer and `out_scale` shrinks it (keeps residual
        streams near-identity)."""
        c_out = c_in if c_out is None else c_out
        h = hidden if hidden is not None else 4 * c_in
        w1 = rng.standard_normal((c_in, h)) / np.sqrt(c_in)
        w2 = np.zeros((h, c_out)) if zero_out \
            else rng.standard_normal((h, c_out)) * (out_scale / np.sqrt(h))
        return MlpParams(
            w1=Tensor(w1, requires_grad=True),
            b1=Tensor(np.zeros(h), requires_grad=True),
            w2=Tensor(w2, requires_grad=True),
            b2=Tensor(np.zeros(c_out), requires_grad=True),
        )

    def tensors(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.w1": self.w1, f"{prefix}.b1": self.b1,
                f"{prefix}.w2": self.w2, f"{prefix}.b2": self.b2}


@dataclass
class MhaParams:
    """Bias-free multi-head attention parameters.

    wq/wk/wv [h, C, d_h] per-head projections, wo [C, C] output projection.
    Requires h * d_h == C.
    """

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    qk_norm: bool = False

    def __post_init__(self):
        for name, w in (("wq", self.wq), ("wk", self.wk), ("wv", self.wv)):
            if w.ndim != 3:
                raise ShapeError(f"{name} must be [heads, C, d_h]")
        h, c, dh = self.wq.shape
        if self.wk.shape != (h, c, dh) or self.wv.shape != (h, c, dh):
            raise ShapeError("wq/wk/wv shapes disagree")
        if h * dh != c:
            raise ShapeError(f"heads * d_h must equal C ({h} * {dh} != {c})")
        if self.wo.shape != (c, c):
            raise ShapeError(f"wo must be [C, C], got {self.wo.shape}")

    @property
    def dim(self) -> int:
        return self.wq.shape[1]

    @property
    def head_dim(self) -> int:
        return self.wq.shape[2]

    @staticmethod
    def init(rng: np.random.Generator, c: int, heads: int,
             qk_norm: bool = False, out_scale: float = 1.0) -> "MhaParams":
        if c % heads != 0:
            raise ShapeError(f"C={c} not divisible by heads={heads}")
        dh = c // heads
        scale = 1.0 / np.sqrt(c)

        def w():
            return Tensor(rng.standard_normal((heads, c, dh)) * scale, requires_grad=True)

        wo = Tensor(rng.standard_normal((c, c)) * (scale * out_scale), requires_grad=True)
        return MhaParams(wq=w(), wk=w(), wv=w(), wo=wo, qk_norm=qk_norm)

    def tensors(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.wq": self.wq, f"{prefix}.wk": self.wk,
                f"{prefix}.wv": self.wv, f"{prefix}.wo": self.wo}


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Rows scaled to unit L2 norm; eps keeps the zero vector finite."""
    sq = tsum(x * x, axis=axis, keepdims=True)
    return x * ((sq + eps) ** -0.5)


def rms_norm(x: Tensor, eps: float = 1e-8) -> Tensor:
    """Rows scaled to unit root-mean-square (parameter-free pre-norm)."""
    ms = tmean(x * x, axis=-1, keepdims=True)
    return x * ((ms + eps) ** -0.5)


def mlp(x: Tensor, p: MlpParams) -> Tensor:
    """[..., N, c_in] -> [..., N, c_out] through linear / GELU / linear."""
    if x.ndim not in (2, 3) or x.shape[-1] != p.in_dim:
        raise ShapeError(f"mlp input {x.shape} does not match in_dim {p.in_dim}")
    h = gelu(matmul(x, p.w1) + p.b1)
    return matmul(h, p.w2) + p.b2


def mha(q: Tensor, k: Tensor, v: Tensor, p: MhaParams) -> Tensor:
    """Scaled dot-product attention. q [Nq, C], k/v [Nk, C] -> [Nq, C], or all
    three with a leading batch axis B, where each item attends within itself.

    Softmax runs over the key axis per head; optional QK-Norm L2-normalizes
    each per-head query/key vector before the dot product. A batch runs as
    [B, 1, N, C] @ [h, C, d_h], which gives each item the bits of its own call.
    """
    if not (q.ndim == k.ndim == v.ndim and q.ndim in (2, 3)):
        raise ShapeError("attention operands must all be [N, C] or all [B, N, C]")
    c = p.dim
    if q.shape[-1] != c or k.shape[-1] != c or v.shape[-1] != c:
        raise ShapeError("attention operand dim does not match params")
    if q.shape[:-2] != k.shape[:-2] or k.shape[:-1] != v.shape[:-1]:
        raise ShapeError(f"attention batches or key/value counts differ: "
                         f"{q.shape}, {k.shape}, {v.shape}")

    def heads(x: Tensor, w: Tensor) -> Tensor:   # [..., h, N, dh] via broadcast
        return matmul(x if x.ndim == 2 else x.reshape(x.shape[0], 1, *x.shape[1:]), w)

    qh, kh, vh = heads(q, p.wq), heads(k, p.wk), heads(v, p.wv)
    if p.qk_norm:
        qh = l2_normalize(qh, axis=-1)
        kh = l2_normalize(kh, axis=-1)
    scores = matmul(qh, kh.mT) * (1.0 / np.sqrt(p.head_dim))
    attn = softmax(scores, axis=-1)  # [..., h, Nq, Nk]
    out_h = matmul(attn, vh)  # [..., h, Nq, dh]
    merged = out_h.transpose(*((1, 0, 2) if q.ndim == 2 else (0, 2, 1, 3))).reshape(q.shape)
    return matmul(merged, p.wo)


def require_role(ts: TokenSet, *roles: Role) -> None:
    if ts.role not in roles:
        allowed = "/".join(r.value for r in roles)
        raise StateError(f"expected role {allowed}, got {ts.role.value}")
