"""Cross-task adapter.

Shared base tokens are projected into a geometry stream and a language
stream by two MLP heads. A small set of learnable bridge tokens reads both
streams through attention, and the updated bridge is folded back into each
stream with a residual cross-attention, so the two task representations
can inform each other without sharing a single feature space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .numkit import (
    MhaParams, MlpParams, Role, Tensor, TokenSet,
    broadcast_to, mha, mlp, require_role, stack,
)


@dataclass
class CtaParams:
    phi_geom: MlpParams
    phi_lang: MlpParams
    bridge_init: Tensor            # [K, C] learnable; K == 0 disables the bridge
    bridge_attn: MhaParams         # bridge queries reading each stream
    fuse_geom_attn: MhaParams      # stream queries reading the updated bridge
    fuse_lang_attn: MhaParams

    def __post_init__(self):
        if self.bridge_init.ndim != 2:
            raise ShapeError("bridge tokens must be [K, C]")
        c = self.phi_geom.out_dim
        if self.phi_lang.out_dim != c or self.bridge_init.shape[1] != c:
            raise ShapeError("CTA stream dims disagree")

    @property
    def bridge_count(self) -> int:
        return self.bridge_init.shape[0]

    @staticmethod
    def init(rng: np.random.Generator, c: int, heads: int,
             bridge_tokens: int = 16) -> "CtaParams":
        bridge = rng.standard_normal((bridge_tokens, c)) / np.sqrt(c)
        return CtaParams(
            phi_geom=MlpParams.init(rng, c),
            phi_lang=MlpParams.init(rng, c),
            bridge_init=Tensor(bridge, requires_grad=True),
            bridge_attn=MhaParams.init(rng, c, heads),
            fuse_geom_attn=MhaParams.init(rng, c, heads),
            fuse_lang_attn=MhaParams.init(rng, c, heads),
        )

    def tensors(self, prefix: str = "cta") -> dict[str, Tensor]:
        out = {f"{prefix}.bridge_init": self.bridge_init}
        out.update(self.phi_geom.tensors(f"{prefix}.phi_geom"))
        out.update(self.phi_lang.tensors(f"{prefix}.phi_lang"))
        out.update(self.bridge_attn.tensors(f"{prefix}.bridge_attn"))
        out.update(self.fuse_geom_attn.tensors(f"{prefix}.fuse_geom"))
        out.update(self.fuse_lang_attn.tensors(f"{prefix}.fuse_lang"))
        return out


@dataclass(frozen=True)
class CtaOutput:
    geom: TokenSet
    lang: TokenSet
    bridge: TokenSet | None   # None when the bridge is disabled (K = 0)


def project_streams(base: TokenSet, p: CtaParams) -> tuple[TokenSet, TokenSet]:
    """Base tokens -> (geometry stream, language stream) via the two MLP heads."""
    require_role(base, Role.BASE)
    geom = TokenSet(mlp(base.tokens, p.phi_geom), Role.GEOM)
    lang = TokenSet(mlp(base.tokens, p.phi_lang), Role.LANG)
    return geom, lang


def bridge_update(bridge: TokenSet, geom_fused: TokenSet, lang_fused: TokenSet,
                  p: CtaParams) -> TokenSet:
    """Sum of two attention reads with the bridge as queries, one per stream.

    The streams may be [N, C] or [B, N, C] batches; the result has their
    batch shape. All reads run as one attention batch that interleaves the
    streams (geometry, language, item by item), with the bridge broadcast to
    one query set per read, so the shared weights sum their gradients read
    by read in that order, as separate calls would.
    """
    require_role(bridge, Role.BRIDGE)
    g, lang = geom_fused.tokens, lang_fused.tokens
    n, c = g.shape[-2:]
    keys, values = (stack([g, lang], axis=-3).reshape(-1, n, c) for _ in range(2))
    queries = broadcast_to(bridge.tokens, (keys.shape[0], *bridge.tokens.shape))
    read = mha(queries, keys, values, p.bridge_attn).reshape(*g.shape[:-2], 2, -1, c)
    return bridge.with_tokens(read[..., 0, :, :] + read[..., 1, :, :])


def fuse_back(stream: TokenSet, bridge_updated: TokenSet, p: CtaParams) -> TokenSet:
    """stream + Attn(stream, bridge, bridge): residual read of the bridge."""
    require_role(stream, Role.GEOM, Role.LANG)
    attn = p.fuse_geom_attn if stream.role == Role.GEOM else p.fuse_lang_attn
    read = mha(stream.tokens, bridge_updated.tokens, bridge_updated.tokens, attn)
    return stream.with_tokens(stream.tokens + read)


def cta_forward(base: TokenSet, p: CtaParams) -> CtaOutput:
    """Project, update the bridge against both streams, reintegrate.

    With K = 0 the adapter reduces to the pure projections (ablation path).
    """
    geom, lang = project_streams(base, p)
    if p.bridge_count == 0:
        return CtaOutput(geom=geom, lang=lang, bridge=None)
    bridge = TokenSet(p.bridge_init, Role.BRIDGE)
    bridge_up = bridge_update(bridge, geom, lang, p)
    return CtaOutput(
        geom=fuse_back(geom, bridge_up, p),
        lang=fuse_back(lang, bridge_up, p),
        bridge=bridge_up,
    )
