"""AdamW with decoupled weight decay and global-norm gradient clipping.

Clipping happens before the moment update, over the concatenated gradient
of every parameter passed to one step. Single writer: exactly one training
loop owns optimizer state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeError
from .tensor import Tensor


@dataclass
class AdamWState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))


def adamw_step(params: dict[str, Tensor],
               grads: dict[str, np.ndarray],
               state: AdamWState,
               lr: float,
               beta1: float = 0.9,
               beta2: float = 0.999,
               weight_decay: float = 0.05,
               clip: float = 1.0,
               eps: float = 1e-8,
               lr_scale: dict[str, float] | None = None) -> AdamWState:
    """One AdamW update; mutates `params[...].data` and `state` in place.

    theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + wd * theta)
    """
    for name, p in params.items():
        if name not in grads:
            raise ShapeError(f"missing gradient for '{name}'")
        if grads[name].shape != p.data.shape:
            raise ShapeError(f"gradient shape mismatch for '{name}'")
        if name in state.m and state.m[name].shape != p.data.shape:
            raise ShapeError(f"optimizer state shape mismatch for '{name}'")

    if clip is not None and clip > 0:
        norm = global_grad_norm(grads)
        if norm > clip:
            scale = clip / norm
            grads = {k: g * scale for k, g in grads.items()}

    state.t += 1
    t = state.t
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        step_lr = lr * (lr_scale.get(name, 1.0) if lr_scale else 1.0)
        p.data = p.data - step_lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * p.data)
    return state


@dataclass
class AdamW:
    """Convenience wrapper owning the state for a fixed parameter dict."""

    params: dict[str, Tensor]
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.05
    clip: float = 1.0
    eps: float = 1e-8
    lr_scale: dict[str, float] | None = None
    state: AdamWState = field(default_factory=AdamWState, init=False)

    def step(self) -> None:
        grads = {name: np.zeros_like(p.data) if p.grad is None else p.grad
                 for name, p in self.params.items()}
        adamw_step(self.params, grads, self.state, self.lr, self.beta1,
                   self.beta2, self.weight_decay, self.clip, self.eps,
                   self.lr_scale)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()
