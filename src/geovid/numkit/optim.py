"""AdamW with decoupled weight decay and global-norm gradient clipping.

Clipping happens before the moment update, over the concatenated gradient
of every parameter in the optimizer. Single writer: exactly one training
loop owns optimizer state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeError
from .tensor import Tensor


@dataclass
class AdamW:
    """AdamW over a fixed parameter dict, owning the moments `m`, `v` and the
    step count `t`. A parameter whose `.grad` is None steps with a zero
    gradient."""

    params: dict[str, Tensor]
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.05
    clip: float = 1.0
    eps: float = 1e-8
    lr_scale: dict[str, float] | None = None
    m: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    v: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    t: int = field(default=0, init=False)

    def step(self) -> None:
        """One update of every parameter's `.data`:

        theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + wd * theta)
        """
        grads = {}
        for name, p in self.params.items():
            grads[name] = np.zeros_like(p.data) if p.grad is None else p.grad
            if grads[name].shape != p.data.shape:
                raise ShapeError(f"gradient shape mismatch for '{name}'")
            if name in self.m and self.m[name].shape != p.data.shape:
                raise ShapeError(f"optimizer state shape mismatch for '{name}'")

        if self.clip is not None and self.clip > 0:
            norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
            if norm > self.clip:
                scale = self.clip / norm
                grads = {k: g * scale for k, g in grads.items()}

        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            step_lr = self.lr * (self.lr_scale.get(name, 1.0) if self.lr_scale else 1.0)
            p.data = p.data - step_lr * (m_hat / (np.sqrt(v_hat) + self.eps)
                                         + self.weight_decay * p.data)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()
