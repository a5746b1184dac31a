"""Central-finite-difference verification of analytic gradients."""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import NumericError, ShapeError
from .tensor import Tensor, no_grad


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor) -> float:
    """Max over coordinates of |analytic - central difference| / max(1, |analytic|).

    `f` must be pure and scalar-valued; it is re-evaluated 2 * x.size times.
    """
    if not x.requires_grad:
        raise ShapeError("grad_check input must require grad")
    x.zero_grad()
    y = f(x)
    if y.size != 1:
        raise ShapeError("grad_check target must be scalar-valued")
    if not np.isfinite(y.data).all():
        raise NumericError("non-finite function value at the base point")
    y.backward()
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

    step = 1e-5   # central-difference step
    flat = x.data.reshape(-1)
    fd = np.zeros_like(flat)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = f(x).item()
            flat[i] = orig - step
            lo = f(x).item()
            flat[i] = orig
            fd[i] = (hi - lo) / (2.0 * step)
    if not np.isfinite(fd).all():
        raise NumericError("non-finite finite-difference estimate")

    a = analytic.reshape(-1)
    rel = np.abs(a - fd) / np.maximum(1.0, np.abs(a))
    return float(rel.max())
