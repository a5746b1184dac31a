"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps one ndarray plus an optional gradient. Every op is
functional: it returns a fresh Tensor holding the result and, while
gradients are enabled, a record of its parents and the vector-Jacobian
products needed to push gradients back to them. `backward()` on a scalar
walks the recorded graph in reverse topological order.

Design constraints baked in here:
  * float64 everywhere; results are checked finite per op, or by FP flags (boundary_checks).
  * no in-place mutation of tensors that are part of a recorded graph
    (leaf `.data` may be updated between steps, e.g. by an optimizer).
  * matmul requires ndim >= 2; batch dims broadcast like numpy.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import special

from ..errors import NumericError, ShapeError

_GRAD_ENABLED = True
_BOUNDARY_CHECKS = False   # inside boundary_checks(): ops skip their finite check


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (pure forward evaluation)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


@contextlib.contextmanager
def boundary_checks():
    """Ops skip their finite check in the block, and numpy raises a
    FloatingPointError at the op that overflows, divides by zero or makes a NaN
    (it tests those flags after every ufunc and matmul anyway). Leaves and
    `boundary` checks still sum; callers rerun a failed block outside it, per op."""
    global _BOUNDARY_CHECKS
    prev, _BOUNDARY_CHECKS = _BOUNDARY_CHECKS, True
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    finally:
        _BOUNDARY_CHECKS = prev


def _finite(data: np.ndarray) -> bool:
    return bool(np.isfinite(data).all())


def _check_finite(data: np.ndarray, opname: str, boundary: bool = False) -> None:
    """Inside `boundary_checks()` only a `boundary` check (a leaf's, a block's result's) runs."""
    if (boundary or not _BOUNDARY_CHECKS) and not _finite(data):
        raise NumericError(f"non-finite values produced by '{opname}'")


class Tensor:
    """n-d float64 array with optional reverse-mode gradient."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjps")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr, "leaf", boundary=True)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjps: tuple[Callable[[np.ndarray], np.ndarray], ...] = ()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, opname: str,
                 parents: Sequence["Tensor"],
                 vjps: Sequence[Callable[[np.ndarray], np.ndarray]]) -> "Tensor":
        """Node for `data`, checked finite, that sends the gradient to each
        parent through its VJP; fused ops outside numkit build theirs here."""
        _check_finite(data, opname)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            # keep only the parents that can receive gradient
            kept = [(p, v) for p, v in zip(parents, vjps) if p.requires_grad]
            out.requires_grad = True
            out._parents = tuple(p for p, _ in kept)
            out._vjps = tuple(v for _, v in kept)
        else:
            out.requires_grad = False
            out._parents = ()
            out._vjps = ()
        return out

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of the scalar `self` into every reachable leaf."""
        if not self.requires_grad:
            raise ShapeError("backward() on a tensor that requires no grad")
        if self.data.size != 1:
            raise ShapeError("backward() needs a scalar root")
        grad = np.ones_like(self.data)

        # iterative topological sort (graphs can be deep)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if not node._parents:
                # leaf: accumulate into .grad
                if node.grad is None:
                    node.grad = g.copy()
                else:
                    node.grad = node.grad + g
                continue
            for parent, vjp in zip(node._parents, node._vjps):
                contrib = vjp(g)
                prev = grads.get(id(parent))
                grads[id(parent)] = contrib if prev is None else prev + contrib

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # operator overloads
    # ------------------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    # method-style conveniences
    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def transpose(self, *axes):
        return transpose(self, axes)

    @property
    def mT(self):
        """The last two axes swapped (a batch of matrices transposed)."""
        return transpose(self, (*range(self.ndim - 2), self.ndim - 1, self.ndim - 2))


def as_tensor(x) -> Tensor:
    """Promote scalars / ndarrays to constant Tensors; pass Tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (reverse of numpy broadcasting).

    Leading extra axes are summed one at a time, innermost first. So a
    batched op's [B, N, K] bias gradient is summed over N per item, then over
    B from item 0 up: the bits that B separate ops give when `backward` adds
    their gradients one after another.
    """
    if grad.shape == shape:
        return grad
    for axis in reversed(range(grad.ndim - len(shape))):
        grad = grad.sum(axis=axis)
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ----------------------------------------------------------------------
# arithmetic ops
# ----------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data
    return Tensor._from_op(out, "add", (a, b), (
        lambda g: _unbroadcast(g, a.data.shape),
        lambda g: _unbroadcast(g, b.data.shape),
    ))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data
    return Tensor._from_op(out, "sub", (a, b), (
        lambda g: _unbroadcast(g, a.data.shape),
        lambda g: _unbroadcast(-g, b.data.shape),
    ))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data
    return Tensor._from_op(out, "mul", (a, b), (
        lambda g: _unbroadcast(g * b.data, a.data.shape),
        lambda g: _unbroadcast(g * a.data, b.data.shape),
    ))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data
    return Tensor._from_op(out, "div", (a, b), (
        lambda g: _unbroadcast(g / b.data, a.data.shape),
        lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
    ))


def neg(a) -> Tensor:
    a = as_tensor(a)
    return Tensor._from_op(-a.data, "neg", (a,), (lambda g: -g,))


def power(a, exponent: float) -> Tensor:
    """Elementwise a**exponent for a scalar (non-tensor) exponent."""
    a = as_tensor(a)
    e = float(exponent)
    out = a.data ** e
    return Tensor._from_op(out, "pow", (a,), (
        lambda g: g * e * a.data ** (e - 1.0),
    ))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul needs ndim >= 2 on both operands")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dims {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def vjp_a(g):
        return _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)

    def vjp_b(g):
        return _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)

    return Tensor._from_op(out, "matmul", (a, b), (vjp_a, vjp_b))


# ----------------------------------------------------------------------
# reductions and reshaping
# ----------------------------------------------------------------------

def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, a.data.shape).copy()
        g2 = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(g2, a.data.shape).copy()

    return Tensor._from_op(np.asarray(out), "sum", (a,), (vjp,))


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    total = tsum(a, axis=axis, keepdims=keepdims)
    return total * (1.0 / (a.data.size // total.data.size))


def broadcast_to(a, shape: tuple[int, ...]) -> Tensor:
    """`a` repeated along broadcast axes as a read-only view; its gradient is
    summed back by `_unbroadcast`, one copy at a time."""
    a = as_tensor(a)
    return Tensor._from_op(np.broadcast_to(a.data, shape), "broadcast_to", (a,), (
        lambda g: _unbroadcast(g, a.data.shape),
    ))


def reshape(a, *shape) -> Tensor:
    a = as_tensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    out = a.data.reshape(shape)
    src_shape = a.data.shape
    return Tensor._from_op(out, "reshape", (a,), (
        lambda g: g.reshape(src_shape),
    ))


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    out = np.transpose(a.data, axes)
    inv = tuple(np.argsort(axes))
    return Tensor._from_op(out, "transpose", (a,), (
        lambda g: np.transpose(g, inv),
    ))


def _selects_unique(key) -> bool:
    """True when `key` reaches each source element at most once: basic parts
    (ints, slices, None, Ellipsis) and at most one 1-D strictly increasing
    integer array whose entries share a sign (so no negative index aliases a
    positive one)."""
    parts = key if isinstance(key, tuple) else (key,)
    rest = [k for k in parts if not (k is None or k is Ellipsis
                                     or isinstance(k, (slice, int, np.integer)))]
    if not rest:
        return True
    a = rest[0]
    if len(rest) > 1 or not isinstance(a, np.ndarray) or a.ndim != 1 or a.dtype.kind not in "iu":
        return False
    return a.size < 2 or (bool((a[1:] > a[:-1]).all()) and (a[0] >= 0 or a[-1] < 0))


def getitem(a, key) -> Tensor:
    a = as_tensor(a)
    out = a.data[key]
    src_shape = a.data.shape
    unique = _selects_unique(key)

    def vjp(g):
        full = np.zeros(src_shape, dtype=np.float64)
        if unique:
            full[key] = g
        else:
            np.add.at(full, key, g)   # repeated indices accumulate
        return full

    return Tensor._from_op(np.asarray(out), "getitem", (a,), (vjp,))


def concat(tensors: Iterable, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat of zero tensors")
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i):
        lo, hi = offsets[i], offsets[i + 1]

        def vjp(g):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            return g[tuple(sl)]

        return vjp

    return Tensor._from_op(out, "concat", tuple(ts),
                           tuple(make_vjp(i) for i in range(len(ts))))


def stack(tensors: Iterable, axis: int = 0) -> Tensor:
    """Equal-shape tensors along a new axis."""
    ts = [as_tensor(t) for t in tensors]
    if not ts or any(t.data.shape != ts[0].data.shape for t in ts):
        raise ShapeError("stack needs one or more tensors of one shape")
    return Tensor._from_op(np.stack([t.data for t in ts], axis=axis), "stack", tuple(ts),
                           tuple((lambda g, i=i: np.moveaxis(g, axis, 0)[i])
                                 for i in range(len(ts))))


# ----------------------------------------------------------------------
# elementwise nonlinearities
# ----------------------------------------------------------------------

def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return Tensor._from_op(out, "exp", (a,), (lambda g: g * out,))


def log(a) -> Tensor:
    a = as_tensor(a)
    out = np.log(a.data)
    return Tensor._from_op(out, "log", (a,), (lambda g: g / a.data,))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return Tensor._from_op(out, "tanh", (a,), (lambda g: g * (1.0 - out * out),))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = special.expit(a.data)
    return Tensor._from_op(out, "sigmoid", (a,), (lambda g: g * out * (1.0 - out),))


def softplus(a) -> Tensor:
    """log(1 + e^x), numerically stable; derivative sigmoid(x)."""
    a = as_tensor(a)
    out = np.logaddexp(0.0, a.data)
    return Tensor._from_op(out, "softplus", (a,), (
        lambda g: g * special.expit(a.data),
    ))


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(a) -> Tensor:
    """Exact-erf GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    a = as_tensor(a)
    cdf = 0.5 * (1.0 + special.erf(a.data * _INV_SQRT2))
    out = a.data * cdf

    def vjp(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * a.data * a.data)
        return g * (cdf + a.data * pdf)

    return Tensor._from_op(out, "gelu", (a,), (vjp,))


def tabs(a) -> Tensor:
    """|x| with sign subgradient (0 at x == 0)."""
    a = as_tensor(a)
    out = np.abs(a.data)
    return Tensor._from_op(out, "abs", (a,), (lambda g: g * np.sign(a.data),))


def maximum(a, floor: float) -> Tensor:
    """max(x, floor) against a scalar; gradient passes only where x > floor."""
    a = as_tensor(a)
    f = float(floor)
    out = np.maximum(a.data, f)
    return Tensor._from_op(out, "maximum", (a,), (
        lambda g: g * (a.data > f),
    ))


ARCCOS_SLOPE_FLOOR = 0.1   # backward denom floor: caps |d arccos/dx| at ~3.16


def arccos(a) -> Tensor:
    """arccos with input clamped to [-1, 1]; zero gradient at the clamp.

    The backward slope is capped (denominator floored at ARCCOS_SLOPE_FLOOR)
    so inputs near the domain ends cannot inject unbounded gradients into a
    shared optimizer state; the gradient is exact for |x| < 0.949.
    """
    a = as_tensor(a)
    clipped = np.clip(a.data, -1.0, 1.0)
    out = np.arccos(clipped)

    def vjp(g):
        inside = np.abs(a.data) < 1.0
        denom = np.sqrt(np.maximum(1.0 - clipped * clipped, ARCCOS_SLOPE_FLOOR))
        return np.where(inside, -g / denom, 0.0)

    return Tensor._from_op(out, "arccos", (a,), (vjp,))


def tan(a) -> Tensor:
    a = as_tensor(a)
    out = np.tan(a.data)
    return Tensor._from_op(out, "tan", (a,), (lambda g: g * (1.0 + out * out),))


def softmax(a, axis: int = -1) -> Tensor:
    """Softmax along `axis`; rows sum to 1 by construction."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return out * (g - dot)

    return Tensor._from_op(out, "softmax", (a,), (vjp,))
