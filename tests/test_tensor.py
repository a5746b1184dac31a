import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geovid.errors import NumericError, ShapeError
from geovid.numkit import (
    Tensor, arccos, boundary_checks, concat, grad_check, matmul, maximum, no_grad, softmax,
    softplus, tabs, tmean, tsum,
)
from geovid.numkit.tensor import ARCCOS_SLOPE_FLOOR


def test_leaf_construction_and_grad_accumulation():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = tsum(x * x)
    y.backward()
    np.testing.assert_allclose(x.grad, [2.0, 4.0])
    # second backward accumulates
    tsum(x * 3.0).backward()
    np.testing.assert_allclose(x.grad, [5.0, 7.0])


def test_quadratic_gradient_exact():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal(11), requires_grad=True)
    err = grad_check(lambda t: tsum(t * t), x)
    assert err < 1e-9


def test_constant_function_zero_gradient():
    x = Tensor(np.ones(4), requires_grad=True)
    y = tsum(x * 0.0)
    y.backward()
    np.testing.assert_array_equal(x.grad, np.zeros(4))


def test_non_finite_raises():
    with pytest.raises(NumericError):
        Tensor([np.nan, 1.0])
    x = Tensor([1e300])
    with pytest.raises(NumericError), pytest.warns(RuntimeWarning, match="overflow"):
        _ = x * x * x  # overflows to inf


def test_finite_values_whose_sum_overflows_pass():
    # the finite check is a single sum; 4 x 1e308 overflows it without any
    # inf. The sum's overflow warning, even raised as an error, is no verdict.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        big = Tensor(np.full(4, 1e308))
        np.testing.assert_array_equal((big * 1.0).data, np.full(4, 1e308))
    with pytest.raises(NumericError):
        Tensor(np.array([1e308, np.inf, 1.0]))
    with pytest.raises(NumericError), pytest.warns(RuntimeWarning, match="overflow"):
        _ = big * 2.0  # every element overflows to inf


def test_boundary_checks_trade_per_op_checks_for_fp_flags():
    x, poisoned = Tensor([1e300]), Tensor([1.0])
    poisoned.data[0] = np.nan   # after its leaf check, where no FP flag can see it
    with boundary_checks():
        with pytest.raises(FloatingPointError, match="overflow"):
            _ = x * x * x       # raised by numpy at the op, not by a sum
        assert np.isnan((poisoned * 2.0).data).all()   # the op's own check is off
        with pytest.raises(NumericError):
            Tensor([np.nan, 1.0])                      # a leaf keeps its check
        big = Tensor(np.full(4, 1e308))   # the check's sum overflows: still legal
        np.testing.assert_array_equal(big.data, np.full(4, 1e308))
    with pytest.raises(NumericError):
        _ = poisoned * 2.0      # outside the context, per op again


def test_matmul_requires_2d():
    with pytest.raises(ShapeError):
        matmul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))


def test_matmul_inner_dim_check():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_backward_needs_scalar_root():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        (x * 2.0).backward()


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    s = softmax(Tensor(rng.standard_normal((40, 17)) * 5), axis=-1)
    np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_softmax_simplex_property(seed):
    rng = np.random.default_rng(seed)
    s = softmax(Tensor(rng.standard_normal((5, 8)) * rng.uniform(0.1, 20)), axis=-1)
    assert s.data.min() >= 0
    np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)


def test_no_grad_blocks_recording():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        y = x * 2.0
    assert not y.requires_grad


def test_determinism_bit_identical():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6))
    f = lambda: softmax(matmul(Tensor(a), Tensor(a.T)), axis=-1).data
    assert np.array_equal(f(), f())


@pytest.mark.parametrize("op,low,high", [
    (lambda t: tsum(softplus(t) * softplus(-t)), -3, 3),
    (lambda t: tsum(tabs(t)), 0.2, 3),       # away from the kink
    (lambda t: tsum(arccos(t)), -0.9, 0.9),  # inside the exact-slope region
    (lambda t: tmean(maximum(t, 0.5) ** 2.0), 0.7, 3),
])
def test_elementwise_gradients(op, low, high):
    rng = np.random.default_rng(11)
    x = Tensor(rng.uniform(low, high, size=7), requires_grad=True)
    assert grad_check(op, x) < 1e-7


def test_concat_and_slicing_gradients():
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((5, 4)))

    def f(t):
        stacked = concat([t, t[0:2, :] * 2.0], axis=0)
        return tsum(stacked * w)

    assert grad_check(f, x) < 1e-8


@pytest.mark.parametrize("key", [
    (slice(1, 4), slice(None)),                 # basic slice
    (slice(None, None, -2), slice(3, 0, -1)),   # negative steps
    2,                                          # int
    (1, -1),                                    # int pair, negative index
    (Ellipsis, None, 2),                        # Ellipsis and a new axis
    np.array([0, 2, 3]),                        # sorted unique index array
    np.array([-4, -2, -1]),                     # sorted negative indices
])
def test_getitem_vjp_matches_scatter_add(key):
    rng = np.random.default_rng(17)
    x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    y = x[key]
    seed = rng.standard_normal(y.shape)
    tsum(y * Tensor(seed)).backward()
    expected = np.zeros((5, 4))
    np.add.at(expected, key, seed)
    np.testing.assert_array_equal(x.grad, expected)


@pytest.mark.parametrize("key", [
    np.array([3, 1, 3, 3]),       # repeated and unsorted
    np.array([-1, 4]),            # sorted, but both name row 4
    (np.array([0, 0]), np.array([1, 1])),
])
def test_getitem_vjp_accumulates_repeated_indices(key):
    x = Tensor(np.zeros((5, 4)), requires_grad=True)
    tsum(x[key]).backward()
    expected = np.zeros((5, 4))
    np.add.at(expected, key, 1.0)
    np.testing.assert_array_equal(x.grad, expected)
    assert expected.max() >= 2.0


def test_arccos_vjp_capped_outside_exact_region():
    # past |x| = sqrt(1 - ARCCOS_SLOPE_FLOOR) (about 0.949) the slope is capped
    x = Tensor([0.95, -0.97, 0.999, -0.9999999], requires_grad=True)
    g = np.array([0.3, -1.2, 2.0, 0.7])
    tsum(arccos(x) * Tensor(g)).backward()
    np.testing.assert_array_equal(x.grad, -g / np.sqrt(ARCCOS_SLOPE_FLOOR))
    # just inside, the exact slope -g / sqrt(1 - x^2) applies
    y = Tensor([0.948, -0.948], requires_grad=True)
    tsum(arccos(y)).backward()
    np.testing.assert_array_equal(y.grad, -1.0 / np.sqrt(1.0 - y.data * y.data))


def test_arccos_clamps_out_of_range():
    y = arccos(Tensor([1.0 + 1e-12, -1.0 - 1e-12]))
    np.testing.assert_allclose(y.data, [0.0, np.pi])
