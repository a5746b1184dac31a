import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geovid.errors import ShapeError
from geovid.numkit import (
    MhaParams, MlpParams, Role, Tensor, TokenSet, grad_check, mha, mlp, tsum,
)


def _tensor(arr):
    return Tensor(np.asarray(arr, dtype=float))


def _zero_mlp(c_in, c_out, hidden):
    return MlpParams(w1=Tensor(np.zeros((c_in, hidden))),
                     b1=Tensor(np.zeros(hidden)),
                     w2=Tensor(np.zeros((hidden, c_out))),
                     b2=Tensor(np.zeros(c_out)))


def scalar_gelu(x: float) -> float:
    return 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))


class TestMlp:
    def test_zero_params_zero_output(self):
        rng = np.random.default_rng(0)
        x = _tensor(rng.standard_normal((5, 3)))
        out = mlp(x, _zero_mlp(3, 4, 6))
        np.testing.assert_array_equal(out.data, np.zeros((5, 4)))

    def test_constant_hidden_gives_gelu_of_bias(self):
        # W1 = 0, b1 = c, W2 = I, b2 = 0 -> every output equals GELU(c)
        c = 0.7
        h = 4
        p = MlpParams(w1=Tensor(np.zeros((3, h))), b1=Tensor(np.full(h, c)),
                      w2=Tensor(np.eye(h)), b2=Tensor(np.zeros(h)))
        x = _tensor(np.random.default_rng(1).standard_normal((6, 3)))
        out = mlp(x, p)
        np.testing.assert_allclose(out.data, scalar_gelu(c), atol=1e-14)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        p = MlpParams.init(rng, 4, 3)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 3)))
        err = grad_check(lambda t: tsum(mlp(t, p) * w), x)
        assert err < 1e-4

    def test_dimension_mismatch(self):
        p = MlpParams.init(np.random.default_rng(0), 4, 3)
        with pytest.raises(ShapeError):
            mlp(_tensor(np.ones((2, 5))), p)

    def test_expansion_factor_default(self):
        p = MlpParams.init(np.random.default_rng(0), 8)
        assert p.w1.shape == (8, 32)  # 4x expansion


class TestMha:
    def test_zero_values_zero_output(self):
        rng = np.random.default_rng(3)
        p = MhaParams.init(rng, 8, 2)
        q = _tensor(rng.standard_normal((4, 8)))
        k = _tensor(rng.standard_normal((5, 8)))
        v = _tensor(np.zeros((5, 8)))
        out = mha(q, k, v, p)
        np.testing.assert_array_equal(out.data, np.zeros((4, 8)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_joint_kv_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        p = MhaParams.init(rng, 8, 2, qk_norm=bool(seed % 2))
        q = _tensor(rng.standard_normal((3, 8)))
        kv = rng.standard_normal((6, 8))
        perm = rng.permutation(6)
        out1 = mha(q, _tensor(kv), _tensor(kv), p)
        out2 = mha(q, _tensor(kv[perm]), _tensor(kv[perm]), p)
        np.testing.assert_allclose(out1.data, out2.data, atol=1e-12)

    def test_single_head_hand_case(self):
        # identity projections, 1 head, d_h = 2: out = softmax(q k^T / sqrt(2)) v
        eye = np.eye(2)[None, :, :]
        p = MhaParams(wq=Tensor(eye), wk=Tensor(eye), wv=Tensor(eye),
                      wo=Tensor(np.eye(2)))
        q = np.array([[0.5, -1.0]])
        k = np.array([[1.0, 0.0], [0.0, 2.0]])
        v = np.array([[3.0, 1.0], [-1.0, 2.0]])
        scores = (q @ k.T) / math.sqrt(2.0)
        w = np.exp(scores - scores.max())
        w = w / w.sum()
        expected = w @ v
        out = mha(_tensor(q), _tensor(k), _tensor(v), p)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_kv_length_mismatch(self):
        rng = np.random.default_rng(4)
        p = MhaParams.init(rng, 8, 2)
        q = _tensor(rng.standard_normal((2, 8)))
        with pytest.raises(ShapeError):
            mha(q, _tensor(rng.standard_normal((3, 8))),
                _tensor(rng.standard_normal((4, 8))), p)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        p = MhaParams.init(rng, 8, 4, qk_norm=True)
        x = _tensor(rng.standard_normal((6, 8)))
        a = mha(x, x, x, p).data
        b = mha(x, x, x, p).data
        assert np.array_equal(a, b)

    def test_gradient(self):
        rng = np.random.default_rng(6)
        p = MhaParams.init(rng, 8, 2)
        x = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 8)))
        err = grad_check(lambda t: tsum(mha(t, t, t, p) * w), x)
        assert err < 1e-4


class TestTokenSet:
    def test_needs_tokens(self):
        with pytest.raises(ShapeError):
            TokenSet(Tensor(np.zeros((0, 4))), Role.BASE)
        with pytest.raises(ShapeError):
            TokenSet(Tensor(np.zeros(4)), Role.BASE)

    def test_role_is_immutable(self):
        ts = TokenSet(_tensor(np.ones((2, 2))), Role.BASE)
        with pytest.raises(AttributeError):
            ts.role = Role.GEOM
