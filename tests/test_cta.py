import numpy as np
import pytest

from geovid.cta import CtaParams, bridge_update, cta_forward, fuse_back, project_streams
from geovid.errors import StateError
from geovid.numkit import MlpParams, Role, Tensor, TokenSet, grad_check, tsum


def _params(seed=0, c=8, heads=2, k=3):
    return CtaParams.init(np.random.default_rng(seed), c, heads, bridge_tokens=k)


def _base(seed=1, n=5, c=8):
    rng = np.random.default_rng(seed)
    return TokenSet(Tensor(rng.standard_normal((n, c))), Role.BASE)


def _zeroed(p: CtaParams, which: str) -> CtaParams:
    for t in getattr(p, which).tensors("x").values():
        t.data = np.zeros_like(t.data)
    return p


class TestProjectStreams:
    def test_zero_heads_zero_streams(self):
        p = _zeroed(_zeroed(_params(), "phi_geom"), "phi_lang")
        geom, lang = project_streams(_base(), p)
        assert not geom.tokens.data.any() and not lang.tokens.data.any()
        assert geom.role == Role.GEOM and lang.role == Role.LANG

    def test_streams_differ_for_distinct_heads(self):
        geom, lang = project_streams(_base(), _params())
        assert np.linalg.norm(geom.tokens.data - lang.tokens.data) > 1e-6

    def test_gradient_to_base(self):
        p = _params()
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((4, 8)), requires_grad=True)

        def f(t):
            geom, _ = project_streams(TokenSet(t, Role.BASE), p)
            return tsum(geom.tokens)

        assert grad_check(f, x) < 1e-4

    def test_requires_base_role(self):
        ts = TokenSet(Tensor(np.ones((2, 8))), Role.GEOM)
        with pytest.raises(StateError):
            project_streams(ts, _params())


class TestBridgeUpdate:
    def test_zero_streams_zero_bridge(self):
        p = _params()
        bridge = TokenSet(p.bridge_init, Role.BRIDGE)
        zeros = TokenSet(Tensor(np.zeros((4, 8))), Role.GEOM)
        out = bridge_update(bridge, zeros, zeros, p)
        np.testing.assert_array_equal(out.tokens.data, np.zeros((3, 8)))

    def test_stream_permutation_invariance(self):
        p = _params()
        rng = np.random.default_rng(3)
        bridge = TokenSet(p.bridge_init, Role.BRIDGE)
        g = rng.standard_normal((6, 8))
        lang = TokenSet(Tensor(rng.standard_normal((6, 8))), Role.LANG)
        perm = rng.permutation(6)
        o1 = bridge_update(bridge, TokenSet(Tensor(g), Role.GEOM), lang, p)
        o2 = bridge_update(bridge, TokenSet(Tensor(g[perm]), Role.GEOM), lang, p)
        np.testing.assert_allclose(o1.tokens.data, o2.tokens.data, atol=1e-12)

    def test_language_stream_contributes(self):
        p = _params()
        rng = np.random.default_rng(4)
        bridge = TokenSet(p.bridge_init, Role.BRIDGE)
        geom = TokenSet(Tensor(rng.standard_normal((4, 8))), Role.GEOM)
        lang = TokenSet(Tensor(rng.standard_normal((4, 8))), Role.LANG)
        lang0 = TokenSet(Tensor(np.zeros((4, 8))), Role.LANG)
        full = bridge_update(bridge, geom, lang, p)
        dropped = bridge_update(bridge, geom, lang0, p)
        assert np.linalg.norm(full.tokens.data - dropped.tokens.data) > 1e-8


class TestFuseBack:
    def test_zero_bridge_residual_identity(self):
        p = _params()
        rng = np.random.default_rng(5)
        stream = TokenSet(Tensor(rng.standard_normal((4, 8))), Role.GEOM)
        bridge0 = TokenSet(Tensor(np.zeros((3, 8))), Role.BRIDGE)
        out = fuse_back(stream, bridge0, p)
        np.testing.assert_array_equal(out.tokens.data, stream.tokens.data)

    def test_residual_definition(self):
        p = _params()
        rng = np.random.default_rng(6)
        stream = TokenSet(Tensor(rng.standard_normal((4, 8))), Role.LANG)
        bridge = TokenSet(Tensor(rng.standard_normal((3, 8))), Role.BRIDGE)
        out = fuse_back(stream, bridge, p)
        from geovid.numkit import mha
        read = mha(stream.tokens, bridge.tokens, bridge.tokens, p.fuse_lang_attn)
        np.testing.assert_allclose(out.tokens.data,
                                   stream.tokens.data + read.data, atol=1e-14)

    def test_gradient_reaches_both_inputs(self):
        p = _params()
        rng = np.random.default_rng(7)
        s = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
        out = fuse_back(TokenSet(s, Role.GEOM), TokenSet(b, Role.BRIDGE), p)
        tsum(out.tokens * Tensor(rng.standard_normal((4, 8)))).backward()
        assert np.abs(s.grad).max() > 0 and np.abs(b.grad).max() > 0

    def test_bridge_role_rejected(self):
        p = _params()
        b = TokenSet(Tensor(np.ones((3, 8))), Role.BRIDGE)
        with pytest.raises(StateError):
            fuse_back(b, b, p)


class TestCtaForward:
    def test_default_bridge_count(self):
        p = CtaParams.init(np.random.default_rng(0), 8, 2)
        assert p.bridge_count == 16

    def test_shapes(self):
        out = cta_forward(_base(n=5), _params(k=3))
        assert out.geom.tokens.shape == (5, 8)
        assert out.lang.tokens.shape == (5, 8)
        assert out.bridge.tokens.shape == (3, 8)

    def test_no_bridge_reduces_to_projections(self):
        p = _params(k=0)
        base = _base()
        out = cta_forward(base, p)
        geom, lang = project_streams(base, p)
        assert out.bridge is None
        np.testing.assert_array_equal(out.geom.tokens.data, geom.tokens.data)
        np.testing.assert_array_equal(out.lang.tokens.data, lang.tokens.data)

    def test_cross_task_sensitivity(self):
        # zeroing the language stream changes the fused geometry stream
        p = _params()
        base = _base()
        geom, lang = project_streams(base, p)
        bridge = TokenSet(p.bridge_init, Role.BRIDGE)
        lang0 = lang.with_tokens(Tensor(np.zeros(lang.tokens.shape)))
        full = fuse_back(geom, bridge_update(bridge, geom, lang, p), p)
        cut = fuse_back(geom, bridge_update(bridge, geom, lang0, p), p)
        assert np.linalg.norm(full.tokens.data - cut.tokens.data) > 1e-8

    def test_permutation_equivariance(self):
        p = _params()
        rng = np.random.default_rng(8)
        tokens = rng.standard_normal((6, 8))
        perm = rng.permutation(6)
        out1 = cta_forward(TokenSet(Tensor(tokens), Role.BASE), p)
        out2 = cta_forward(TokenSet(Tensor(tokens[perm]), Role.BASE), p)
        np.testing.assert_allclose(out1.geom.tokens.data[perm],
                                   out2.geom.tokens.data, atol=1e-12)
        np.testing.assert_allclose(out1.lang.tokens.data[perm],
                                   out2.lang.tokens.data, atol=1e-12)

    def test_end_to_end_gradient(self):
        p = _params()
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 8)))

        def f(t):
            out = cta_forward(TokenSet(t, Role.BASE), p)
            return tsum(out.geom.tokens * w) + tsum(out.lang.tokens)

        assert grad_check(f, x) < 1e-4
