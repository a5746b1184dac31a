import numpy as np
import pytest

from geovid.errors import ShapeError
from geovid.numkit import AdamW, Tensor


def scalar_adamw_oracle(theta, grads, lr, beta1=0.9, beta2=0.999, wd=0.0, eps=1e-8):
    """Reference single-parameter AdamW trajectory."""
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        theta = theta - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * theta)
    return theta


def reference_adamw_step(params, grads, state, lr, beta1=0.9, beta2=0.999,
                         weight_decay=0.05, clip=1.0, eps=1e-8, lr_scale=None):
    """The functional update `AdamW.step` replaced, kept verbatim as the
    bit-level reference; `state` is a dict with keys m, v and t."""
    if clip is not None and clip > 0:
        norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
        if norm > clip:
            scale = clip / norm
            grads = {k: g * scale for k, g in grads.items()}

    state["t"] += 1
    t = state["t"]
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if name not in state["m"]:
            state["m"][name] = np.zeros_like(p.data)
            state["v"][name] = np.zeros_like(p.data)
        m = state["m"][name]
        v = state["v"][name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        step_lr = lr * (lr_scale.get(name, 1.0) if lr_scale else 1.0)
        p.data = p.data - step_lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * p.data)


def _step(opt, grads):
    """Set each named parameter's gradient, then take one optimizer step."""
    for name, g in grads.items():
        opt.params[name].grad = np.asarray(g, dtype=np.float64)
    opt.step()


def _param(*values):
    return Tensor(np.array(values, dtype=np.float64), requires_grad=True)


def test_zero_lr_leaves_params_unchanged():
    opt = AdamW({"w": _param(1.0, -2.0)}, lr=0.0, weight_decay=0.0)
    before = opt.params["w"].data.copy()
    _step(opt, {"w": [3.0, -1.0]})
    np.testing.assert_array_equal(opt.params["w"].data, before)


def test_first_step_bias_correction_is_signlike():
    # single scalar, grad 1, lr 0.1, wd 0: update = -0.1 * m_hat/(sqrt(v_hat)+eps)
    opt = AdamW({"w": _param(0.5)}, lr=0.1, weight_decay=0.0)
    _step(opt, {"w": [1.0]})
    expected = scalar_adamw_oracle(0.5, [1.0], lr=0.1)
    np.testing.assert_allclose(opt.params["w"].data, [expected], rtol=0, atol=0)
    assert abs((opt.params["w"].data[0] - 0.5) + 0.1) < 1e-6


def test_matches_scalar_oracle_over_many_steps():
    rng = np.random.default_rng(0)
    grads = rng.standard_normal(25)
    # clip never binds: |g| can exceed 1, so disable to mirror the oracle
    opt = AdamW({"w": _param(0.3)}, lr=0.01, weight_decay=0.05, clip=0.0)
    for g in grads:
        _step(opt, {"w": [g]})
    expected = scalar_adamw_oracle(0.3, grads, lr=0.01, wd=0.05)
    np.testing.assert_allclose(opt.params["w"].data, [expected], atol=1e-14)


def test_global_norm_clipping_scales_moments():
    # gradient norm 10 with clip 1 -> moments built from grads scaled by 0.1
    clipped = AdamW({"w": _param(0.0)}, lr=0.1, weight_decay=0.0, clip=1.0)
    _step(clipped, {"w": [10.0]})
    plain = AdamW({"w": _param(0.0)}, lr=0.1, weight_decay=0.0, clip=0.0)
    _step(plain, {"w": [1.0]})
    np.testing.assert_allclose(clipped.params["w"].data, plain.params["w"].data,
                               atol=1e-12)


def test_clip_is_global_across_params():
    # two params with joint norm 5: both scaled by the same 1/5 factor
    opt = AdamW({"a": _param(0.0), "b": _param(0.0)}, lr=0.1, weight_decay=0.0,
                clip=1.0)
    _step(opt, {"a": [3.0], "b": [4.0]})
    assert opt.m["a"][0] == pytest.approx(0.1 * 3.0 / 5.0)
    assert opt.m["b"][0] == pytest.approx(0.1 * 4.0 / 5.0)


def test_decoupled_weight_decay():
    # zero gradient, nonzero decay: pure shrink by lr * wd * theta
    opt = AdamW({"w": _param(2.0)}, lr=0.1, weight_decay=0.05)
    _step(opt, {"w": [0.0]})
    np.testing.assert_allclose(opt.params["w"].data, [2.0 - 0.1 * 0.05 * 2.0],
                               atol=1e-12)


def test_shape_mismatch_raises():
    opt = AdamW({"w": Tensor(np.zeros(3), requires_grad=True)}, lr=0.1)
    with pytest.raises(ShapeError, match="gradient shape"):
        _step(opt, {"w": np.zeros(4)})
    _step(opt, {"w": np.zeros(3)})
    opt.params["w"].data = np.zeros(5)   # moments still hold 3 entries
    with pytest.raises(ShapeError, match="state shape"):
        _step(opt, {"w": np.zeros(5)})


def test_matches_functional_reference_bit_for_bit():
    # several tensors, clipping active on every step, one lr_scale entry and a
    # parameter whose gradient is never set (None, read as zeros); small
    # weights keep a last-bit change in the update visible in the result
    rng = np.random.default_rng(5)
    shapes = {"enc": (16, 8), "head": (8,), "frozen": (2, 2)}
    start = {k: 1e-3 * rng.standard_normal(s) for k, s in shapes.items()}
    kwargs = dict(lr=0.02, beta1=0.85, beta2=0.99, weight_decay=0.05, clip=0.5,
                  eps=1e-8, lr_scale={"enc": 0.1})
    opt = AdamW({k: Tensor(v.copy(), requires_grad=True) for k, v in start.items()},
                **kwargs)
    ref = {k: Tensor(v.copy(), requires_grad=True) for k, v in start.items()}
    state = {"m": {}, "v": {}, "t": 0}
    for _ in range(6):
        grads = {k: 3.0 * rng.standard_normal(s) for k, s in shapes.items()
                 if k != "frozen"}
        assert np.sqrt(sum(np.sum(g * g) for g in grads.values())) > kwargs["clip"]
        _step(opt, grads)
        assert opt.params["frozen"].grad is None
        reference_adamw_step(ref, {**grads, "frozen": np.zeros(shapes["frozen"])},
                             state, **kwargs)
    for k in shapes:
        assert np.array_equal(opt.params[k].data, ref[k].data), k
        assert np.array_equal(opt.m[k], state["m"][k]) and np.array_equal(opt.v[k], state["v"][k])
    assert opt.t == state["t"] == 6
    assert not np.array_equal(opt.params["frozen"].data, start["frozen"])   # decay only
