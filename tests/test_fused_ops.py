"""The single-node ordinal-probs, bounded-centers, expected-depth and
quat_to_rotation ops against the composed graphs they replace, kept here as
references, and the metric head's blocked no-grad path against its graph
path. Each repeats the float operations of its reference in the same order,
so forward values and VJPs must be equal, not only close."""

import tracemalloc

import numpy as np
import pytest

from geovid import metric_depth
from geovid.errors import NumericError, ShapeError
from geovid.metric_depth import (
    MetricDepthParams, bin_logits_to_probs, bounded_centers, expected_depth_tensor,
    init_bins, predict_metric_depth,
)
from geovid.numkit import Role, Tensor, TokenSet, concat, maximum, no_grad, sigmoid, tanh, tsum
from geovid.recon import quat_to_rotation, upsample_matrix

def composed_ordinal_probs(logits: Tensor) -> Tensor:
    hw, n = logits.shape
    q = sigmoid(logits[:, 0:n - 1])
    q_full = concat([Tensor(np.ones((hw, 1))), q, Tensor(np.zeros((hw, 1)))], axis=1)
    raw = q_full[:, 0:n] - q_full[:, 1:n + 1]
    clamped = maximum(raw, 0.0)
    return clamped / tsum(clamped, axis=1, keepdims=True)


def composed_bounded_centers(cfg, raw: Tensor) -> Tensor:
    delta = cfg.max_shift * Tensor(cfg.local_widths()) * tanh(raw)
    return Tensor(cfg.centers) + delta


def composed_rotation(quat: Tensor) -> Tensor:
    w, x, y, z = (quat[i] for i in range(4))
    one = Tensor(1.0)
    entries = [
        one - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y),
        2.0 * (x * y + w * z), one - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x),
        2.0 * (x * z - w * y), 2.0 * (y * z + w * x), one - 2.0 * (x * x + y * y),
    ]
    return concat([e.reshape(1) for e in entries], axis=0).reshape(3, 3)


def forward_and_vjp(op, x: np.ndarray, seed: np.ndarray):
    t = Tensor(x.copy(), requires_grad=True)
    out = op(t)
    tsum(out * Tensor(seed)).backward()
    return out.data, t.grad


def assert_matches_composed(op, reference, x: np.ndarray, rng) -> None:
    seed = rng.standard_normal(reference(Tensor(x)).shape)
    out, grad = forward_and_vjp(op, x, seed)
    ref_out, ref_grad = forward_and_vjp(reference, x, seed)
    np.testing.assert_array_equal(out, ref_out)
    np.testing.assert_array_equal(grad, ref_grad)


def test_ordinal_probs_match_composed_graph_with_active_clamp():
    rng = np.random.default_rng(0)
    # unsorted wide logits: many rows have non-monotone exceedance probabilities
    logits = rng.standard_normal((40, 8)) * 3.0
    q = 1.0 / (1.0 + np.exp(-logits[:, :-1]))
    assert (np.diff(q, axis=1) > 0).any(), "the clamp must be active somewhere"
    assert_matches_composed(bin_logits_to_probs, composed_ordinal_probs, logits, rng)


def test_ordinal_probs_match_composed_graph_monotone_rows():
    rng = np.random.default_rng(1)
    logits = -np.sort(rng.standard_normal((12, 6)), axis=1) * 2.0
    assert_matches_composed(bin_logits_to_probs, composed_ordinal_probs, logits, rng)


def test_ordinal_probs_zero_gradient_where_clamped():
    # boundary 2 is likelier to be exceeded than boundary 1: bin 2 clamps to 0
    logits = np.array([[2.0, -1.0, 1.0, 0.0]])
    out, grad = forward_and_vjp(bin_logits_to_probs, logits,
                                np.array([[0.0, 0.0, 1.0, 0.0]]))
    assert out[0, 2] == 0.0
    np.testing.assert_array_equal(grad, np.zeros((1, 4)))


def test_bounded_centers_match_composed_graph():
    rng = np.random.default_rng(2)
    cfg = init_bins(8, 0.1, 10.0)
    raw = rng.standard_normal((30, 8)) * 2.0
    assert_matches_composed(lambda r: bounded_centers(cfg, r),
                            lambda r: composed_bounded_centers(cfg, r), raw, rng)


def test_quat_to_rotation_matches_composed_graph():
    rng = np.random.default_rng(3)
    for _ in range(20):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        assert_matches_composed(quat_to_rotation, composed_rotation, q, rng)


def test_quat_to_rotation_rejects_wrong_shape():
    with pytest.raises(ShapeError):
        quat_to_rotation(Tensor(np.ones((2, 2))))


def test_expected_depth_matches_composed_graph():
    rng = np.random.default_rng(4)
    probs_in = rng.random((30, 8))
    centers_in = rng.random((30, 8)) * 10.0
    seed = rng.standard_normal(30)

    def run(op):
        probs = Tensor(probs_in.copy(), requires_grad=True)
        centers = Tensor(centers_in.copy(), requires_grad=True)
        out = op(probs, centers)
        tsum(out * Tensor(seed)).backward()
        return out.data, probs.grad, centers.grad

    fused = run(expected_depth_tensor)
    composed = run(lambda p, c: tsum(p * c, axis=1))
    for a, b in zip(fused, composed):
        np.testing.assert_array_equal(a, b)


def test_fused_ops_are_one_node():
    cfg = init_bins(5, 0.1, 10.0)
    x = Tensor(np.zeros((3, 5)), requires_grad=True)
    y = Tensor(np.ones((3, 5)), requires_grad=True)
    q = Tensor(np.array([1.0, 0.0, 0.0, 0.0]), requires_grad=True)
    for out, leaves in ((bin_logits_to_probs(x), (x,)), (bounded_centers(cfg, x), (x,)),
                        (expected_depth_tensor(x, y), (x, y)), (quat_to_rotation(q), (q,))):
        assert out._parents == leaves


def _random_head(side: int, n_bins: int, ordinal: bool, seed: int = 5):
    """Patch tokens for a side x side frame and a head with every weight
    random, so the clamp and the center shifts are active."""
    rng = np.random.default_rng(seed)
    c = 16
    p = MetricDepthParams.init(rng, c, init_bins(n_bins, 0.1, 10.0), ordinal=ordinal)
    for t in p.tensors().values():
        t.data = rng.standard_normal(t.shape) * 1.5
    tokens = TokenSet(Tensor(rng.standard_normal(((side // 14) ** 2, c))), Role.GEOM)
    return tokens, p


@pytest.mark.parametrize("ordinal", [True, False])
@pytest.mark.parametrize("side", [56, 42])
def test_blocked_no_grad_depth_matches_graph(side, ordinal):
    # 42x42 has 1764 pixels, not a multiple of ROW_BLOCK: the last block is
    # partial. Softmax bins keep the graph's ops under no_grad too.
    assert (side * side % metric_depth.ROW_BLOCK != 0) == (side == 42)
    tokens, p = _random_head(side, 64, ordinal)
    graph = predict_metric_depth(tokens, (side, side), p)
    assert graph.requires_grad
    with no_grad():
        blocked = predict_metric_depth(tokens, (side, side), p)
    assert not blocked.requires_grad
    np.testing.assert_array_equal(blocked.data, graph.data)


@pytest.mark.parametrize("bad", ["logits", "raw"])
def test_blocked_no_grad_depth_raises_on_non_finite(bad):
    rng = np.random.default_rng(6)
    up = upsample_matrix(2, 2, 28, 28)
    inputs = {"logits": rng.standard_normal((4, 8)), "raw": rng.standard_normal((4, 8))}
    inputs[bad][2, 3] = np.nan
    with pytest.raises(NumericError, match="matmul"):
        metric_depth._blocked_depth(up, inputs["logits"], inputs["raw"], init_bins(8, 0.1, 10.0))


def test_blocked_no_grad_depth_allocates_no_pixel_by_bin_array():
    tokens, p = _random_head(56, 64, True)
    with no_grad():
        predict_metric_depth(tokens, (56, 56), p)   # builds the cached upsample
        tracemalloc.start()
        try:
            predict_metric_depth(tokens, (56, 56), p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 56 * 56 * 64 * 8, peak
