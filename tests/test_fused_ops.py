"""The single-node ordinal-probs, bounded-centers, expected-depth and
quat_to_rotation ops against the composed graphs they replace, kept here as
references; the probs and centers nodes with the upsample folded in against
a matmul node feeding the unfolded ones; and the metric head's blocked
no-grad path against its graph path. Each repeats the float operations of its
reference in the same order, so forward values and VJPs must be equal, not
only close."""

import tracemalloc

import numpy as np
import pytest
from scipy import special

from geovid import metric_depth
from geovid.errors import NumericError, ShapeError
from geovid.metric_depth import (
    MetricDepthParams, bin_logits_to_probs, bounded_centers, expected_depth_tensor,
    init_bins, predict_metric_depth,
)
from geovid.numkit import (
    Role, Tensor, TokenSet, concat, matmul, maximum, no_grad, sigmoid, tanh, tsum,
)
from geovid.recon import quat_to_rotation, upsample_matrix

def composed_ordinal_probs(logits: Tensor) -> Tensor:
    hw, n = logits.shape
    q = sigmoid(logits[:, 0:n - 1])
    q_full = concat([Tensor(np.ones((hw, 1))), q, Tensor(np.zeros((hw, 1)))], axis=1)
    raw = q_full[:, 0:n] - q_full[:, 1:n + 1]
    clamped = maximum(raw, 0.0)
    return clamped / tsum(clamped, axis=1, keepdims=True)


def strided_ordinal_probs(logits: Tensor) -> Tensor:
    """The ordinal node as one whole-array pass over the strided layout
    q_full = [1, q, 0], with its VJP written as one expression."""
    hw, n = logits.shape
    q_full = np.empty((hw, n + 1))
    q_full[:, 0], q_full[:, n] = 1.0, 0.0
    q = special.expit(logits.data[:, 0:n - 1], out=q_full[:, 1:n])
    clamped = np.maximum(q_full[:, 0:n] - q_full[:, 1:n + 1], 0.0)
    total = clamped.sum(axis=1, keepdims=True)

    def vjp(g):
        g_mass = g / total + (-g * clamped / (total * total)).sum(axis=1, keepdims=True)
        g_raw = g_mass * (clamped > 0.0)
        g_logits = np.zeros((hw, n))
        g_logits[:, 0:n - 1] = (g_raw[:, 1:n] - g_raw[:, 0:n - 1]) * q * (1.0 - q)
        return g_logits

    return Tensor._from_op(clamped / total, "ordinal_probs", (logits,), (vjp,))


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


def _bits_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    assert got.tobytes() == want.tobytes()   # signed zeros too


def _upstream(rng, shape) -> np.ndarray:
    """A random upstream gradient whose every fifth row is zero, with +0.0
    and -0.0 alternating along every tenth row."""
    g = rng.standard_normal(shape)
    g[::5] = 0.0
    g[::10, ::2] = -0.0
    return g


def assert_matches_composed(op, reference, x: np.ndarray, rng) -> None:
    seed = rng.standard_normal(reference(Tensor(x)).shape)
    out, grad = forward_and_vjp(op, x, seed)
    ref_out, ref_grad = forward_and_vjp(reference, x, seed)
    _bits_equal(out, ref_out)
    _bits_equal(grad, ref_grad)


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


def test_ordinal_probs_match_strided_whole_array_node():
    rng = np.random.default_rng(7)
    logits = rng.standard_normal((900, 16)) * 3.0     # three blocks, the last partial
    logits[::7, :5] = 45.0                            # saturated: masses exactly 0
    seed = _upstream(rng, (900, 16))
    for got, want in zip(forward_and_vjp(bin_logits_to_probs, logits, seed),
                         forward_and_vjp(strided_ordinal_probs, logits, seed)):
        _bits_equal(got, want)


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


def _upsampled_case(h: int, w: int, grid: tuple[int, int], n: int, seed: int):
    """An upsample matrix, [P, n] patch logits and an upstream gradient [HW, n].

    Wide unsorted logits leave the clamp active; every pixel's first three
    logits and every logit of patch 0 are at least 40, where sigma is
    exactly 1 and those bins' mass exactly 0.
    """
    rng = np.random.default_rng(seed)
    up = upsample_matrix(*grid, h, w)
    logits = rng.standard_normal((grid[0] * grid[1], n)) * 3.0
    logits[:, :3] = 40.0 + np.abs(logits[:, :3])
    logits[0] = 40.0 + rng.random(n)
    return up, logits, _upstream(rng, (h * w, n))


def _patch_vjp(op, patch: np.ndarray, seed_grad: np.ndarray):
    t = Tensor(patch.copy(), requires_grad=True)
    out = op(t)
    tsum(out * Tensor(seed_grad)).backward()
    return out.data, t.grad


# 56x56 gives 3136 rows (8 full blocks), 42x42 1764 (a partial last block),
# 10x10 100 (less than one block)
UPSAMPLED = [(56, 56, (4, 4)), (42, 42, (3, 3)), (10, 10, (2, 2))]


@pytest.mark.parametrize("h, w, grid", UPSAMPLED)
def test_folded_ordinal_probs_match_matmul_then_node(h, w, grid):
    up, logits, seed_grad = _upsampled_case(h, w, grid, 64, seed=h)
    folded = _patch_vjp(lambda t: bin_logits_to_probs(t, up=up), logits, seed_grad)
    pixel_logits = up @ logits
    assert (pixel_logits[:, :3] >= 40.0).all() and (folded[0][:, :3] == 0.0).all()
    q = special.expit(pixel_logits[:, :-1])
    assert (np.diff(q, axis=1) > 0).any(), "the clamp must be active somewhere"
    for reference in (bin_logits_to_probs, strided_ordinal_probs):
        unfolded = _patch_vjp(lambda t: reference(matmul(Tensor(up), t)), logits, seed_grad)
        for got, want in zip(folded, unfolded):
            _bits_equal(got, want)


@pytest.mark.parametrize("h, w, grid", UPSAMPLED)
def test_folded_bounded_centers_match_matmul_then_node(h, w, grid):
    up, raw, seed_grad = _upsampled_case(h, w, grid, 64, seed=h + 1)
    raw -= 20.0 * (raw > 20.0)   # still >= 20 there: tanh is exactly 1, its slope 0
    cfg = init_bins(64, 0.1, 10.0)
    folded = _patch_vjp(lambda t: bounded_centers(cfg, t, up=up), raw, seed_grad)
    for reference in (bounded_centers, composed_bounded_centers):
        unfolded = _patch_vjp(lambda t: reference(cfg, matmul(Tensor(up), t)), raw, seed_grad)
        for got, want in zip(folded, unfolded):
            _bits_equal(got, want)


# the two folded nodes on a 2x2 grid's [4, 5] patch outputs and a 28x28 frame
FOLDED = [lambda x: bin_logits_to_probs(x, up=upsample_matrix(2, 2, 28, 28)),
          lambda x: bounded_centers(init_bins(5, 0.1, 10.0), x, up=upsample_matrix(2, 2, 28, 28))]


@pytest.mark.parametrize("op", FOLDED)
def test_folded_nodes_take_the_patch_outputs_as_their_parent(op):
    x = Tensor(np.zeros((4, 5)), requires_grad=True)
    out = op(x)
    assert out.shape == (784, 5) and out._parents == (x,)


@pytest.mark.parametrize("op", FOLDED)
def test_folded_nodes_reject_mismatched_upsample(op):
    with pytest.raises(ShapeError, match="upsample"):
        op(Tensor(np.zeros((9, 5))))


@pytest.mark.parametrize("op", FOLDED)
def test_folded_nodes_raise_on_non_finite_upsampled_rows(op):
    x = Tensor(np.zeros((4, 5)))
    x.data[3, 2] = np.nan                # a leaf is checked when built: corrupt it after
    with pytest.raises(NumericError, match="matmul"):
        op(x)
