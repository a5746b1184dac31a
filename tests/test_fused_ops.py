"""The single-node ordinal-probs, bounded-centers, expected-depth and
quat_to_rotation ops against the composed graphs they replace, kept here as
references; the ordinal head's one node (`ordinal_depth`, the upsample
folded in) against matmul nodes feeding the pixel-row ones, and on a window
against one node per frame; and the metric head under no_grad against its
graph. Each repeats the float operations of its reference in the same
order, so forward values and VJPs must be equal, not only close. The one
exception is the ordinal head's VJPs: they sum the pixel-row nodes'
Jacobian rows in another order (`_oracles.row_jacobian_vjp`), which they
match bit for bit, and they stay within 1e-12 of the nodes' own VJPs."""

import tracemalloc

import numpy as np
import pytest
from scipy import special

from geovid import metric_depth
from geovid.errors import NumericError, ShapeError
from geovid.metric_depth import (
    MetricDepthParams, bin_logits_to_probs, bounded_centers, expected_depth_tensor,
    init_bins, ordinal_depth, predict_metric_depth,
)
from geovid.numkit import (
    Role, Tensor, TokenSet, concat, matmul, maximum, no_grad, sigmoid, tanh, tsum,
)
from geovid.recon import quat_to_rotation, upsample_matrix, upsample_rows

from _oracles import row_jacobian_vjp


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
    w, x, y, z = (quat[0, i] for i in range(4))
    one = Tensor(1.0)
    entries = [
        one - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y),
        2.0 * (x * y + w * z), one - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x),
        2.0 * (x * z - w * y), 2.0 * (y * z + w * x), one - 2.0 * (x * x + y * y),
    ]
    return concat([e.reshape(1) for e in entries], axis=0).reshape(1, 3, 3)


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
    and -0.0 alternating along every tenth row; a vector's rows are its
    entries, so its zeros alternate +0.0 and -0.0."""
    g = rng.standard_normal(shape)
    g[::5] = 0.0
    g.reshape(len(g), -1)[::10, ::2] = -0.0
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
        q = rng.standard_normal((1, 4))
        q /= np.linalg.norm(q)
        assert_matches_composed(quat_to_rotation, composed_rotation, q, rng)


def test_quat_to_rotation_window_matches_one_node_per_quaternion():
    # a window's [F, 4] quaternions as one node: each rotation and each
    # quaternion's gradient has the bits of its own [1, 4] node
    rng = np.random.default_rng(5)
    q = rng.standard_normal((5, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    seed = rng.standard_normal((5, 3, 3))
    out, grad = forward_and_vjp(quat_to_rotation, q, seed)
    for f in range(5):
        ref_out, ref_grad = forward_and_vjp(quat_to_rotation, q[f:f + 1], seed[f:f + 1])
        _bits_equal(out[f], ref_out[0])
        _bits_equal(grad[f], ref_grad[0])


def test_quat_to_rotation_rejects_wrong_shape():
    for shape in ((2, 2), (3,), (4,), (2, 3, 4)):
        with pytest.raises(ShapeError):
            quat_to_rotation(Tensor(np.ones(shape)))


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
    q = Tensor(np.array([[1.0, 0.0, 0.0, 0.0]]), requires_grad=True)
    for out, leaves in ((bin_logits_to_probs(x), (x,)), (bounded_centers(cfg, x), (x,)),
                        (expected_depth_tensor(x, y), (x, y)), (quat_to_rotation(q), (q,))):
        assert out._parents == leaves


def _random_head(side: int, n_bins: int, seed: int = 5):
    """Patch tokens for a side x side frame and a head with every weight
    random, so the clamp and the center shifts are active."""
    rng = np.random.default_rng(seed)
    c = 16
    p = MetricDepthParams.init(rng, c, init_bins(n_bins, 0.1, 10.0))
    for t in p.tensors().values():
        t.data = rng.standard_normal(t.shape) * 1.5
    tokens = TokenSet(Tensor(rng.standard_normal(((side // 14) ** 2, c))), Role.GEOM)
    return tokens, p


@pytest.mark.parametrize("side", [56, 42])
def test_blocked_no_grad_depth_matches_graph(side):
    # 42x42 has 1764 pixels, not a multiple of ROW_BLOCK: the last block is
    # partial
    assert (side * side % metric_depth.ROW_BLOCK != 0) == (side == 42)
    tokens, p = _random_head(side, 64)
    graph = predict_metric_depth(tokens, (side, side), p)
    assert graph.requires_grad
    with no_grad():
        blocked = predict_metric_depth(tokens, (side, side), p)
    assert not blocked.requires_grad
    np.testing.assert_array_equal(blocked.data, graph.data)


@pytest.mark.parametrize("bad", ["logits", "raw"])
def test_blocked_no_grad_depth_raises_on_non_finite(bad):
    # inputs that require no grad: the node runs in its reused block buffers
    rng = np.random.default_rng(6)
    inputs = {"logits": Tensor(rng.standard_normal((4, 8))),
              "raw": Tensor(rng.standard_normal((4, 8)))}
    inputs[bad].data[2, 3] = np.nan     # a leaf is checked when built: corrupt it after
    with pytest.raises(NumericError, match="matmul"):
        ordinal_depth((2, 2, 28, 28), inputs["logits"], inputs["raw"], init_bins(8, 0.1, 10.0))


def test_blocked_no_grad_depth_allocates_no_pixel_by_bin_array():
    # nor a [U, N] array over the upsample's U distinct rows
    tokens, p = _random_head(56, 64)
    u = upsample_rows(4, 4, 56, 56)[0].shape[0]
    with no_grad():
        predict_metric_depth(tokens, (56, 56), p)   # builds the cached upsample
        tracemalloc.start()
        try:
            predict_metric_depth(tokens, (56, 56), p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < u * 64 * 8, peak


def _traced_window_head(logits_grad: bool, raw_grad: bool):
    """One `ordinal_depth` call on a 4-frame 56x56 window whose logits and raw
    shifts require grad as given: its traced peak, the sizes of the traced
    allocations alive after it (its output held), and the bytes of one
    [U, N] float64 array over the upsample's U distinct rows."""
    rng = np.random.default_rng(3)
    logits, raw = (Tensor(rng.standard_normal((4, 16, 64)), requires_grad=r)
                   for r in (logits_grad, raw_grad))
    u = upsample_rows(4, 4, 56, 56)[0].shape[0]      # builds the cached upsample
    tracemalloc.start()
    try:
        out = ordinal_depth((4, 4, 56, 56), logits, raw, init_bins(64, 0.1, 10.0))
        peak = tracemalloc.get_traced_memory()[1]
        alive = [trace.size for trace in tracemalloc.take_snapshot().traces]
    finally:
        tracemalloc.stop()
    assert out.shape == (4, 56 * 56)
    return peak, alive, u * 64 * 8


def test_no_grad_depth_of_grad_inputs_allocates_no_pixel_by_bin_array():
    # no gradient will be recorded, so no Jacobian rows are built
    with no_grad():
        peak, _, row_bytes = _traced_window_head(True, True)
    assert peak < row_bytes, peak                    # the bound of the test above


@pytest.mark.parametrize("logits_grad", [True, False])
def test_head_keeps_jacobian_rows_of_the_grad_operand_only(logits_grad):
    peak, alive, row_bytes = _traced_window_head(logits_grad, not logits_grad)
    assert alive.count(4 * row_bytes) == 1           # one [F, U, N] array
    assert peak < 2 * 4 * row_bytes, peak


def test_grad_mode_head_peak_is_two_jacobians_and_block_buffers():
    peak, alive, row_bytes = _traced_window_head(True, True)
    assert alive.count(4 * row_bytes) == 2
    assert peak < 3 * 4 * row_bytes, peak


def _upsampled_case(h: int, w: int, grid: tuple[int, int], n: int, seed: int):
    """An upsample matrix, [P, n] patch logits and raw shifts, and an upstream
    gradient [HW] of the depth.

    Wide unsorted logits leave the clamp active; every pixel's first three
    logits and every logit of patch 0 are at least 40, where sigma is
    exactly 1 and those bins' mass exactly 0. The shifts are drawn the same
    way, less 20 where above 20: still >= 20 there, where tanh is exactly 1
    and its slope 0.
    """
    rng = np.random.default_rng(seed)
    up = upsample_matrix(*grid, h, w)

    def draw():
        x = rng.standard_normal((grid[0] * grid[1], n)) * 3.0
        x[:, :3] = 40.0 + np.abs(x[:, :3])
        x[0] = 40.0 + rng.random(n)
        return x
    logits, raw = draw(), draw()
    raw -= 20.0 * (raw > 20.0)
    return up, logits, raw, _upstream(rng, h * w)


def _depth_vjp(head, logits: np.ndarray, raw: np.ndarray, seed_grad: np.ndarray,
               through_logits: bool):
    """head(logits, raw)'s depth and the gradient of the one operand that
    requires grad: the logits, or the raw shifts."""
    lt = Tensor(logits.copy(), requires_grad=through_logits)
    rt = Tensor(raw.copy(), requires_grad=not through_logits)
    out = head(lt, rt)
    tsum(out * Tensor(seed_grad)).backward()
    return out.data, (lt if through_logits else rt).grad


def _pixel_row_nodes(cfg, probs_op, centers_op):
    """The head as pixel-row nodes on upsampled logits and raw shifts [HW, N]."""
    return lambda lg, rw: expected_depth_tensor(probs_op(lg), centers_op(cfg, rw))


def assert_head_matches_nodes(folded, up, nodes, logits, raw, seed_grad, through_logits):
    """The head's (depth, gradient) `folded` against a matmul node per operand
    feeding the pixel-row `nodes`: the depth has their bits. The gradient has
    the bits of the nodes' Jacobian rows (their summed depth's gradient in the
    upsampled operand) summed in the head's order, and lies within 1e-12 of
    the matmul-then-nodes gradient, relative to its largest entry."""
    depth, grad = _depth_vjp(lambda lg, rw: nodes(matmul(Tensor(up), lg), matmul(Tensor(up), rw)),
                             logits, raw, seed_grad, through_logits)
    _bits_equal(folded[0], depth)
    jac = _depth_vjp(nodes, up @ logits, up @ raw, np.ones(len(up)), through_logits)[1]
    _bits_equal(folded[1], row_jacobian_vjp(up, seed_grad, jac))
    assert np.abs(folded[1] - grad).max() <= 1e-12 * np.abs(grad).max()


# 56x56 gives 3136 rows (8 full blocks), 42x42 1764 (a partial last block),
# 10x10 100 (less than one block)
UPSAMPLED = [(56, 56, (4, 4)), (42, 42, (3, 3)), (10, 10, (2, 2))]


@pytest.mark.parametrize("h, w, grid", UPSAMPLED)
def test_folded_ordinal_probs_match_matmul_then_node(h, w, grid):
    # the head's node through its logits, which fold in the upsample
    up, logits, raw, seed_grad = _upsampled_case(h, w, grid, 64, seed=h)
    cfg = init_bins(64, 0.1, 10.0)
    folded = _depth_vjp(lambda lg, rw: ordinal_depth((*grid, h, w), lg, rw, cfg),
                        logits, raw, seed_grad, through_logits=True)
    pixel_logits = up @ logits
    assert (pixel_logits[:, :3] >= 40.0).all()
    assert (bin_logits_to_probs(Tensor(pixel_logits)).data[:, :3] == 0.0).all()
    q = special.expit(pixel_logits[:, :-1])
    assert (np.diff(q, axis=1) > 0).any(), "the clamp must be active somewhere"
    for probs_op in (bin_logits_to_probs, strided_ordinal_probs):
        assert_head_matches_nodes(folded, up, _pixel_row_nodes(cfg, probs_op, bounded_centers),
                                  logits, raw, seed_grad, through_logits=True)


@pytest.mark.parametrize("h, w, grid", UPSAMPLED)
def test_folded_bounded_centers_match_matmul_then_node(h, w, grid):
    # the head's node through its raw shifts, which fold in the upsample
    up, logits, raw, seed_grad = _upsampled_case(h, w, grid, 64, seed=h + 1)
    cfg = init_bins(64, 0.1, 10.0)
    assert (np.tanh(up @ raw) == 1.0).any()
    folded = _depth_vjp(lambda lg, rw: ordinal_depth((*grid, h, w), lg, rw, cfg),
                        logits, raw, seed_grad, through_logits=False)
    for centers_op in (bounded_centers, composed_bounded_centers):
        assert_head_matches_nodes(folded, up, _pixel_row_nodes(cfg, bin_logits_to_probs, centers_op),
                                  logits, raw, seed_grad, through_logits=False)


@pytest.mark.parametrize("through_logits", [True, False])
def test_window_node_matches_per_frame_nodes(through_logits):
    # a window's [F, P, N] inputs in one node: each frame's depth and VJP have
    # the bits of that frame's own [P, N] node, and so has the no_grad depth
    h, w, grid = 42, 42, (3, 3)
    cfg = init_bins(64, 0.1, 10.0)
    frames = [_upsampled_case(h, w, grid, 64, seed=s)[1:] for s in (7, 8, 9)]
    logits, raw, seed_grad = (np.stack(part) for part in zip(*frames))

    def head(lg, rw):
        return ordinal_depth((*grid, h, w), lg, rw, cfg)
    depth, grad = _depth_vjp(head, logits, raw, seed_grad, through_logits)
    assert depth.shape == (3, h * w) and grad.shape == (3, 9, 64)
    with no_grad():
        blocked = head(Tensor(logits), Tensor(raw)).data
    for f, frame in enumerate(frames):
        want_depth, want_grad = _depth_vjp(head, *frame, through_logits)
        for got, want in ((depth[f], want_depth), (grad[f], want_grad),
                          (blocked[f], want_depth)):
            _bits_equal(got, want)


# the head's node on a 2x2 grid's [4, 5] patch outputs and a 28x28 frame,
# with x as its logits or as its raw shifts and zeros as the other operand
FOLDED = [lambda x: ordinal_depth((2, 2, 28, 28), x, Tensor(np.zeros(x.shape)),
                                  init_bins(5, 0.1, 10.0)),
          lambda x: ordinal_depth((2, 2, 28, 28), Tensor(np.zeros(x.shape)), x,
                                  init_bins(5, 0.1, 10.0))]


@pytest.mark.parametrize("op", FOLDED)
def test_folded_nodes_take_the_patch_outputs_as_their_parent(op):
    x = Tensor(np.zeros((4, 5)), requires_grad=True)
    out = op(x)
    assert out.shape == (784,) and out._parents == (x,)


@pytest.mark.parametrize("op", FOLDED)
def test_folded_nodes_reject_mismatched_upsample(op):
    with pytest.raises(ShapeError, match="upsample"):
        op(Tensor(np.zeros((9, 5)), requires_grad=True))


@pytest.mark.parametrize("op", FOLDED)
def test_folded_nodes_raise_on_non_finite_upsampled_rows(op):
    # an input that requires grad: the node keeps its state for the VJPs
    x = Tensor(np.zeros((4, 5)), requires_grad=True)
    x.data[3, 2] = np.nan                # a leaf is checked when built: corrupt it after
    with pytest.raises(NumericError, match="matmul"):
        op(x)
