import numpy as np
import pytest
from scipy.special import expit

from geovid import metric_depth
from geovid.errors import ParameterError, ShapeError
from geovid.metric_depth import (
    BinConfig, MetricDepthParams, bin_logits_to_probs, bounded_centers,
    expected_depth_tensor, init_bins, ordinal_depth, predict_metric_depth,
)
from geovid.numkit import MlpParams, Role, Tensor, TokenSet, grad_check, mlp, no_grad, tsum
from geovid.recon import upsample_matrix, upsample_rows

from _oracles import row_jacobian_vjp


class TestInitBins:
    def test_single_bin_rejected(self):
        with pytest.raises(ParameterError):
            init_bins(1, 0.1, 10.0)

    def test_invalid_range_rejected(self):
        with pytest.raises(ParameterError):
            init_bins(4, -1.0, 10.0)
        with pytest.raises(ParameterError):
            init_bins(4, 5.0, 5.0)

    @pytest.mark.parametrize("d_min, d_max", [(float("nan"), 10.0), (0.1, float("nan")),
                                              (0.1, float("inf")), (float("inf"), float("inf"))])
    def test_non_finite_range_rejected(self, d_min, d_max):
        with pytest.raises(ParameterError, match="d_min < d_max < inf"):
            init_bins(4, d_min, d_max)

    def test_two_bin_log_uniform_formula(self):
        cfg = init_bins(2, 1.0, float(np.exp(4.0)))
        np.testing.assert_allclose(cfg.centers, [np.e, np.exp(3.0)], rtol=1e-12)

    def test_centers_strictly_increasing(self):
        for n, lo, hi in [(2, 0.1, 10), (64, 0.1, 10), (7, 0.5, 2)]:
            cfg = init_bins(n, lo, hi)
            assert np.all(np.diff(cfg.centers) > 0)
            assert cfg.centers[0] >= lo and cfg.centers[-1] <= hi

    def test_max_shift_bound(self):
        with pytest.raises(ParameterError):
            init_bins(4, 0.1, 10.0, max_shift=0.5)


class TestBinProbs:
    def test_zero_logits_valid_simplex(self):
        probs = bin_logits_to_probs(Tensor(np.zeros((5, 8))))
        assert probs.data.min() >= 0
        np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-10)

    def test_peaked_logits_isolate_bin(self):
        # boundaries k < j high (+20), k >= j low (-20) -> mass lands on bin j
        n = 8
        for j in (0, 3, 7):
            logits = np.full((1, n), -20.0)
            logits[0, :j] = 20.0
            probs = bin_logits_to_probs(Tensor(logits)).data[0]
            assert probs[j] > 0.99

    def test_peaked_matches_sigmoid_arithmetic(self):
        n = 5
        logits = np.array([[20.0, 20.0, -20.0, -20.0, 0.0]])
        q = np.concatenate([[1.0], expit(logits[0, :n - 1]), [0.0]])
        raw = q[:-1] - q[1:]
        expected = np.maximum(raw, 0.0)
        expected = expected / expected.sum()
        got = bin_logits_to_probs(Tensor(logits)).data[0]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_random_logits_sum_to_one(self):
        rng = np.random.default_rng(0)
        probs = bin_logits_to_probs(Tensor(rng.standard_normal((200, 16)) * 4))
        np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-10)
        assert probs.data.min() >= 0

    def test_gradient(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 6)))
        assert grad_check(lambda t: tsum(bin_logits_to_probs(t) * w), x) < 1e-4


class TestRefineCenters:
    def test_zero_params_reproduce_base_bitexact(self):
        cfg = init_bins(8, 0.1, 10.0)
        r = MlpParams(w1=Tensor(np.zeros((4, 4))), b1=Tensor(np.zeros(4)),
                      w2=Tensor(np.zeros((4, 8))), b2=Tensor(np.zeros(8)))
        feats = Tensor(np.random.default_rng(0).standard_normal((6, 4)))
        refined = bounded_centers(cfg, mlp(feats, r))
        for row in refined.data:
            assert np.array_equal(row, cfg.centers)

    def test_strictly_increasing_for_any_features(self):
        rng = np.random.default_rng(1)
        cfg = init_bins(16, 0.1, 10.0, max_shift=0.49)
        r = MlpParams.init(rng, 4, 16)
        for t in r.tensors("r").values():
            t.data = rng.standard_normal(t.data.shape) * 10  # saturate tanh
        refined = bounded_centers(cfg, mlp(Tensor(rng.standard_normal((50, 4)) * 5), r))
        assert np.all(np.diff(refined.data, axis=1) > 0)

    def test_gradient_wrt_features(self):
        rng = np.random.default_rng(2)
        cfg = init_bins(6, 0.1, 10.0)
        r = MlpParams.init(rng, 4, 6)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 6)))
        assert grad_check(lambda t: tsum(bounded_centers(cfg, mlp(t, r)) * w), x) < 1e-4


class TestExpectedDepth:
    def _expect(self, probs, centers):
        return expected_depth_tensor(Tensor(np.asarray(probs, dtype=float)),
                                     Tensor(np.asarray(centers, dtype=float)))

    def test_uniform_probabilities_mean_center(self):
        d = self._expect([[0.25] * 4], [[1.0, 2.0, 3.0, 4.0]])
        assert d.item() == pytest.approx(2.5)

    def test_one_hot_selects_center(self):
        d = self._expect([[0.0, 0.0, 1.0, 0.0]], [[1.0, 2.0, 3.0, 4.0]])
        assert d.item() == pytest.approx(3.0)

    def test_shifted_centers_shift_expectation(self):
        d = self._expect([[0.25] * 4], [[1.1, 2.1, 3.1, 4.1]])
        assert d.item() == pytest.approx(2.6)

    def test_expectation_within_center_range(self):
        rng = np.random.default_rng(3)
        n = 8
        logits = rng.standard_normal((500, n)) * 6
        probs = bin_logits_to_probs(Tensor(logits))
        centers = np.sort(rng.uniform(0.1, 10.0, size=(500, n)), axis=1)
        centers += np.arange(n) * 1e-6  # enforce strict increase after sort ties
        d = expected_depth_tensor(probs, Tensor(centers)).data
        lo = centers.min(axis=1) * (1 - 1e-12)
        hi = centers.max(axis=1) * (1 + 1e-12)
        assert np.all(d >= lo) and np.all(d <= hi)

    def test_reshapes_to_image_grid(self):
        d = self._expect([[0.5, 0.5]], [[1.0, 3.0]]).reshape(1, 1)
        np.testing.assert_allclose(d.data, [[2.0]])


def test_monotone_mass_shift_under_logit_offset():
    # decreasing boundary logits keep the telescoped masses positive, so the
    # clamp never binds and the expectation is provably monotone in the offset
    rng = np.random.default_rng(4)
    n = 12
    base = np.sort(rng.standard_normal(n) * 2)[::-1].copy()
    cfg = init_bins(n, 0.1, 10.0)
    centers = Tensor(np.tile(cfg.centers, (1, 1)))
    values = []
    for delta in np.linspace(-6, 6, 41):
        probs = bin_logits_to_probs(Tensor((base + delta)[None, :]))
        values.append(expected_depth_tensor(probs, centers).item())
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-12)
    assert values[-1] > values[0]  # the sweep genuinely moves mass deeper


def test_full_head_gradient():
    rng = np.random.default_rng(5)
    cfg = init_bins(6, 0.1, 10.0)
    p = MetricDepthParams.init(rng, 8, cfg, patch_size=14)
    x = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
    w = Tensor(rng.standard_normal(28 * 28))

    def f(t):
        d = predict_metric_depth(TokenSet(t, Role.GEOM), (28, 28), p)
        return tsum(d * w)

    assert grad_check(f, x) < 1e-4


def test_expected_depth_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        expected_depth_tensor(Tensor(np.ones((4, 3))), Tensor(np.ones((4, 2))))


# ----------------------------------------------------------------------
# the head on unique upsample rows against the head on every pixel row
# ----------------------------------------------------------------------

def _full_rows(up: np.ndarray, x: np.ndarray) -> np.ndarray:
    """up @ x for every pixel row, ROW_BLOCK rows per product."""
    return np.concatenate([up[lo:hi] @ x for lo, hi in metric_depth._row_blocks(up.shape[0])])


def full_row_upsample(x: Tensor, up: np.ndarray) -> Tensor:
    """`_full_rows` as a node, its VJP `up.T @ g`."""
    return Tensor._from_op(_full_rows(up, x.data), "upsample", (x,), (lambda g: up.T @ g,))


def full_row_probs(rows: Tensor) -> Tensor:
    """The ordinal probs node on pixel rows [HW, N], with the VJP's float
    operations in the node's order."""
    q = expit(rows.data)
    q[:, -1] = 0.0
    mass = np.empty_like(q)
    mass[:, 0] = 1.0 - q[:, 0]
    mass[:, 1:] = q[:, :-1] - q[:, 1:]
    clamped = np.maximum(mass, 0.0)
    total = clamped.sum(axis=1, keepdims=True)

    def vjp(g):
        g_mass = g / total + (g * clamped / -(total * total)).sum(axis=1, keepdims=True)
        g_mass *= clamped > 0.0
        g_rows, flat = np.empty_like(g_mass), g_mass.reshape(-1)
        g_rows.reshape(-1)[:-1] = flat[1:] - flat[:-1]
        g_rows[:, -1] = 0.0
        g_rows *= q
        g_rows *= 1.0 - q
        return g_rows

    return Tensor._from_op(clamped / total, "ordinal_probs", (rows,), (vjp,))


def full_row_centers(cfg: BinConfig, rows: Tensor) -> Tensor:
    """The bounded-centers node on pixel rows [HW, N]."""
    t, budget = np.tanh(rows.data), cfg.shift_budget()
    return Tensor._from_op(budget * t + cfg.centers, "bounded_centers", (rows,),
                           (lambda g: g * budget * (1.0 - t * t),))


# (h, w, patch): square 56x56 (1936 of 3136 rows distinct), non-square 42x70,
# and 2 px patches, where no two pixels share a row
ROW_MAP_GRIDS = [(56, 56, 14), (42, 70, 14), (12, 10, 2)]


@pytest.mark.parametrize("h, w, ps", ROW_MAP_GRIDS)
def test_row_map_is_cached_read_only_and_rebuilds_the_upsample(h, w, ps):
    grid = (h // ps, w // ps, h, w)
    uniq, inv = upsample_rows(*grid)
    assert upsample_rows(*grid)[0] is uniq
    assert not uniq.flags.writeable and not inv.flags.writeable
    up = upsample_matrix(*grid)
    assert uniq[inv].tobytes() == up.tobytes()
    assert len(np.unique(up, axis=0)) == len(uniq)
    first = np.unique(inv, return_index=True)[1]
    assert (np.diff(first) > 0).all()                  # in order of first appearance
    if (h, w) == (56, 56):
        assert uniq.shape == (1936, 16)
    if ps == 2:
        np.testing.assert_array_equal(inv, np.arange(h * w))


@pytest.mark.parametrize("h, w, ps", ROW_MAP_GRIDS)
def test_unique_row_head_matches_full_row_head_bit_for_bit(h, w, ps):
    grid = (h // ps, w // ps, h, w)
    up, p_rows = upsample_matrix(*grid), grid[0] * grid[1]
    rng = np.random.default_rng(h + w)
    cfg = init_bins(64, 0.1, 10.0)
    logits = rng.standard_normal((p_rows, 64)) * 3.0       # the clamp is active
    logits[:, :3] = 40.0 + np.abs(logits[:, :3])            # mass exactly 0
    raw = rng.standard_normal((p_rows, 64)) * 2.0
    raw[0] = 25.0                                           # tanh exactly 1
    g = rng.standard_normal(h * w)
    g[::5] = 0.0
    g[::10] = -0.0

    def run(head, lg, rw, g):
        lt, rt = Tensor(lg.copy(), requires_grad=True), Tensor(rw.copy(), requires_grad=True)
        depth = head(lt, rt)
        tsum(depth * Tensor(g)).backward()
        return depth.data, lt.grad, rt.grad

    def nodes(lt, rt):
        return expected_depth_tensor(full_row_probs(lt), full_row_centers(cfg, rt))
    got = run(lambda lt, rt: ordinal_depth(grid, lt, rt, cfg), logits, raw, g)
    want = run(lambda lt, rt: nodes(full_row_upsample(lt, up), full_row_upsample(rt, up)),
               logits, raw, g)
    assert got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes()
    # the gradients: the pixel rows' Jacobian rows, summed in the head's order
    jac = run(nodes, _full_rows(up, logits), _full_rows(up, raw), np.ones(h * w))
    for a, b, j in zip(got[1:], want[1:], jac[1:]):
        assert a.shape == b.shape and a.tobytes() == row_jacobian_vjp(up, g, j).tobytes()
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
    with no_grad():
        no_grad_depth = ordinal_depth(grid, Tensor(logits), Tensor(raw), cfg)
    assert no_grad_depth.data.tobytes() == want[0].tobytes()


def test_shift_budget_keeps_an_edge_center_positive():
    # n_bins 2 on 0.1-10 m: centers 0.316 and 3.16, and max_shift times the
    # one gap (0.85) exceeded the lower center, so a trained head could give a
    # negative depth. The budget is capped at half the center.
    bins = init_bins(2, 0.1, 10.0)
    assert np.all(bins.shift_budget() <= 0.5 * bins.centers)
    raw = Tensor(np.array([[-1e3, -1e3], [1e3, 1e3], [-1e3, 1e3], [1e3, -1e3]]))
    centers = bounded_centers(bins, raw).data
    assert np.all(centers > 0) and np.all(np.diff(centers, axis=1) > 0)
    logits = Tensor(np.full((4, 2), -50.0))   # all mass on the lower bin
    depth = ordinal_depth((2, 2, 28, 28), logits, raw, bins)
    assert np.all(depth.data > 0)


def test_shift_budget_cap_leaves_the_default_bins_alone():
    from geovid.config import RunConfig
    cfg = RunConfig()
    bins = init_bins(cfg.n_bins, cfg.d_min, cfg.d_max)
    assert np.array_equal(bins.shift_budget(), bins.max_shift * bins.local_widths())
