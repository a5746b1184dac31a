import numpy as np
import pytest

from geovid.errors import DegenerateInputError, DomainError, ParameterError, ShapeError
from geovid.geometry import (
    GROUND_TRUTH, METRIC, CameraModel, DepthMap, look_at_rotation, rotation_to_quaternion,
)
from geovid.losses import (
    LossReport, distill_loss, geo_feat_loss, lang_feat_loss, metric_depth_loss,
    recon_task_loss, structural_consistency, vl_proxy_loss,
)
from geovid.numkit import MlpParams, Role, Tensor, TokenSet, grad_check
from geovid.patch3d import Patch3DTokens
from geovid.recon import CameraPrediction

from _oracles import frame_camera, frame_md_loss, frame_recon_loss, frame_vl_loss


def _as_prediction(*cams: CameraModel) -> CameraPrediction:
    """A constant CameraPrediction with the cameras' poses and intrinsics, one
    row per camera; the cameras share one image size."""
    return CameraPrediction(quat=Tensor(np.stack([rotation_to_quaternion(c.rotation)
                                                  for c in cams])),
                            translation=Tensor(np.stack([c.translation for c in cams])),
                            fx=Tensor([c.fx for c in cams]), fy=Tensor([c.fy for c in cams]),
                            cx=cams[0].cx, cy=cams[0].cy)


def _ts(arr, role=Role.GEOM):
    return TokenSet(Tensor(np.asarray(arr, dtype=float)), role)


class TestGeoFeatLoss:
    def test_identical_zero(self):
        t = np.random.default_rng(0).standard_normal((5, 4))
        assert geo_feat_loss(_ts(t), _ts(t.copy())).item() == pytest.approx(0.0, abs=1e-15)

    def test_scale_invariance(self):
        t = np.random.default_rng(1).standard_normal((5, 4))
        assert geo_feat_loss(_ts(2.0 * t), _ts(t)).item() == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_hand_case(self):
        # (1,0) vs (0,1): squared distance of unit vectors = 2
        loss = geo_feat_loss(_ts([[1.0, 0.0]]), _ts([[0.0, 1.0]]))
        assert loss.item() == pytest.approx(2.0, abs=1e-14)

    def test_range_bound(self):
        rng = np.random.default_rng(2)
        loss = geo_feat_loss(_ts(rng.standard_normal((30, 6))),
                             _ts(rng.standard_normal((30, 6))))
        assert 0.0 <= loss.item() <= 4.0

    def test_zero_norm_guard(self):
        with pytest.raises(DegenerateInputError):
            geo_feat_loss(_ts([[0.0, 0.0]]), _ts([[1.0, 0.0]]))


class TestLangFeatLoss:
    def test_same_direction_zero(self):
        assert lang_feat_loss(_ts([[2.0, 0.0]]), _ts([[5.0, 0.0]])).item() == \
            pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_one(self):
        assert lang_feat_loss(_ts([[1.0, 0.0]]), _ts([[0.0, 3.0]])).item() == \
            pytest.approx(1.0, abs=1e-14)

    def test_opposite_two(self):
        assert lang_feat_loss(_ts([[1.0, 1.0]]), _ts([[-2.0, -2.0]])).item() == \
            pytest.approx(2.0, abs=1e-14)


class TestStructuralConsistency:
    def test_equal_tokens_zero(self):
        rng = np.random.default_rng(3)
        g, l = rng.standard_normal((4, 5)), rng.standard_normal((4, 5))
        loss = structural_consistency(_ts(g), _ts(l, Role.LANG),
                                      _ts(g.copy()), _ts(l.copy(), Role.LANG))
        assert loss.item() == pytest.approx(0.0, abs=1e-15)

    def test_two_by_two_hand_case(self):
        # Z_stu = I, Z_tea rows both (1, 0): ||I - ones||_F^2 / 4 = 0.5
        loss = structural_consistency(_ts([[1.0, 0.0]]), _ts([[0.0, 1.0]], Role.LANG),
                                      _ts([[1.0, 0.0]]), _ts([[1.0, 0.0]], Role.LANG))
        assert loss.item() == pytest.approx(0.5, abs=1e-14)

    def test_global_rotation_invariance(self):
        rng = np.random.default_rng(4)
        g, l = rng.standard_normal((6, 8)), rng.standard_normal((5, 8))
        tg, tl = rng.standard_normal((6, 8)), rng.standard_normal((5, 8))
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        base = structural_consistency(_ts(g), _ts(l, Role.LANG), _ts(tg), _ts(tl, Role.LANG))
        rot = structural_consistency(_ts(g @ q), _ts(l @ q, Role.LANG),
                                     _ts(tg), _ts(tl, Role.LANG))
        assert abs(base.item() - rot.item()) < 1e-9

    def test_token_count_mismatch(self):
        from geovid.errors import ShapeError
        with pytest.raises(ShapeError):
            structural_consistency(_ts(np.ones((3, 4))), _ts(np.ones((3, 4)), Role.LANG),
                                   _ts(np.ones((2, 4))), _ts(np.ones((3, 4)), Role.LANG))


class TestDistillLoss:
    def test_oracle_injection_zero(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((6, 8))
        l = rng.standard_normal((6, 8))
        res = distill_loss(_ts(g), _ts(l, Role.LANG), _ts(g.copy()),
                           _ts(l.copy(), Role.LANG), lam=0.5)
        assert res.total.item() == pytest.approx(0.0, abs=1e-14)

    def test_lambda_zero_drops_sc(self):
        rng = np.random.default_rng(6)
        args = (_ts(rng.standard_normal((4, 6))), _ts(rng.standard_normal((4, 6)), Role.LANG),
                _ts(rng.standard_normal((4, 6))), _ts(rng.standard_normal((4, 6)), Role.LANG))
        res = distill_loss(*args, lam=0.0)
        assert res.total.item() == pytest.approx(res.geo.item() + res.lang.item(), abs=1e-15)

    def test_component_arithmetic(self):
        # components (0.2, 0.3, 0.4) with lambda 0.5 -> 0.7
        assert 0.2 + 0.3 + 0.5 * 0.4 == pytest.approx(0.7)
        rng = np.random.default_rng(7)
        args = (_ts(rng.standard_normal((4, 6))), _ts(rng.standard_normal((4, 6)), Role.LANG),
                _ts(rng.standard_normal((4, 6))), _ts(rng.standard_normal((4, 6)), Role.LANG))
        res = distill_loss(*args, lam=0.5)
        assert res.total.item() == pytest.approx(
            (res.geo.item() + res.lang.item()) + 0.5 * res.sc.item(), abs=1e-12)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ParameterError):
            distill_loss(_ts(np.ones((2, 2))), _ts(np.ones((2, 2)), Role.LANG),
                         _ts(np.ones((2, 2))), _ts(np.ones((2, 2)), Role.LANG), lam=-1.0)


def md_scalar_oracle(pred, gt, alpha, eps=0.0):
    """Plain-Python reference for the robust log-depth loss."""
    e = [np.log(p + eps) - np.log(g + eps) for p, g in zip(pred, gt)]
    b = sum(e) / len(e)
    local = sum((ei - b) ** 2 / (1.0 + alpha * abs(ei - b)) for ei in e) / len(e)
    return b * b + local


def _gts(*values, mask=None):
    """Ground-truth depth maps, one per frame of a window."""
    return [DepthMap(np.asarray(v, dtype=float), scale_kind=GROUND_TRUTH, valid_mask=mask)
            for v in values]


def _assert_window_matches_frames(window, per_frame, leaves):
    """`window()` gives a window loss's per-frame terms [F]; `per_frame()` the
    same F terms from each frame's own graph (the single-frame losses of
    _oracles). The terms, and the gradient at every leaf of their sum from
    frame 0 up, must be equal bit for bit."""
    runs = []
    for make in (window, per_frame):
        for t in leaves:
            t.zero_grad()
        terms = make()
        n = terms.shape[0] if isinstance(terms, Tensor) else len(terms)
        total = None
        for k in range(n):
            total = terms[k] if total is None else total + terms[k]
        total.backward()
        runs.append([np.array([terms[k].item() for k in range(n)])] + [t.grad for t in leaves])
    for got, want in zip(*runs):
        np.testing.assert_array_equal(got, want)


class TestMetricDepthLoss:
    # each case is a window of one frame: pred [1, H, W], one ground-truth map
    def test_perfect_prediction_zero(self):
        d = np.random.default_rng(8).uniform(0.5, 5.0, (4, 4))
        loss = metric_depth_loss(Tensor(d[None]), _gts(d.copy()))
        assert loss.shape == (1,)
        assert loss.item() == 0.0

    def test_uniform_ratio_e_gives_one(self):
        d = np.random.default_rng(9).uniform(0.5, 5.0, (4, 4))
        loss = metric_depth_loss(Tensor(d[None] * np.e), _gts(d), alpha=1.0, eps=0.0)
        assert loss.item() == pytest.approx(1.0, abs=1e-12)

    def test_two_pixel_alpha_one_oracle(self):
        # ratios {1, 4}: e = {0, ln4}, b = ln2, L = (ln2)^2 + (ln2)^2/(1+ln2)
        gt = np.array([[1.0, 1.0]])
        pred = np.array([[[1.0, 4.0]]])
        expected = md_scalar_oracle([1.0, 4.0], [1.0, 1.0], alpha=1.0)
        ln2 = np.log(2.0)
        assert expected == pytest.approx(ln2**2 + ln2**2 / (1 + ln2), abs=1e-15)
        loss = metric_depth_loss(Tensor(pred), _gts(gt), alpha=1.0, eps=0.0)
        assert loss.item() == pytest.approx(expected, abs=1e-9)
        assert loss.item() == pytest.approx(0.764, abs=5e-4)

    def test_residual_term_scale_invariance(self):
        # scaling pred by c changes the loss by exactly (b + ln c)^2 - b^2
        rng = np.random.default_rng(10)
        gt = rng.uniform(0.5, 5.0, (5, 5))
        pred = gt * rng.uniform(0.7, 1.4, (5, 5))
        c = 1.9
        base = metric_depth_loss(Tensor(pred[None]), _gts(gt), alpha=1.0, eps=0.0).item()
        scaled = metric_depth_loss(Tensor(pred[None] * c), _gts(gt), alpha=1.0,
                                   eps=0.0).item()
        b = np.mean(np.log(pred) - np.log(gt))
        assert scaled - base == pytest.approx((b + np.log(c)) ** 2 - b ** 2, abs=1e-12)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(11)
        gt = rng.uniform(0.5, 5.0, 12)
        pred = rng.uniform(0.5, 5.0, 12)
        loss = metric_depth_loss(Tensor(pred.reshape(1, 3, 4)), _gts(gt.reshape(3, 4)),
                                 alpha=0.7, eps=1e-6)
        assert loss.item() == pytest.approx(
            md_scalar_oracle(pred, gt, alpha=0.7, eps=1e-6), abs=1e-12)

    def test_mask_respected(self):
        gt = _gts(np.ones((2, 2)), mask=np.array([[True, False], [False, False]]))
        loss = metric_depth_loss(Tensor(np.full((1, 2, 2), np.e)), gt, eps=0.0)
        assert loss.item() == pytest.approx(1.0, abs=1e-12)

    def test_no_valid_pixels(self):
        gt = _gts(np.ones((2, 2)), mask=np.zeros((2, 2), dtype=bool))
        with pytest.raises(DegenerateInputError):
            metric_depth_loss(Tensor(np.ones((1, 2, 2))), gt)

    def test_invalid_alpha(self):
        with pytest.raises(ParameterError):
            metric_depth_loss(Tensor(np.ones((1, 2, 2))), _gts(np.ones((2, 2))), alpha=0.0)

    def test_gradient(self):
        rng = np.random.default_rng(12)
        gt = rng.uniform(0.5, 5.0, (3, 3))
        x = Tensor(rng.uniform(0.5, 5.0, (1, 3, 3)), requires_grad=True)
        assert grad_check(lambda t: metric_depth_loss(t, _gts(gt), alpha=1.0), x) < 1e-4

    def test_window_gives_each_frame_its_own_loss(self):
        # a flat [F, HW] prediction, as the metric head gives it, against the
        # scalar oracle per frame, and bit for bit against per-frame graphs
        rng = np.random.default_rng(13)
        gts = rng.uniform(0.5, 5.0, (3, 3, 4))
        x = Tensor(rng.uniform(0.5, 5.0, (3, 12)), requires_grad=True)
        loss = metric_depth_loss(x, _gts(*gts), alpha=0.7)
        for f in range(3):
            assert loss.data[f] == pytest.approx(
                md_scalar_oracle(x.data[f], gts[f].reshape(-1), alpha=0.7, eps=1e-6),
                abs=1e-12)
        gt = _gts(*gts)
        _assert_window_matches_frames(
            lambda: metric_depth_loss(x, gt, alpha=0.7),
            lambda: [frame_md_loss(x[f].reshape(3, 4), gt[f], alpha=0.7) for f in range(3)],
            [x])

    def test_window_masks_must_agree(self):
        mask = np.array([[True, False], [True, True]])
        gts = _gts(np.ones((2, 2)), mask=mask) + _gts(np.ones((2, 2)))
        with pytest.raises(ShapeError, match="share one valid mask"):
            metric_depth_loss(Tensor(np.ones((2, 2, 2))), gts)
        # a window whose shared mask is empty stays a degenerate input
        empty = _gts(np.ones((2, 2)), np.ones((2, 2)), mask=np.zeros((2, 2), dtype=bool))
        with pytest.raises(DegenerateInputError):
            metric_depth_loss(Tensor(np.ones((2, 2, 2))), empty)

    def test_frame_count_must_match(self):
        for shape in ((2, 2, 2), (1, 2, 3), (4,)):
            with pytest.raises(ShapeError):
                metric_depth_loss(Tensor(np.ones(shape)), _gts(np.ones((2, 2))))


def _gt_cam(seed=0, kind=METRIC):
    rng = np.random.default_rng(seed)
    pos = np.array([2.0, 1.5, 2.0])
    r = look_at_rotation(pos, np.array([0.5, 0.5, 0.5]))
    return CameraModel(fx=30.0, fy=30.0, cx=13.5, cy=13.5, rotation=r,
                       translation=-r @ pos, scale_kind=kind)


class TestReconTaskLoss:
    # each case is a window of one frame unless it says otherwise
    def test_perfect_prediction_zero(self):
        cam = _gt_cam()
        depth = DepthMap(np.random.default_rng(1).uniform(1, 4, (28, 28)),
                         scale_kind=METRIC)
        res = recon_task_loss(_as_prediction(cam), [cam],
                              Tensor(depth.values[None]), [depth])
        assert res.total.shape == (1,)
        assert res.total.item() == pytest.approx(0.0, abs=1e-12)

    def test_half_turn_rotation_pi_squared(self):
        depth = DepthMap(np.full((4, 4), 2.0), scale_kind=METRIC)
        gt = CameraModel(fx=10.0, fy=10.0, cx=1.5, cy=1.5, rotation=np.eye(3),
                         translation=np.zeros(3), scale_kind=METRIC)
        flip = np.diag([1.0, -1.0, -1.0])  # 180 degrees about x
        pred_cam = CameraModel(fx=10.0, fy=10.0, cx=1.5, cy=1.5, rotation=flip,
                               translation=np.zeros(3), scale_kind=METRIC)
        res = recon_task_loss(_as_prediction(pred_cam), [gt],
                              Tensor(depth.values[None]), [depth])
        assert res.pose.item() == pytest.approx(np.pi ** 2, abs=1e-10)

    def test_matches_bruteforce_recomputation(self):
        rng = np.random.default_rng(2)
        gt_cam = _gt_cam(3)
        gt_depth = DepthMap(rng.uniform(1, 4, (4, 4)), scale_kind=METRIC)
        pred_depth = gt_depth.values * rng.uniform(0.8, 1.2, (4, 4))
        pred_cam_model = _gt_cam(5)
        pred = _as_prediction(pred_cam_model)
        res = recon_task_loss(pred, [gt_cam], Tensor(pred_depth[None]), [gt_depth])

        # independent scalar recomputation
        rel = pred_cam_model.rotation @ gt_cam.rotation.T
        ang = np.arccos(np.clip((np.trace(rel) - 1) / 2, -1, 1))
        pose = ang ** 2 + np.sum((pred_cam_model.translation - gt_cam.translation) ** 2)
        depth_l1 = np.mean(np.abs(pred_depth - gt_depth.values))
        pm = []
        for j in range(4):
            for i in range(4):
                ray = np.array([(i - gt_cam.cx) / gt_cam.fx,
                                (j - gt_cam.cy) / gt_cam.fy, 1.0])
                pp = pred_cam_model.rotation.T @ (ray * pred_depth[j, i]
                                                  - pred_cam_model.translation)
                gp = gt_cam.rotation.T @ (ray * gt_depth.values[j, i]
                                          - gt_cam.translation)
                pm.extend(np.abs(pp - gp))
        expected = pose + depth_l1 + np.mean(pm)
        assert res.total.item() == pytest.approx(expected, abs=1e-9)

    def test_gradient_wrt_depth(self):
        rng = np.random.default_rng(6)
        cam = _gt_cam(7)
        gt = DepthMap(rng.uniform(1, 4, (4, 4)), scale_kind=METRIC)
        x = Tensor(rng.uniform(1, 4, (1, 4, 4)), requires_grad=True)
        pred = _as_prediction(_gt_cam(8))

        def f(t):
            return recon_task_loss(pred, [cam], t, [gt]).total

        assert grad_check(f, x) < 1e-4

    def test_window_is_bit_identical_to_per_frame_graphs(self):
        # three frames with their own cameras; the window's fx also serves as
        # its fy, as the camera head gives it, and each camera tensor is a
        # leaf that the per-frame graphs read a row of
        rng = np.random.default_rng(9)
        gt_cams = [_gt_cam(s) for s in (3, 4, 5)]
        gt = [DepthMap(rng.uniform(1, 4, (4, 4)), scale_kind=METRIC) for _ in range(3)]
        depth = Tensor(rng.uniform(1, 4, (3, 4, 4)), requires_grad=True)
        quats, fxs, ts = [], [], []
        for s in (8, 9, 10):
            c = _gt_cam(s)
            q = rotation_to_quaternion(c.rotation) + rng.normal(0.0, 0.1, 4)
            quats.append(q / np.linalg.norm(q))
            fxs.append(c.fx * rng.uniform(0.8, 1.2))
            ts.append(c.translation + rng.normal(0.0, 0.1, 3))
        fx = Tensor(fxs, requires_grad=True)
        cams = CameraPrediction(quat=Tensor(np.stack(quats), requires_grad=True),
                                translation=Tensor(np.stack(ts), requires_grad=True),
                                fx=fx, fy=fx, cx=c.cx, cy=c.cy)
        leaves = [depth, cams.quat, cams.translation, fx]
        for k, term in enumerate(("pose", "depth", "pointmap", "total")):
            _assert_window_matches_frames(
                lambda: getattr(recon_task_loss(cams, gt_cams, depth, gt), term),
                lambda: [frame_recon_loss(frame_camera(cams, f), gt_cams[f], depth[f], gt[f])[k]
                         for f in range(3)],
                leaves)

    def test_window_masks_must_agree(self):
        cam = _gt_cam()
        pred = _as_prediction(cam, cam)
        mask = np.ones((4, 4), dtype=bool)
        mask[1, 2] = False
        gts = [DepthMap(np.full((4, 4), 2.0), scale_kind=METRIC, valid_mask=m)
               for m in (mask, np.ones((4, 4), dtype=bool))]
        with pytest.raises(ShapeError, match="share one valid mask"):
            recon_task_loss(pred, [cam, cam], Tensor(np.full((2, 4, 4), 2.0)), gts)
        empty = [DepthMap(np.full((4, 4), 2.0), scale_kind=METRIC,
                          valid_mask=np.zeros((4, 4), dtype=bool))] * 2
        with pytest.raises(DegenerateInputError):
            recon_task_loss(pred, [cam, cam], Tensor(np.full((2, 4, 4), 2.0)), empty)


class TestVlProxyLoss:
    def _t3d(self, n=6, c=8, seed=0):
        rng = np.random.default_rng(seed)
        return Patch3DTokens(tokens=Tensor(rng.standard_normal((1, n, c))),
                             anchor_points=rng.standard_normal((1, n, 3)))

    def test_uniform_logits_log_nclasses(self):
        head = MlpParams(w1=Tensor(np.zeros((8, 4))), b1=Tensor(np.zeros(4)),
                         w2=Tensor(np.zeros((4, 4))), b2=Tensor(np.zeros(4)))
        t3d = self._t3d()
        labels = np.array([[0, 1, 2, 3, 0, 1]])
        loss = vl_proxy_loss(t3d, labels, head)
        assert loss.shape == (1,)
        assert loss.item() == pytest.approx(np.log(4.0), abs=1e-12)

    def test_label_out_of_range(self):
        head = MlpParams.init(np.random.default_rng(0), 8, 4)
        with pytest.raises(DomainError):
            vl_proxy_loss(self._t3d(), np.array([[0, 1, 2, 4, 0, 1]]), head)

    def test_label_shape_must_match_tokens(self):
        head = MlpParams.init(np.random.default_rng(0), 8, 4)
        for labels in (np.zeros(6), np.zeros((2, 3)), np.zeros((1, 5))):
            with pytest.raises(ShapeError):
                vl_proxy_loss(self._t3d(), labels, head)

    def test_trainable_to_separation(self):
        # two clearly separable token clusters; a tiny head drives CE < 0.1
        from geovid.numkit import AdamW
        rng = np.random.default_rng(1)
        tokens = np.concatenate([rng.standard_normal((8, 8)) + 4.0,
                                 rng.standard_normal((8, 8)) - 4.0])
        labels = np.array([[0] * 8 + [1] * 8])
        t3d = Patch3DTokens(tokens=Tensor(tokens[None]), anchor_points=np.zeros((1, 16, 3)))
        head = MlpParams.init(rng, 8, 2, hidden=8)
        opt = AdamW(head.tensors("h"), lr=0.05, weight_decay=0.0)
        for _ in range(150):
            loss = vl_proxy_loss(t3d, labels, head)
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert vl_proxy_loss(t3d, labels, head).item() < 0.1

    def test_gradient(self):
        rng = np.random.default_rng(2)
        head = MlpParams.init(rng, 8, 3)
        labels = np.array([[0, 1, 2, 1]])
        x = Tensor(rng.standard_normal((1, 4, 8)), requires_grad=True)

        def f(t):
            t3d = Patch3DTokens(tokens=t, anchor_points=np.zeros((1, 4, 3)))
            return vl_proxy_loss(t3d, labels, head)

        assert grad_check(f, x) < 1e-4

    def test_window_is_bit_identical_to_per_frame_graphs(self):
        rng = np.random.default_rng(3)
        head = MlpParams.init(rng, 8, 5)
        for t in head.tensors("h").values():
            t.requires_grad = True
        x = Tensor(rng.standard_normal((3, 6, 8)), requires_grad=True)
        labels = rng.integers(0, 5, (3, 6))

        t3d = Patch3DTokens(tokens=x, anchor_points=np.zeros((3, 6, 3)))
        _assert_window_matches_frames(
            lambda: vl_proxy_loss(t3d, labels, head),
            lambda: [frame_vl_loss(x[f], labels[f], head) for f in range(3)],
            [x, *head.tensors("h").values()])


def test_loss_report_totals_consistent():
    rep = LossReport(geo_feat=0.2, lang_feat=0.3, sc=0.4,
                     distill_total=(0.2 + 0.3) + 0.5 * 0.4, lam=0.5, alpha=1.0)
    d = rep.to_json()
    assert d["distill_total"] == pytest.approx(
        (d["geo_feat"] + d["lang_feat"]) + d["lambda"] * d["sc"], abs=1e-12)
    assert all(v >= 0 for k, v in d.items() if k not in ("lambda", "alpha"))
