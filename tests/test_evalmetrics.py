import warnings

import numpy as np
import pytest

from geovid.config import RunConfig
from geovid.errors import DegenerateInputError, ParameterError, StateError
from geovid.evalmetrics import (
    MetricsReport, _nearest_distances, _pair_errors, depth_metrics,
    pointcloud_metrics, pose_metrics,
)
from geovid.geometry import (
    GROUND_TRUTH, METRIC, RELATIVE, CameraModel, DepthMap, look_at_rotation,
    quaternion_to_rotation,
)
from geovid.model import init_model
from geovid.patch3d import PointCloud
from geovid.train import generate_scenes, run_pipeline, strided_cloud

from _oracles import (
    depth_metrics_oracle, pointcloud_metrics_oracle, pose_metrics_oracle,
    pose_pair_errors_oracle,
)


def _random_cam(rng, kind=METRIC):
    pos = rng.uniform(-2, 2, 3)
    target = pos + rng.uniform(-1, 1, 3)
    target[2] -= 0.8
    r = look_at_rotation(pos, target)
    return CameraModel(fx=50.0, fy=50.0, cx=20.0, cy=20.0, rotation=r,
                       translation=-r @ pos, scale_kind=kind)


def _perturbed(cam, rng, rot_deg, trans_sigma):
    ang = np.deg2rad(rot_deg)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    q = np.concatenate([[np.cos(ang / 2)], np.sin(ang / 2) * axis])
    dr = quaternion_to_rotation(q)
    return CameraModel(fx=cam.fx, fy=cam.fy, cx=cam.cx, cy=cam.cy,
                       rotation=dr @ cam.rotation,
                       translation=cam.translation + trans_sigma * rng.standard_normal(3),
                       scale_kind=cam.scale_kind)


class TestPoseMetrics:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(0)
        cams = [_random_cam(rng) for _ in range(5)]
        m = pose_metrics(cams, cams)
        assert m == {"RRA@15": 100.0, "RTA@15": 100.0, "mAA30": 100.0}

    def test_pure_rotation_offset_threshold(self):
        # one camera rotated 20 degrees, exact translations:
        # the two ordered pairs fail RRA@15 but translation stays exact
        rng = np.random.default_rng(1)
        gt = [_random_cam(rng) for _ in range(2)]
        ang = np.deg2rad(20.0)
        axis = np.array([0.0, 0.0, 1.0])
        q = np.concatenate([[np.cos(ang / 2)], np.sin(ang / 2) * axis])
        dr = quaternion_to_rotation(q)
        pred = [gt[0],
                CameraModel(fx=gt[1].fx, fy=gt[1].fy, cx=gt[1].cx, cy=gt[1].cy,
                            rotation=dr @ gt[1].rotation,
                            translation=gt[1].translation,
                            scale_kind=gt[1].scale_kind)]
        m = pose_metrics(pred, gt)
        assert m["RRA@15"] == 0.0
        # translation direction moves with the rotation on one side of the
        # pair; only check it is not counted as a rotation success
        assert m["mAA30"] <= 100.0

    def test_translation_only_error(self):
        rng = np.random.default_rng(2)
        gt = [_random_cam(rng) for _ in range(2)]
        pred = [gt[0], CameraModel(fx=gt[1].fx, fy=gt[1].fy, cx=gt[1].cx,
                                   cy=gt[1].cy, rotation=gt[1].rotation,
                                   translation=gt[1].translation + np.array([3.0, 0, 0]),
                                   scale_kind=gt[1].scale_kind)]
        m = pose_metrics(pred, gt)
        assert m["RRA@15"] == 100.0
        assert m["RTA@15"] < 100.0

    def test_similarity_transform_invariance(self):
        rng = np.random.default_rng(3)
        gt = [_random_cam(rng) for _ in range(5)]
        pred = [_perturbed(c, rng, 4.0, 0.05) for c in gt]
        base = pose_metrics(pred, gt)

        s = 2.7
        rg = look_at_rotation(np.zeros(3), np.array([1.0, 0.5, -0.2]))
        tg = rng.standard_normal(3)

        def transform(cam):
            return CameraModel(fx=cam.fx, fy=cam.fy, cx=cam.cx, cy=cam.cy,
                               rotation=cam.rotation @ rg.T,
                               translation=s * cam.translation - cam.rotation @ rg.T @ tg,
                               scale_kind=cam.scale_kind)

        moved = pose_metrics([transform(c) for c in pred],
                             [transform(c) for c in gt])
        for k in base:
            assert base[k] == pytest.approx(moved[k], abs=1e-9)

    def test_matches_bruteforce_oracle_randomized(self):
        rng = np.random.default_rng(4)
        for trial in range(40):
            n = int(rng.integers(2, 11))
            gt = [_random_cam(rng) for _ in range(n)]
            pred = [_perturbed(c, rng, float(rng.uniform(0, 40)),
                               float(rng.uniform(0, 1.0))) for c in gt]
            got = pose_metrics(pred, gt)
            want = pose_metrics_oracle(pred, gt)
            assert got == want  # bit-exact: same arithmetic, independent code

    def test_32_cameras_with_duplicates_match_per_pair_loop(self):
        # infer's camera count; repeated cameras give zero-length relative
        # translations, in both lists (3, 4 and 17, 18) or in pred alone (30, 31)
        rng = np.random.default_rng(7)
        gt = [_random_cam(rng) for _ in range(32)]
        pred = [_perturbed(c, rng, float(rng.uniform(0, 40)),
                           float(rng.uniform(0, 1.0))) for c in gt]
        for k in (3, 17):
            gt[k + 1] = gt[k]
            pred[k + 1] = pred[k]
        pred[31] = pred[30]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = pose_metrics(pred, gt)
        assert [w.category for w in caught] == [UserWarning]
        assert "6 camera pair(s) excluded" in str(caught[0].message)
        assert got == pose_metrics_oracle(pred, gt)
        for batched, looped in zip(_pair_errors(pred, gt), pose_pair_errors_oracle(pred, gt)):
            assert np.array_equal(batched, looped)

    def test_needs_two_cameras(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ParameterError):
            pose_metrics([_random_cam(rng)], [_random_cam(rng)])

    def test_zero_relative_translation_warns(self):
        rng = np.random.default_rng(6)
        cam = _random_cam(rng)
        with pytest.warns(UserWarning):
            m = pose_metrics([cam, cam], [cam, cam])
        assert m["RRA@15"] == 100.0


class TestDepthMetrics:
    def _dm(self, vals, kind=METRIC, mask=None):
        return DepthMap(np.asarray(vals, float), scale_kind=kind, valid_mask=mask)

    def test_perfect(self):
        d = np.random.default_rng(0).uniform(1, 5, (6, 6))
        m = depth_metrics(self._dm(d), self._dm(d, GROUND_TRUTH))
        assert m == {"AbsRel": 0.0, "RMSE": 0.0, "log10": 0.0, "delta1": 1.0}

    def test_uniform_factor_13(self):
        d = np.random.default_rng(1).uniform(1, 5, (6, 6))
        m = depth_metrics(self._dm(1.3 * d), self._dm(d, GROUND_TRUTH))
        assert m["AbsRel"] == pytest.approx(0.3, abs=1e-12)
        assert m["delta1"] == 0.0  # 1.3 > 1.25

    def test_factor_ten_log10(self):
        d = np.random.default_rng(2).uniform(1, 5, (4, 4))
        m = depth_metrics(self._dm(10.0 * d), self._dm(d, GROUND_TRUTH))
        assert m["log10"] == pytest.approx(1.0, abs=1e-12)

    def test_relative_scale_rejected(self):
        d = np.ones((3, 3))
        with pytest.raises(StateError):
            depth_metrics(self._dm(d, RELATIVE), self._dm(d, GROUND_TRUTH))

    def test_empty_intersection(self):
        d = np.ones((3, 3))
        mask = np.zeros((3, 3), dtype=bool)
        with pytest.raises(DegenerateInputError):
            depth_metrics(self._dm(d, mask=mask), self._dm(d, GROUND_TRUTH))

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            gt = rng.uniform(0.5, 6.0, (7, 5))
            pred = gt * rng.uniform(0.6, 1.6, (7, 5))
            mask = rng.uniform(size=(7, 5)) > 0.2
            mask[0, 0] = True
            got = depth_metrics(self._dm(pred, mask=mask),
                                self._dm(gt, GROUND_TRUTH, mask=mask))
            want = depth_metrics_oracle(pred, gt, mask)
            assert got == want


class TestPointCloudMetrics:
    def test_identical_clouds(self):
        pts = np.random.default_rng(0).standard_normal((30, 3))
        m = pointcloud_metrics(PointCloud(pts), PointCloud(pts.copy()))
        assert m == {"Acc": 0.0, "Comp": 0.0, "Prec": 1.0, "Recall": 1.0,
                     "Fscore": 1.0}

    def test_single_distant_point(self):
        m = pointcloud_metrics(PointCloud(np.array([[0.1, 0.0, 0.0]])),
                               PointCloud(np.zeros((1, 3))), tau=0.05)
        assert m["Prec"] == 0.0 and m["Recall"] == 0.0 and m["Fscore"] == 0.0
        assert m["Acc"] == pytest.approx(0.1) and m["Comp"] == pytest.approx(0.1)

    def test_matches_bruteforce_oracle_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n, m_ = int(rng.integers(1, 200)), int(rng.integers(1, 200))
            pred = rng.standard_normal((n, 3)) * 0.3
            gt = rng.standard_normal((m_, 3)) * 0.3
            tau = float(rng.uniform(0.02, 0.4))
            got = pointcloud_metrics(PointCloud(pred), PointCloud(gt), tau=tau)
            want = pointcloud_metrics_oracle(pred, gt, tau)
            assert got == want

    def test_kdtree_path_agrees_with_bruteforce(self):
        rng = np.random.default_rng(2)
        pred = rng.standard_normal((700, 3))
        gt = pred + rng.standard_normal((700, 3)) * 0.01
        got = pointcloud_metrics(PointCloud(pred), PointCloud(gt), tau=0.05)
        want = pointcloud_metrics_oracle(pred, gt, 0.05)
        assert got == want

    @pytest.mark.parametrize("degenerate", [
        np.tile([0.3, -0.2, 1.5], (50, 1)),
        np.outer(np.linspace(-1.0, 2.0, 40), [0.5, -1.0, 2.0]),
        np.array([[0.1, 0.2, 0.3]]),
    ], ids=["all-equal", "collinear", "single"])
    def test_degenerate_clouds_match_oracle(self, degenerate):
        other = np.random.default_rng(6).standard_normal((60, 3))
        for a, b in ((degenerate, other), (other, degenerate), (degenerate, degenerate)):
            got = pointcloud_metrics(PointCloud(a), PointCloud(b), tau=0.3)
            assert got == pointcloud_metrics_oracle(a, b, 0.3)

    @pytest.mark.filterwarnings("ignore:.*camera pair")
    def test_pipeline_clouds_match_blockwise_scan(self):
        # the clouds infer scores: an untrained model's prediction lies far
        # from the ground truth, so the tree answers far queries
        cfg = RunConfig(seed=5, dim=16, heads=2, blocks=2, bridge_tokens=4, n_bins=16,
                        resolution=(56, 56), frames_per_scene=8, n_objects=3,
                        stage2_frames=2)
        scene = generate_scenes(cfg, count=1)[0]
        pred = run_pipeline(cfg, scene, init_model(cfg)).cloud.points
        gt = strided_cloud([f.depth for f in scene.frames],
                           [f.camera for f in scene.frames]).points

        def scan(src, dst, block=128):
            out = np.empty(len(src))
            for lo in range(0, len(src), block):
                d2 = ((src[lo:lo + block, None, :] - dst[None]) ** 2).sum(axis=2)
                out[lo:lo + block] = np.sqrt(d2.min(axis=1))
            return out

        assert len(pred) == len(gt) == 8 * 28 * 28
        assert np.array_equal(_nearest_distances(pred, gt), scan(pred, gt))
        assert np.array_equal(_nearest_distances(gt, pred), scan(gt, pred))

    @pytest.mark.parametrize("tau", [np.nan, np.inf, 0.0, -0.1])
    def test_tau_must_be_positive_and_finite(self, tau):
        a = PointCloud(np.zeros((3, 3)))
        b = PointCloud(np.full((3, 3), 8.0))
        with pytest.raises(ParameterError, match="tau"):
            pointcloud_metrics(a, b, tau=tau)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(3)
        a = PointCloud(rng.standard_normal((50, 3)))
        b = PointCloud(rng.standard_normal((70, 3)))
        m1 = pointcloud_metrics(a, b)
        m2 = pointcloud_metrics(b, a)
        assert m1["Acc"] == m2["Comp"] and m1["Comp"] == m2["Acc"]
        assert m1["Prec"] == m2["Recall"] and m1["Recall"] == m2["Prec"]
        assert m1["Fscore"] == pytest.approx(m2["Fscore"], abs=1e-15)

    def test_tau_monotonicity(self):
        rng = np.random.default_rng(4)
        a = PointCloud(rng.standard_normal((60, 3)))
        b = PointCloud(rng.standard_normal((60, 3)))
        prev = {"Prec": -1.0, "Recall": -1.0, "Fscore": -1.0}
        for tau in (0.05, 0.1, 0.3, 0.8, 2.0):
            m = pointcloud_metrics(a, b, tau=tau)
            for k in prev:
                assert m[k] >= prev[k]
            prev = {k: m[k] for k in prev}

    def test_rigid_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((40, 3))
        b = rng.standard_normal((40, 3))
        r = look_at_rotation(np.zeros(3), np.array([0.3, 0.4, -1.0]))
        t = rng.standard_normal(3)
        m1 = pointcloud_metrics(PointCloud(a), PointCloud(b))
        m2 = pointcloud_metrics(PointCloud(a @ r.T + t), PointCloud(b @ r.T + t))
        for k in m1:
            assert m1[k] == pytest.approx(m2[k], abs=1e-9)

    def test_empty_cloud_rejected(self):
        with pytest.raises(ParameterError):
            pointcloud_metrics(PointCloud(np.zeros((0, 3))),
                               PointCloud(np.zeros((1, 3))))


def test_metrics_report_json_roundtrip(tmp_path):
    rep = MetricsReport(pose={"RRA@15": 50.0, "RTA@15": 25.0, "mAA30": 10.0},
                        depth=None, recon=None)
    rep.save(tmp_path / "r.json")
    import json
    with open(tmp_path / "r.json") as fh:
        data = json.load(fh)
    assert data["pose"]["RRA@15"] == 50.0
    assert data["depth"] is None
