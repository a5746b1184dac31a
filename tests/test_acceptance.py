"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Criteria 7 and 8 train real models and take a few minutes;
their numeric thresholds were pinned from the recorded calibration runs on
a 4-core CPU box (see the assertions for the pinned values).

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from geovid.config import RunConfig
from geovid.cta import CtaParams, cta_forward, project_streams
from geovid.errors import DegenerateInputError
from geovid.evalmetrics import depth_metrics, pointcloud_metrics, pose_metrics
from geovid.geometry import (
    GROUND_TRUTH, METRIC, RELATIVE, CameraModel, DepthMap, look_at_rotation,
    quaternion_to_rotation,
)
from geovid.losses import (
    distill_loss, geo_feat_loss, lang_feat_loss, metric_depth_loss,
    recon_task_loss, structural_consistency, vl_proxy_loss,
)
from geovid.metric_depth import (
    MetricDepthParams, bin_logits_to_probs, bounded_centers,
    expected_depth_tensor, init_bins, ordinal_depth, predict_metric_depth,
)
from geovid.model import init_model, predict_window
from geovid.numkit import (
    MhaParams, MlpParams, Role, Tensor, TokenSet, grad_check, mha, mlp, tsum,
)
from geovid.numkit.tensor import ARCCOS_SLOPE_FLOOR
from geovid.patch3d import (
    Patch3DTokens, PointCloud, backproject, backproject_grid, fuse_tokens,
    positional_embed, project,
)
from geovid.recon import (
    BackboneParams, CameraPrediction, gfa_backbone, quat_to_rotation,
)
from geovid.scale_align import apply_scale, per_image_scale, scene_scale
from geovid.synthscene import TokenizerConfig, gen_scene
from geovid.train import (
    compare_strategies, generate_scenes, run_pipeline, train, train_stage1,
    train_stage2,
)

from _oracles import (
    depth_metrics_oracle, pointcloud_metrics_oracle, pose_metrics_oracle,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} {detail}")
    assert ok, f"{name}: {detail}"


# ----------------------------------------------------------------------
# 1. gradient suite
# ----------------------------------------------------------------------

def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    n_points = 50
    worst = {}

    def check(name, make_f, make_x):
        # dedicated stream per op: deterministic points, away from the
        # measure-zero kinks (|x| at 0, SO(3) cut locus) excluded by design
        nonlocal rng
        rng = np.random.default_rng([1001, len(worst)])
        errs = []
        for _ in range(n_points):
            f, x = make_f(), make_x()
            errs.append(grad_check(f, x))
        worst[name] = max(errs)

    # mlp
    p_mlp = MlpParams.init(rng, 5, 3)
    w_mlp = Tensor(rng.standard_normal((2, 3)))
    check("mlp",
          lambda: lambda t: tsum(mlp(t, p_mlp) * w_mlp),
          lambda: Tensor(rng.standard_normal((2, 5)), requires_grad=True))

    # mha
    p_mha = MhaParams.init(rng, 6, 2)
    w_mha = Tensor(rng.standard_normal((3, 6)))

    def mha_f(t):
        return tsum(mha(t, t, t, p_mha) * w_mha)

    check("mha", lambda: mha_f,
          lambda: Tensor(rng.standard_normal((3, 6)), requires_grad=True))

    # cta_forward
    p_cta = CtaParams.init(rng, 6, 2, bridge_tokens=2)
    w_cta = Tensor(rng.standard_normal((3, 6)))

    def cta_f(t):
        out = cta_forward(TokenSet(t, Role.BASE), p_cta)
        return tsum(out.geom.tokens * w_cta) + tsum(out.lang.tokens)

    check("cta_forward", lambda: cta_f,
          lambda: Tensor(rng.standard_normal((3, 6)), requires_grad=True))

    # backbone
    p_bb = BackboneParams.init(rng, 6, 2, blocks=2)
    other = TokenSet(Tensor(rng.standard_normal((2, 6))), Role.GEOM)
    w_bb = Tensor(rng.standard_normal((2, 6)))

    def bb_f(t):
        patch, cam = gfa_backbone(TokenSet.stack([TokenSet(t, Role.GEOM), other]), p_bb)
        return tsum(patch[0].tokens * w_bb) + tsum(cam[1].tokens)

    check("backbone", lambda: bb_f,
          lambda: Tensor(rng.standard_normal((2, 6)), requires_grad=True))

    # metric bins (probs + refined centers + expectation)
    bins = init_bins(5, 0.1, 10.0)
    p_md = MetricDepthParams.init(rng, 6, bins, patch_size=14)
    w_md = Tensor(rng.standard_normal(4))

    def bins_f(t):
        d = predict_metric_depth(TokenSet(t, Role.GEOM), (28, 28), p_md)
        return tsum(d.reshape(28, 28)[::14, ::14].reshape(4) * w_md)

    check("metric_bins", lambda: bins_f,
          lambda: Tensor(rng.standard_normal((4, 6)), requires_grad=True))

    # losses
    tea_g = Tensor(rng.standard_normal((3, 6)))
    tea_l = Tensor(rng.standard_normal((3, 6)))

    def distill_f(t):
        g = TokenSet(t, Role.GEOM)
        l = TokenSet(t * 0.5 + 1.0, Role.LANG)
        return distill_loss(g, l, TokenSet(tea_g, Role.GEOM),
                            TokenSet(tea_l, Role.LANG), lam=0.5).total

    check("distill_loss", lambda: distill_f,
          lambda: Tensor(rng.standard_normal((3, 6)) + 0.1, requires_grad=True))

    # the stage-2 losses on one-frame windows
    gt_md = [DepthMap(rng.uniform(0.5, 5.0, (3, 3)), scale_kind=GROUND_TRUTH)]
    check("metric_depth_loss",
          lambda: lambda t: metric_depth_loss(t, gt_md, alpha=1.0),
          lambda: Tensor(rng.uniform(0.5, 5.0, (1, 3, 3)), requires_grad=True))

    # ground-truth rotation placed 90 degrees from the identity so the
    # randomized predictions stay inside the smooth mid-range of the
    # geodesic-angle term (the SO(3) cut locus is a boundary case)
    r_gt = quaternion_to_rotation(np.array([np.cos(np.pi / 4), 0.0,
                                            np.sin(np.pi / 4), 0.0]))
    cam_gt = CameraModel(fx=10.0, fy=10.0, cx=1.5, cy=1.5, rotation=r_gt,
                         translation=np.array([0.2, -0.1, 0.4]),
                         scale_kind=METRIC)
    depth_gt = DepthMap(rng.uniform(1.0, 3.0, (4, 4)), scale_kind=METRIC)

    def recon_pred(t):
        # a one-frame window's cameras
        quat = t[0:4] + Tensor(np.array([1.0, 0.0, 0.0, 0.0]))
        quat = quat * (((quat * quat).sum() + 1e-12) ** -0.5)
        return CameraPrediction(quat=quat.reshape(1, 4), translation=t[4:7].reshape(1, 3),
                                fx=Tensor([10.0]), fy=Tensor([10.0]), cx=1.5, cy=1.5)

    def recon_f(t):
        # t packs [quat_offset(4), translation(3)]; depth held fixed
        return recon_task_loss(recon_pred(t), [cam_gt], Tensor(depth_gt.values[None]),
                               [depth_gt]).total

    def recon_x():
        # reject draws whose L1 point-map residuals sit on a kink (the
        # finite-difference probe would straddle the non-smooth point), and
        # draws whose geodesic arccos argument leaves the region where the
        # arccos VJP is exact (tests/test_tensor.py covers the capped slope)
        from geovid.losses import backproject_grid_tensor
        exact_below = np.sqrt(1.0 - ARCCOS_SLOPE_FLOOR)   # 1 - x^2 above the floor
        while True:
            x = Tensor(rng.standard_normal(7) * 0.25, requires_grad=True)
            pred = recon_pred(x)
            pred_pts = backproject_grid_tensor(Tensor(depth_gt.values[None]), pred,
                                               depth_gt.valid_mask)
            res = pred_pts.data[0] - backproject_grid(depth_gt, cam_gt)
            cos = (np.trace(pred.rotation_tensor().data[0] @ r_gt.T) - 1.0) * 0.5
            if np.abs(res).min() > 1e-3 and abs(cos) < exact_below:
                return x

    check("recon_task_loss", lambda: recon_f, recon_x)

    head = MlpParams.init(rng, 6, 4)
    labels = np.array([[0, 1, 3]])

    def vl_f(t):
        t3d = Patch3DTokens(tokens=t, anchor_points=np.zeros((1, 3, 3)))
        return vl_proxy_loss(t3d, labels, head)

    check("vl_proxy_loss", lambda: vl_f,
          lambda: Tensor(rng.standard_normal((1, 3, 6)), requires_grad=True))

    # the single-node ops inside the metric bins and the camera rotation;
    # unsorted logits leave the ordinal clamp active on some rows
    w_probs = Tensor(rng.standard_normal((3, 5)))
    check("ordinal_probs",
          lambda: lambda t: tsum(bin_logits_to_probs(t) * w_probs),
          lambda: Tensor(rng.standard_normal((3, 5)) * 2.0, requires_grad=True))

    check("bounded_centers",
          lambda: lambda t: tsum(bounded_centers(bins, t) * w_probs),
          lambda: Tensor(rng.standard_normal((3, 5)), requires_grad=True))

    w_rot = Tensor(rng.standard_normal((3, 3)))
    check("quat_to_rotation",
          lambda: lambda t: tsum(quat_to_rotation(t) * w_rot),
          lambda: Tensor(rng.standard_normal((1, 4)), requires_grad=True))

    # the one-node expectation, through both operands: x stacks probs, centers
    w_depth = Tensor(rng.standard_normal(3))
    check("expected_depth",
          lambda: lambda t: tsum(expected_depth_tensor(t[0], t[1]) * w_depth),
          lambda: Tensor(rng.standard_normal((2, 3, 5)), requires_grad=True))

    # the ordinal head's one node per frame, through each operand: x is a
    # 2x2 grid's patch logits or shifts, the other operand a fresh constant,
    # and the loss weighs the 6x6 frame's pixel depths
    grid = (2, 2, 6, 6)
    w_pixels = Tensor(rng.standard_normal(36))

    def ordinal_depth_f(through_logits: bool):
        other = Tensor(rng.standard_normal((4, 5)) * (1.0 if through_logits else 2.0))

        def f(t):
            logits, raw = (t, other) if through_logits else (other, t)
            return tsum(ordinal_depth(grid, logits, raw, bins) * w_pixels)
        return f

    check("ordinal_depth_logits", lambda: ordinal_depth_f(True),
          lambda: Tensor(rng.standard_normal((4, 5)) * 2.0, requires_grad=True))

    check("ordinal_depth_raw", lambda: ordinal_depth_f(False),
          lambda: Tensor(rng.standard_normal((4, 5)), requires_grad=True))

    elapsed = time.monotonic() - t0
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    _report("criterion-1 gradient suite", not bad and elapsed < 120.0,
            f"worst={max(worst.values()):.2e} over {len(worst)} ops x "
            f"{n_points} points in {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 2. geometry oracles
# ----------------------------------------------------------------------

def test_criterion_2_geometry_oracles():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1000):
        pos = rng.uniform(-2, 2, 3)
        target = pos + rng.uniform(-1, 1, 3) + np.array([0.01, 0.01, -0.5])
        r = look_at_rotation(pos, target)
        cam = CameraModel(fx=rng.uniform(30, 150), fy=rng.uniform(30, 150),
                          cx=rng.uniform(10, 50), cy=rng.uniform(10, 50),
                          rotation=r, translation=-r @ pos, scale_kind=METRIC)
        pixel = (rng.uniform(0, 100), rng.uniform(0, 100))
        depth = rng.uniform(0.1, 10.0)
        p = backproject(pixel, depth, cam)
        (i, j), d = project(p, cam)
        worst = max(worst, abs(i - pixel[0]), abs(j - pixel[1]), abs(d - depth))

    # hand cases
    cam0 = CameraModel(fx=100.0, fy=100.0, cx=50.0, cy=50.0,
                       rotation=np.eye(3), translation=np.zeros(3),
                       scale_kind=METRIC)
    h1 = backproject((50.0, 50.0), 2.0, cam0)
    cam1 = CameraModel(fx=100.0, fy=100.0, cx=50.0, cy=50.0,
                       rotation=np.eye(3), translation=np.array([0.0, 0.0, 1.0]),
                       scale_kind=METRIC)
    h2 = backproject((50.0, 50.0), 2.0, cam1)
    rz = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    cam2 = CameraModel(fx=100.0, fy=100.0, cx=50.0, cy=50.0, rotation=rz,
                       translation=np.zeros(3), scale_kind=METRIC)
    h3 = backproject((150.0, 50.0), 1.0, cam2)
    hand_ok = (np.allclose(h1, [0, 0, 2], atol=1e-12)
               and np.allclose(h2, [0, 0, 1], atol=1e-12)
               and np.allclose(h3, rz.T @ np.array([1.0, 0.0, 1.0]), atol=1e-12))

    # rigid equivariance of patch anchors
    lang = TokenSet(Tensor(rng.standard_normal((1, 4, 8))), Role.LANG)
    depth_map = DepthMap(rng.uniform(1, 4, (28, 28)), scale_kind=METRIC)
    pos = np.array([1.5, 1.2, 2.0])
    r = look_at_rotation(pos, np.array([0.2, 0.3, 0.5]))
    cam = CameraModel(fx=30.0, fy=30.0, cx=13.5, cy=13.5, rotation=r,
                      translation=-r @ pos, scale_kind=METRIC)
    p_emb = MlpParams.init(rng, 3, 8)
    t3d = fuse_tokens(lang, [depth_map], [cam], p_emb, patch_size=14)
    ang = 0.9
    axis = np.array([0.3, -0.5, 0.81])
    axis = axis / np.linalg.norm(axis)
    q = np.concatenate([[np.cos(ang / 2)], np.sin(ang / 2) * axis])
    rg = quaternion_to_rotation(q)
    tg = rng.standard_normal(3)
    cam_moved = CameraModel(fx=cam.fx, fy=cam.fy, cx=cam.cx, cy=cam.cy,
                            rotation=cam.rotation @ rg.T,
                            translation=cam.translation - cam.rotation @ rg.T @ tg,
                            scale_kind=METRIC)
    t3d_moved = fuse_tokens(lang, [depth_map], [cam_moved], p_emb, patch_size=14)
    rigid_err = np.abs(t3d_moved.anchor_points
                       - (t3d.anchor_points @ rg.T + tg)).max()

    _report("criterion-2 geometry oracles",
            worst < 1e-9 and hand_ok and rigid_err < 1e-9,
            f"roundtrip={worst:.2e} hand={hand_ok} rigid={rigid_err:.2e}")


# ----------------------------------------------------------------------
# 3. scale alignment
# ----------------------------------------------------------------------

def test_criterion_3_scale_alignment():
    rng = np.random.default_rng(1003)
    s_true = 2.37
    # exact recovery on 20 clean frames
    frames = []
    for _ in range(20):
        metric = rng.uniform(0.5, 8.0, (8, 8))
        frames.append((DepthMap(metric / s_true, scale_kind=RELATIVE),
                       DepthMap(metric, scale_kind=METRIC)))
    est = scene_scale(frames, seed=3)
    exact_err = abs(est.scene_factor - s_true) / s_true

    # 2/20 corrupted by x10
    for i in (4, 13):
        rel, met = frames[i]
        frames[i] = (rel, DepthMap(met.values * 10.0, scale_kind=METRIC))
    est2 = scene_scale(frames, seed=3)
    robust_err = abs(est2.scene_factor - s_true) / s_true

    # apply_scale / backprojection commutation
    pos = np.array([1.0, 2.0, 1.5])
    r = look_at_rotation(pos, np.array([0.5, 0.5, 0.2]))
    cam = CameraModel(fx=40.0, fy=40.0, cx=13.5, cy=13.5, rotation=r,
                      translation=-r @ pos, scale_kind=RELATIVE)
    depth = DepthMap(rng.uniform(0.5, 4.0, (28, 28)), scale_kind=RELATIVE)
    sd, sc = apply_scale(s_true, depth, cam)
    comm_err = 0.0
    for (i, j) in [(0, 0), (13, 7), (27, 27), (8, 21)]:
        a = backproject((j, i), sd.values[i, j], sc)
        b = s_true * backproject((j, i), depth.values[i, j], cam)
        comm_err = max(comm_err, np.abs(a - b).max())

    _report("criterion-3 scale alignment",
            exact_err < 1e-12 and robust_err < 0.01 and comm_err < 1e-12,
            f"exact={exact_err:.2e} robust={robust_err:.2e} comm={comm_err:.2e}")


# ----------------------------------------------------------------------
# 4. loss identities
# ----------------------------------------------------------------------

def test_criterion_4_loss_identities():
    rng = np.random.default_rng(1004)
    g = rng.standard_normal((6, 8))
    l = rng.standard_normal((6, 8))
    inj = distill_loss(TokenSet(Tensor(g), Role.GEOM), TokenSet(Tensor(l), Role.LANG),
                       TokenSet(Tensor(g.copy()), Role.GEOM),
                       TokenSet(Tensor(l.copy()), Role.LANG), lam=0.5).total.item()

    d = rng.uniform(0.5, 5.0, (1, 5, 5))
    gt = [DepthMap(d[0].copy(), scale_kind=GROUND_TRUTH)]
    md_zero = metric_depth_loss(Tensor(d), gt, alpha=1.0, eps=0.0).item()
    md_ratio = metric_depth_loss(Tensor(d * np.e), gt, alpha=1.0, eps=0.0).item()

    # pre-build scalar oracle for ratios {1, 4}, alpha = 1
    ln2 = np.log(2.0)
    oracle = ln2 ** 2 + ln2 ** 2 / (1.0 + ln2)
    md_two = metric_depth_loss(Tensor(np.array([[[1.0, 4.0]]])),
                               [DepthMap(np.array([[1.0, 1.0]]), scale_kind=GROUND_TRUTH)],
                               alpha=1.0, eps=0.0).item()

    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    tg, tl = rng.standard_normal((5, 8)), rng.standard_normal((4, 8))
    base = structural_consistency(TokenSet(Tensor(g[:5]), Role.GEOM),
                                  TokenSet(Tensor(l[:4]), Role.LANG),
                                  TokenSet(Tensor(tg), Role.GEOM),
                                  TokenSet(Tensor(tl), Role.LANG)).item()
    rot = structural_consistency(TokenSet(Tensor(g[:5] @ q), Role.GEOM),
                                 TokenSet(Tensor(l[:4] @ q), Role.LANG),
                                 TokenSet(Tensor(tg), Role.GEOM),
                                 TokenSet(Tensor(tl), Role.LANG)).item()

    sc_2x2 = structural_consistency(
        TokenSet(Tensor([[1.0, 0.0]]), Role.GEOM),
        TokenSet(Tensor([[0.0, 1.0]]), Role.LANG),
        TokenSet(Tensor([[1.0, 0.0]]), Role.GEOM),
        TokenSet(Tensor([[1.0, 0.0]]), Role.LANG)).item()

    ok = (abs(inj) < 1e-13 and md_zero == 0.0
          and abs(md_ratio - 1.0) < 1e-12
          and abs(md_two - oracle) < 1e-9
          and abs(base - rot) < 1e-9
          and sc_2x2 == pytest.approx(0.5, abs=1e-14))
    _report("criterion-4 loss identities", ok,
            f"inject={inj:.1e} md0={md_zero} md_e={md_ratio:.12f} "
            f"two_px_err={abs(md_two - oracle):.1e} sc_rot={abs(base - rot):.1e} "
            f"sc22={sc_2x2}")


# ----------------------------------------------------------------------
# 5. metric bins
# ----------------------------------------------------------------------

def test_criterion_5_metric_bins():
    rng = np.random.default_rng(1005)
    n_pixels = 1_000_000
    n = 8
    logits = rng.standard_normal((n_pixels, n)) * 5
    probs = bin_logits_to_probs(Tensor(logits))
    sums = probs.data.sum(axis=1)
    simplex_err = np.abs(sums - 1.0).max()
    nonneg = probs.data.min() >= 0

    centers = np.sort(rng.uniform(0.1, 10.0, (n_pixels, n)), axis=1)
    centers = centers + np.arange(n) * 1e-9
    d = expected_depth_tensor(probs, Tensor(centers)).data
    lo_ok = np.all(d >= centers.min(axis=1) * (1 - 1e-12))
    hi_ok = np.all(d <= centers.max(axis=1) * (1 + 1e-12))

    cfg = init_bins(16, 0.1, 10.0)
    zero_mlp = MlpParams(w1=Tensor(np.zeros((4, 4))), b1=Tensor(np.zeros(4)),
                         w2=Tensor(np.zeros((4, 16))), b2=Tensor(np.zeros(16)))
    refined = bounded_centers(cfg, mlp(Tensor(rng.standard_normal((20, 4))), zero_mlp))
    bit_exact = all(np.array_equal(row, cfg.centers) for row in refined.data)

    _report("criterion-5 metric bins",
            simplex_err < 1e-10 and nonneg and lo_ok and hi_ok and bit_exact,
            f"simplex={simplex_err:.1e} bounds_ok={lo_ok and hi_ok} "
            f"zero_refine_bitexact={bit_exact} over {n_pixels} pixels")


# ----------------------------------------------------------------------
# 6. metrics oracle equivalence
# ----------------------------------------------------------------------

def test_criterion_6_metrics_oracles():
    rng = np.random.default_rng(1006)

    def rand_cam():
        pos = rng.uniform(-2, 2, 3)
        target = pos + rng.uniform(-1, 1, 3)
        target[2] -= 0.7
        r = look_at_rotation(pos, target)
        return CameraModel(fx=50.0, fy=50.0, cx=20.0, cy=20.0, rotation=r,
                           translation=-r @ pos, scale_kind=METRIC)

    def perturb(cam):
        ang = np.deg2rad(rng.uniform(0, 45))
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        q = np.concatenate([[np.cos(ang / 2)], np.sin(ang / 2) * axis])
        dr = quaternion_to_rotation(q)
        return CameraModel(fx=cam.fx, fy=cam.fy, cx=cam.cx, cy=cam.cy,
                           rotation=dr @ cam.rotation,
                           translation=cam.translation + rng.standard_normal(3) * 0.4,
                           scale_kind=METRIC)

    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        gt = [rand_cam() for _ in range(n)]
        pred = [perturb(c) for c in gt]
        if pose_metrics(pred, gt) != pose_metrics_oracle(pred, gt):
            mismatches += 1

    for _ in range(100):
        g = rng.uniform(0.5, 6.0, (6, 6))
        p = g * rng.uniform(0.6, 1.6, (6, 6))
        mask = rng.uniform(size=(6, 6)) > 0.2
        mask[0, 0] = True
        got = depth_metrics(DepthMap(p, scale_kind=METRIC, valid_mask=mask),
                            DepthMap(g, scale_kind=GROUND_TRUTH, valid_mask=mask))
        if got != depth_metrics_oracle(p, g, mask):
            mismatches += 1

    for _ in range(100):
        a = rng.standard_normal((int(rng.integers(1, 200)), 3)) * 0.3
        b = rng.standard_normal((int(rng.integers(1, 200)), 3)) * 0.3
        tau = float(rng.uniform(0.02, 0.4))
        if pointcloud_metrics(PointCloud(a), PointCloud(b), tau=tau) != \
                pointcloud_metrics_oracle(a, b, tau):
            mismatches += 1

    # trivial cases
    cams = [rand_cam() for _ in range(3)]
    trivial_ok = pose_metrics(cams, cams) == {"RRA@15": 100.0, "RTA@15": 100.0,
                                              "mAA30": 100.0}
    d = rng.uniform(1, 5, (4, 4))
    dm = depth_metrics(DepthMap(1.3 * d, scale_kind=METRIC),
                       DepthMap(d, scale_kind=GROUND_TRUTH))
    trivial_ok &= abs(dm["AbsRel"] - 0.3) < 1e-12 and dm["delta1"] == 0.0
    dm10 = depth_metrics(DepthMap(10 * d, scale_kind=METRIC),
                         DepthMap(d, scale_kind=GROUND_TRUTH))
    trivial_ok &= abs(dm10["log10"] - 1.0) < 1e-12
    pts = rng.standard_normal((20, 3))
    pc = pointcloud_metrics(PointCloud(pts), PointCloud(pts.copy()))
    trivial_ok &= pc == {"Acc": 0.0, "Comp": 0.0, "Prec": 1.0, "Recall": 1.0,
                         "Fscore": 1.0}
    single = pointcloud_metrics(PointCloud(np.array([[0.1, 0, 0]])),
                                PointCloud(np.zeros((1, 3))), tau=0.05)
    trivial_ok &= (single["Prec"] == 0.0 and abs(single["Acc"] - 0.1) < 1e-15)

    _report("criterion-6 metrics oracle equivalence",
            mismatches == 0 and trivial_ok,
            f"mismatches={mismatches}/300 trivial_ok={trivial_ok}")


# ----------------------------------------------------------------------
# 7. end-to-end toy training (the pinned seed-7 default configuration)
# ----------------------------------------------------------------------

def _held_out_metrics(cfg, params, held):
    blocks = {"pose": [], "depth": [], "recon": []}
    for scene in held:
        m = run_pipeline(cfg, scene, params).metrics
        for k in blocks:
            v = getattr(m, k)
            if v is not None:
                blocks[k].append(v)
    return {k: ({kk: float(np.mean([x[kk] for x in v])) for kk in v[0]} if v else None)
            for k, v in blocks.items()}


@pytest.mark.slow
def test_criterion_7_end_to_end_training():
    t0 = time.monotonic()
    cfg = RunConfig(seed=7)   # 56x56, C=64, 64 scenes, 500 + 1000 steps
    scenes = generate_scenes(cfg)
    held = generate_scenes(cfg, count=10, held_out=True)

    untrained = _held_out_metrics(cfg, init_model(cfg), held)
    params, log1 = train_stage1(cfg, scenes)
    stage1_initial = log1[0].report.distill_total
    stage1_final = log1[-1].report.distill_total
    params, log2 = train_stage2(cfg, params, scenes)
    trained = _held_out_metrics(cfg, params, held)
    elapsed = time.monotonic() - t0

    absrel_u = untrained["depth"]["AbsRel"]
    absrel_t = trained["depth"]["AbsRel"]
    f_u = untrained["recon"]["Fscore"]
    f_t = trained["recon"]["Fscore"]

    ok_time = elapsed < 900.0
    ok_stage1 = stage1_final < 0.2 * stage1_initial
    ok_absrel = absrel_t * 3.0 <= absrel_u
    # untrained F-score is ~0 on these scenes; the pinned absolute floor keeps
    # the x2 test meaningful (calibration: 0.006 -> 0.17)
    ok_f = (f_t >= 2.0 * f_u) and (f_t >= 0.05)
    # absolute values pinned from the calibration run (0.5326 -> 0.1521)
    ok_pin = absrel_t < 0.20 and absrel_u > 0.40

    _report("criterion-7 end-to-end training",
            ok_time and ok_stage1 and ok_absrel and ok_f and ok_pin,
            f"time={elapsed:.0f}s stage1 {stage1_initial:.3f}->{stage1_final:.4f} "
            f"AbsRel {absrel_u:.3f}->{absrel_t:.3f} (x{absrel_u / absrel_t:.2f}) "
            f"F {f_u:.3f}->{f_t:.3f}")


# ----------------------------------------------------------------------
# 8. training-strategy comparison
# ----------------------------------------------------------------------

# shared comparison config: every strategy trains with full adapter rate so
# the ordering reflects the strategies, not the two-stage fine-tuning recipe
SMALL_COMPARE = dict(dim=32, heads=2, blocks=2, bridge_tokens=8,
                     resolution=(28, 28), n_bins=16, frames_per_scene=8,
                     stage1_steps=150, stage1_batch=4, stage2_steps=120,
                     stage2_frames=2, warmup_steps=20, n_objects=4,
                     adapter_lr_scale=1.0)


@pytest.mark.slow
def test_criterion_8_strategy_comparison(tmp_path):
    strategies = ["two_stage_dual", "two_stage_single_teacher",
                  "single_stage", "no_sc_loss"]
    sizes = [8, 16, 32, 64]
    seeds = [1, 2, 3]
    cfg = RunConfig(seed=1, **SMALL_COMPARE)
    csv_path = tmp_path / "strategies.csv"
    rows = compare_strategies(cfg, strategies, sizes, seeds, out_csv=csv_path)

    complete = len(rows) == len(strategies) * len(sizes) * len(seeds)
    finite = all(np.isfinite(r["test_loss"]) for r in rows)

    def mean_loss(strategy, size):
        return float(np.mean([r["test_loss"] for r in rows
                              if r["strategy"] == strategy
                              and r["data_size"] == size]))

    largest = max(sizes)
    ordering = sorted(strategies, key=lambda s: mean_loss(s, largest))
    print(f"[acceptance] criterion-8 observed ordering at {largest} scenes "
          f"(best first): "
          + ", ".join(f"{s}={mean_loss(s, largest):.3f}" for s in ordering))
    print("[acceptance] criterion-8 reference claim: the dual-teacher "
          "two-stage strategy converges fastest and reaches the lowest final loss")
    dual_beats_single = mean_loss("two_stage_dual", largest) < \
        mean_loss("single_stage", largest)

    _report("criterion-8 strategy comparison",
            complete and finite and dual_beats_single,
            f"rows={len(rows)} csv={csv_path.name} "
            f"dual={mean_loss('two_stage_dual', largest):.3f} < "
            f"single={mean_loss('single_stage', largest):.3f}")


# ----------------------------------------------------------------------
# 9. ablation plumbing
# ----------------------------------------------------------------------

SMALL_ABLATION = dict(dim=16, heads=2, blocks=2, resolution=(28, 28),
                      n_bins=8, n_scenes=3, frames_per_scene=4,
                      stage1_steps=8, stage1_batch=2, stage2_steps=10,
                      stage2_frames=2, warmup_steps=4, n_objects=3)


def test_criterion_9_ablation_plumbing():
    ok = True
    details = []
    for k in (0, 4, 8, 16, 32):
        cfg = RunConfig(seed=13, bridge_tokens=k, **SMALL_ABLATION)
        scenes = generate_scenes(cfg)
        params, log = train(cfg, scenes)
        result = run_pipeline(cfg, scenes[0], params)
        fine = np.isfinite(log[-1].report.joint_total) and result.metrics.pose is not None
        ok &= fine
        details.append(f"K={k}:{'ok' if fine else 'FAIL'}")

    for mode in ("off", "no_alignment", "full"):
        cfg = RunConfig(seed=13, md_mode=mode, **SMALL_ABLATION)
        scenes = generate_scenes(cfg)
        params, log = train(cfg, scenes)
        result = run_pipeline(cfg, scenes[0], params)
        report = result.metrics.to_json()
        fine = (np.isfinite(log[-1].report.joint_total)
                and set(report) == {"pose", "depth", "recon"}
                and (report["depth"] is None) == (mode == "off"))
        ok &= fine
        details.append(f"MD={mode}:{'ok' if fine else 'FAIL'}")

    # K = 0 reduces to the pure projections, bit-exactly
    cfg0 = RunConfig(seed=13, bridge_tokens=0, **SMALL_ABLATION)
    params0 = init_model(cfg0)
    scenes0 = generate_scenes(cfg0, count=1)
    from geovid.model import encode
    base = encode(scenes0[0].frames[0].base, params0)
    out = cta_forward(base, params0.cta)
    geom, lang = project_streams(base, params0.cta)
    reduces = (out.bridge is None
               and np.array_equal(out.geom.tokens.data, geom.tokens.data)
               and np.array_equal(out.lang.tokens.data, lang.tokens.data))
    ok &= reduces
    details.append(f"K0-reduction:{'ok' if reduces else 'FAIL'}")

    _report("criterion-9 ablation plumbing", ok, " ".join(details))


# ----------------------------------------------------------------------
# 10. CLI determinism
# ----------------------------------------------------------------------

def _run_cli(*args):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "geovid.cli", *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_10_cli_determinism(tmp_path):
    cfg_json = {"seed": 19, "dim": 16, "heads": 2, "blocks": 2,
                "bridge_tokens": 4, "resolution": [28, 28], "n_bins": 8,
                "n_scenes": 2, "frames_per_scene": 3, "stage1_steps": 4,
                "stage1_batch": 2, "stage2_steps": 4, "stage2_frames": 2,
                "warmup_steps": 2, "n_objects": 3}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_json))

    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        _run_cli("gen-scenes", "--config", str(cfg_path), "--out", str(out / "scenes"))
        _run_cli("train", "--stage", "1", "--config", str(cfg_path),
                 "--scenes", str(out / "scenes"), "--out", str(out / "s1"))
        _run_cli("train", "--stage", "2", "--config", str(cfg_path),
                 "--scenes", str(out / "scenes"), "--out", str(out / "s2"),
                 "--init", str(out / "s1" / "ckpt"))
        _run_cli("infer", "--ckpt", str(out / "s2" / "ckpt"),
                 "--scene", str(out / "scenes" / "scene_0000"),
                 "--out", str(out / "pred"))
        _run_cli("eval", "--pred", str(out / "pred"),
                 "--gt", str(out / "scenes" / "scene_0000"),
                 "--out", str(out / "report.json"))
        outs.append(out)

    a, b = outs
    artifacts = [
        "scenes/scene_0000/scene.vlt",
        "scenes/scene_0000/scene.json",
        "s1/log.jsonl", "s1/ckpt/weights.vlt", "s1/ckpt/manifest.json",
        "s2/log.jsonl", "s2/ckpt/weights.vlt",
        "pred/cloud.ply", "pred/metrics.json", "pred/scale.json",
        "pred/cameras/frame_000.json", "pred/t3d_anchors.json",
        "report.json",
    ]
    mismatched = [rel for rel in artifacts
                  if (a / rel).read_bytes() != (b / rel).read_bytes()]
    _report("criterion-10 CLI determinism", not mismatched,
            f"checked={len(artifacts)} artifacts, mismatched={mismatched}")
