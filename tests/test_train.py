import tracemalloc

import numpy as np
import pytest

from geovid.config import RunConfig
from geovid.geometry import METRIC, RELATIVE, DepthMap
from geovid.losses import distill_loss
from geovid.model import init_model, load_checkpoint, predict_window, save_checkpoint
from geovid.train import (
    _window_joint_loss, compare_strategies, evaluate_test_loss, generate_scenes,
    run_pipeline, scene_norm, train, train_stage1, train_stage2, write_jsonl,
)

TINY = dict(dim=16, heads=2, blocks=2, bridge_tokens=4, resolution=(28, 28),
            n_bins=8, n_scenes=3, frames_per_scene=4, stage1_steps=6,
            stage1_batch=2, stage2_steps=6, stage2_frames=2, warmup_steps=3,
            n_objects=3)


@pytest.fixture(scope="module")
def tiny_setup():
    cfg = RunConfig(seed=11, **TINY)
    scenes = generate_scenes(cfg)
    return cfg, scenes


def test_zero_lr_keeps_params_and_loss_constant(tiny_setup):
    cfg, scenes = tiny_setup
    cfg0 = RunConfig(seed=11, **{**TINY, "lr": 0.0})
    params = init_model(cfg0)
    before = {k: t.data.copy() for k, t in params.named_tensors().items()}
    f = scenes[0].frames[0]

    def probe():
        from geovid.model import adapt
        out = adapt(f.base, params)
        return distill_loss(out.geom, out.lang, f.teacher_geom,
                            f.teacher_lang, lam=0.5).total.item()

    loss0 = probe()
    params, _ = train_stage1(cfg0, scenes, params=params)
    for k, t in params.named_tensors().items():
        assert np.array_equal(t.data, before[k])
    assert probe() == loss0


def test_stage1_oracle_injection_zero_loss(tiny_setup):
    # student tokens replaced by the teachers: every distillation term is 0
    _, scenes = tiny_setup
    f = scenes[0].frames[0]
    res = distill_loss(f.teacher_geom, f.teacher_lang,
                       f.teacher_geom, f.teacher_lang, lam=0.5)
    assert res.total.item() == pytest.approx(0.0, abs=1e-13)


def test_stage1_reduces_loss(tiny_setup):
    cfg, scenes = tiny_setup
    cfg1 = RunConfig(seed=11, **{**TINY, "stage1_steps": 60})
    _, log = train_stage1(cfg1, scenes)
    assert log[-1].report.distill_total < log[0].report.distill_total


def test_stage1_strategies_change_active_terms(tiny_setup):
    cfg, scenes = tiny_setup
    single = RunConfig(seed=11, **{**TINY, "strategy": "two_stage_single_teacher"})
    _, log = train_stage1(single, scenes)
    assert all(e.report.lang_feat == 0.0 for e in log)
    nosc = RunConfig(seed=11, **{**TINY, "strategy": "no_sc_loss"})
    _, log = train_stage1(nosc, scenes)
    assert all(e.report.lam == 0.0 for e in log)


def test_stage2_runs_and_logs_consistent_totals(tiny_setup):
    cfg, scenes = tiny_setup
    params, _ = train_stage1(cfg, scenes)
    params, log = train_stage2(cfg, params, scenes)
    assert len(log) == cfg.stage2_steps
    for e in log:
        r = e.report
        assert r.joint_total == pytest.approx((r.recon_task + r.vl_task) + r.md,
                                              abs=1e-12)
        assert e.stage == 2


def test_training_determinism(tiny_setup):
    cfg, scenes = tiny_setup

    def run():
        params, log = train(cfg, scenes)
        return [e.report.joint_total for e in log if e.stage == 2]

    assert run() == run()


def test_md_off_drops_md_term(tiny_setup):
    cfg, scenes = tiny_setup
    off = RunConfig(seed=11, **{**TINY, "md_mode": "off"})
    params, log = train_stage2(off, init_model(off), scenes)
    assert all(e.report.md == 0.0 for e in log)


def test_single_stage_budget(tiny_setup):
    # single_stage = the joint stage from random init, stage-2 schedule
    cfg, scenes = tiny_setup
    ss = RunConfig(seed=11, **{**TINY, "strategy": "single_stage"})
    _, log = train(ss, scenes)
    assert len(log) == ss.stage2_steps
    assert all(e.stage == 2 for e in log)


def test_run_pipeline_outputs(tiny_setup):
    cfg, scenes = tiny_setup
    params = init_model(cfg)
    result = run_pipeline(cfg, scenes[0], params)
    assert len(result.depths) == len(scenes[0].frames)
    assert all(d.scale_kind == METRIC for d in result.depths)
    assert result.metrics.pose is not None
    assert result.metrics.depth is not None
    assert result.scale is not None
    # one Patch3DTokens for the whole scene, one token set per frame
    n = len(scenes[0].frames)
    assert result.t3d.tokens.shape == (n, 4, cfg.dim)
    assert result.t3d.anchor_points.shape == (n, 4, 3)


def test_run_pipeline_deterministic(tiny_setup):
    cfg, scenes = tiny_setup
    params = init_model(cfg)
    a = run_pipeline(cfg, scenes[0], params)
    b = run_pipeline(cfg, scenes[0], params)
    assert np.array_equal(a.cloud.points, b.cloud.points)
    assert a.metrics.to_json() == b.metrics.to_json()
    assert a.scale.scene_factor == b.scale.scene_factor


def test_pipeline_gt_injection_closes_loop(tiny_setup):
    # feeding GT depth + GT cameras through the cloud path reproduces GT
    from geovid.evalmetrics import pointcloud_metrics
    from geovid.patch3d import PointCloud, backproject_grid
    cfg, scenes = tiny_setup
    scene = scenes[0]
    pts = [backproject_grid(f.depth, f.camera) for f in scene.frames]
    cloud = PointCloud(np.concatenate(pts))
    m = pointcloud_metrics(cloud, PointCloud(np.concatenate(pts).copy()),
                           tau=cfg.tau_f)
    assert m["Fscore"] == 1.0


def test_md_ablation_modes_emit_reports(tiny_setup):
    cfg, scenes = tiny_setup
    for mode in ("off", "no_alignment", "full"):
        mcfg = RunConfig(seed=11, **{**TINY, "md_mode": mode})
        params, _ = train(mcfg, scenes)
        result = run_pipeline(mcfg, scenes[0], params)
        assert result.metrics.pose is not None
        if mode == "off":
            assert result.metrics.depth is None
            assert result.metrics.recon is None
            assert result.scale is None
        else:
            assert result.metrics.depth is not None
            assert result.metrics.recon is not None


def test_bridge_token_ablation_trains(tiny_setup):
    cfg, scenes = tiny_setup
    for k in (0, 4):
        kcfg = RunConfig(seed=11, **{**TINY, "bridge_tokens": k})
        params, log = train(kcfg, scenes)
        assert np.isfinite(log[-1].report.joint_total)


def test_evaluate_test_loss_finite(tiny_setup):
    cfg, scenes = tiny_setup
    params = init_model(cfg)
    out = evaluate_test_loss(cfg, params, scenes[:2])
    assert np.isfinite(out["joint"])
    assert out["joint"] == pytest.approx((out["recon"] + out["vl"]) + out["md"],
                                         abs=1e-9)


def test_compare_strategies_single_cell(tmp_path, tiny_setup):
    cfg, _ = tiny_setup
    rows = compare_strategies(cfg, ["two_stage_dual"], [2], [11],
                              out_csv=tmp_path / "out.csv")
    assert len(rows) == 1
    assert np.isfinite(rows[0]["test_loss"])
    text = (tmp_path / "out.csv").read_text().splitlines()
    assert text[0].startswith("strategy,data_size,seed,test_loss")
    assert len(text) == 2


def test_checkpoint_roundtrip(tmp_path, tiny_setup):
    cfg, scenes = tiny_setup
    params, _ = train_stage1(cfg, scenes)
    save_checkpoint(tmp_path / "ckpt", params, cfg)
    loaded, cfg2 = load_checkpoint(tmp_path / "ckpt")
    assert cfg2.to_json() == cfg.to_json()
    a = params.named_tensors()
    b = loaded.named_tensors()
    assert set(a) == set(b)
    for k in a:
        assert np.array_equal(a[k].data, b[k].data)
    # loaded params drive an identical pipeline
    ra = run_pipeline(cfg, scenes[0], params)
    rb = run_pipeline(cfg, scenes[0], loaded)
    assert np.array_equal(ra.cloud.points, rb.cloud.points)


def test_write_jsonl_deterministic(tmp_path, tiny_setup):
    cfg, scenes = tiny_setup
    _, log = train_stage1(cfg, scenes)
    write_jsonl(tmp_path / "a.jsonl", log)
    write_jsonl(tmp_path / "b.jsonl", log)
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_scene_norm_positive(tiny_setup):
    _, scenes = tiny_setup
    assert scene_norm(scenes[0]) > 0


def _graph_nodes(root) -> int:
    seen, stack = {id(root)}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def test_stage2_window_graph_node_count(tiny_setup):
    # The joint loss of one 2-frame window builds 378 recorded nodes (860
    # before the bins, centers and rotation became single nodes, 628 before
    # the expectation did: one node per frame; 626 before the adapter, the
    # frame-local blocks and the metric head's MLPs ran once per window; 527
    # before the probs and centers nodes took in their upsample matmuls; 523
    # before probs, centers and expectation became one node per frame; 519
    # before the metric and relative-depth heads ran once per window; 497
    # before each joint-loss term ran once over the window's frames; 413
    # before the camera head ran once per window). A
    # change here means ops were added to or removed from the hot path:
    # update the count only for an intended change of the graph. A window
    # smaller than `stage2_frames` runs the backbone once, unsliced, as well.
    _, scenes = tiny_setup
    scene = scenes[0]
    for stage2_frames in (2, 3):
        cfg = RunConfig(seed=11, **{**TINY, "stage2_frames": stage2_frames})
        params = init_model(cfg)
        pred = predict_window(scene.frames[:2], params, cfg)
        joint = _window_joint_loss(pred, params, cfg, scene_norm(scene))[0]
        assert _graph_nodes(joint) == 378, stage2_frames


def _stage2_traced_peak(cfg, scenes, steps: int) -> int:
    params = init_model(cfg)
    tracemalloc.start()
    try:
        train_stage2(cfg, params, scenes, steps=steps)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stage2_steps_hold_one_graph_at_a_time():
    # _optimize drops each step's loss root after backward(), so no forward
    # runs beside the previous step's graph: 3 steps peak at 0.99-1.09x one
    # step's peak here (cold or warm upsample cache), where a graph kept
    # until the next step's loss replaced it gave 1.67-1.86x.
    # A 56x56 window with 32 bins makes the graph outweigh the optimizer
    # state that only later steps hold.
    cfg = RunConfig(seed=11, **{**TINY, "resolution": (56, 56), "n_bins": 32})
    scenes = generate_scenes(cfg)
    one, three = (_stage2_traced_peak(cfg, scenes, steps) for steps in (1, 3))
    assert three < 1.35 * one, (three, one)


# ----------------------------------------------------------------------
# stage 1 as one [B, N, C] graph: bits and size
# ----------------------------------------------------------------------

def _per_sample_adapt(base, params):
    """Encoder and adapter on one [N, C] token set, with the bridge read as
    two separate attention calls, one per stream: (geom, lang)."""
    from geovid import cta
    from geovid.model import encode
    from geovid.numkit import Role, TokenSet, mha
    p = params.cta
    geom, lang = cta.project_streams(encode(base, params), p)
    if not p.bridge_count:
        return geom, lang
    bridge = TokenSet(p.bridge_init, Role.BRIDGE)
    bridge = bridge.with_tokens(
        mha(bridge.tokens, geom.tokens, geom.tokens, p.bridge_attn)
        + mha(bridge.tokens, lang.tokens, lang.tokens, p.bridge_attn))
    return cta.fuse_back(geom, bridge, p), cta.fuse_back(lang, bridge, p)


def _grads(named) -> dict:
    """Each tensor's gradient by name; tensors no loss term reaches are left out."""
    return {k: t.grad.copy() for k, t in named.items() if t.grad is not None}


def _per_sample_stage1(cfg, scenes, params):
    """Stage 1 with one graph per sample, summed sample by sample: the form
    the batched step must reproduce bit for bit. Returns the log and each
    step's gradients by tensor name."""
    from geovid.losses import LAMBDA_SC, LossReport
    from geovid.numkit import AdamW
    from geovid.train import TrainLogEntry, _jitter, _lr_at, _stage1_flags

    trainable = params.stage1_tensors()
    opt = AdamW(trainable, lr=cfg.lr)
    rng = np.random.default_rng([cfg.seed, 201])
    use_geo, use_lang, use_sc = _stage1_flags(cfg.strategy)
    lam = LAMBDA_SC if use_sc else 0.0
    log, grads = [], []
    for step in range(1, cfg.stage1_steps + 1):
        opt.lr = _lr_at(cfg, step, cfg.stage1_steps)
        acc = [None, None, None]
        for _ in range(cfg.stage1_batch):
            scene = scenes[int(rng.integers(len(scenes)))]
            frame = _jitter(scene.frames[int(rng.integers(len(scene.frames)))], rng)
            geom, lang = _per_sample_adapt(frame.base, params)
            res = distill_loss(geom, lang, frame.teacher_geom, frame.teacher_lang,
                               lam=lam, use_geo=use_geo, use_lang=use_lang)
            for i, term in enumerate((res.geo, res.lang, res.sc)):
                acc[i] = term if acc[i] is None else acc[i] + term
        inv = 1.0 / cfg.stage1_batch
        geo, lang, sc = (a * inv for a in acc)
        total = (geo + lang) + lam * sc
        opt.zero_grad()
        total.backward()
        grads.append(_grads(trainable))
        opt.step()
        log.append(TrainLogEntry(step=step, stage=1, report=LossReport(
            geo_feat=geo.item(), lang_feat=lang.item(), sc=sc.item(),
            distill_total=total.item(), lam=lam)))
    return log, grads


@pytest.mark.parametrize("batch", [1, 3, 8])
@pytest.mark.parametrize("strategy", ["two_stage_dual", "two_stage_single_teacher",
                                      "no_sc_loss"])
def test_stage1_batched_step_is_bit_identical_to_per_sample(tiny_setup, monkeypatch,
                                                             strategy, batch):
    import geovid.train

    cfg, scenes = tiny_setup
    cfg = RunConfig(seed=11, **{**TINY, "strategy": strategy, "stage1_batch": batch,
                                "stage1_steps": 3})
    grads = []

    class Recording(geovid.train.AdamW):
        def step(self):
            grads.append(_grads(self.params))
            super().step()

    monkeypatch.setattr(geovid.train, "AdamW", Recording)
    _, log = train_stage1(cfg, scenes, params=init_model(cfg))
    ref_log, ref_grads = _per_sample_stage1(cfg, scenes, init_model(cfg))
    assert [e.to_json() for e in log] == [e.to_json() for e in ref_log]
    assert len(grads) == len(ref_grads) == cfg.stage1_steps
    for got, want in zip(grads, ref_grads):
        assert got.keys() == want.keys()
        for name in want:
            assert np.array_equal(got[name], want[name]), name


def test_stage1_step_graph_node_count(tiny_setup, monkeypatch):
    # One stage-1 step builds 136 recorded nodes whatever the batch size:
    # adapter and loss run once over the stacked [B, N, C] tokens. One graph
    # per sample built 28 + 99 * B nodes (226 at batch 2, 820 at batch 8).
    # Update the count only for an intended change of the graph.
    from geovid.numkit import Tensor

    cfg, scenes = tiny_setup
    counts = []
    original = Tensor.backward

    def counting(root, *args, **kwargs):
        counts.append(_graph_nodes(root))
        return original(root, *args, **kwargs)

    monkeypatch.setattr(Tensor, "backward", counting)
    for batch in (2, 5):
        train_stage1(RunConfig(seed=11, **{**TINY, "stage1_steps": 1,
                                           "stage1_batch": batch}), scenes)
    assert counts == [136, 136]


def _per_frame_window(frames, params, cfg):
    """predict_window with one adapter graph per frame, the backbone's
    per-frame concat, block and slice loops, and one camera-head call per
    frame: the form the batched window must reproduce bit for bit."""
    from geovid import recon
    from geovid.metric_depth import predict_metric_depth
    from geovid.model import WindowPrediction
    from geovid.numkit import Role, TokenSet, concat, stack
    from _oracles import joined_cameras

    adapted = [_per_sample_adapt(f.base, params) for f in frames]
    bb = params.backbone
    rows = adapted[0][0].count + bb.camera_init.shape[0] + bb.register_init.shape[0]
    states = [concat([g.tokens, bb.camera_init, bb.register_init], axis=0)
              for g, _ in adapted]
    for i, blk in enumerate(bb.blocks):
        if i % 2 == 0:
            states = [recon._block(x, blk) for x in states]
        else:
            joint = recon._block(concat(states, axis=0), blk)
            states = [joint[k * rows:(k + 1) * rows, :] for k in range(len(frames))]
    d_rel, d_met, cams = [], [], []
    for (geom, _), x in zip(adapted, states):
        n = geom.count
        pt, ct = x[0:n, :], TokenSet(x[n:n + 1, :].reshape(1, 1, -1), Role.CAMERA)
        d_rel.append(recon.depth_head_tensor(
            TokenSet(concat([pt, geom.tokens], axis=1), Role.GEOM), cfg.resolution,
            params.depth_head))
        if cfg.md_mode != "off":
            d_met.append(predict_metric_depth(geom, cfg.resolution, params.metric))
        cams.append(recon.camera_head(ct, params.camera_head, cfg.resolution))
    return WindowPrediction(frames=list(frames),
                            lang=TokenSet.stack([lang for _, lang in adapted]),
                            cameras=joined_cameras(cams), depth_rel=stack(d_rel),
                            depth_metric=stack(d_met) if d_met else None)


@pytest.mark.parametrize("md_mode", ["full", "off"])
def test_stage2_window_is_bit_identical_to_per_frame(tiny_setup, md_mode):
    # three frames, so the order in which per-frame gradients are added
    # shows, and three frames per backbone window, so they share one
    cfg, scenes = tiny_setup
    cfg = RunConfig(seed=11, **{**TINY, "md_mode": md_mode, "stage2_frames": 3})
    params = init_model(cfg)
    window, norm = scenes[0].frames[:3], scene_norm(scenes[0])
    named = params.named_tensors()
    grads, losses = [], []
    for predict in (predict_window, _per_frame_window):
        for t in named.values():
            t.zero_grad()
        terms = _window_joint_loss(predict(window, params, cfg), params, cfg, norm)
        terms[0].backward()
        losses.append([t.item() for t in terms])
        grads.append(_grads(named))
    assert losses[0] == losses[1]
    assert grads[0].keys() == grads[1].keys()
    for name in grads[1]:
        assert np.array_equal(grads[0][name], grads[1][name]), name


def _per_frame_joint_loss(pred, params, cfg, norm):
    """_window_joint_loss with one graph per frame: each frame's terms from
    the single-frame losses of _oracles on that frame's slice of the window,
    summed from frame 0 up. The form the window's one graph must reproduce
    bit for bit."""
    from geovid.geometry import RELATIVE, CameraModel
    from geovid.numkit import Tensor
    from geovid.train import _aligned_depth_for_vl
    from _oracles import (
        frame_camera, frame_fuse_tokens, frame_md_loss, frame_recon_loss, frame_vl_loss,
    )

    depths, cams, _ = _aligned_depth_for_vl(pred, cfg, clamp=True)
    h, w = cfg.resolution
    acc = [None, None, None]
    for i, frame in enumerate(pred.frames):
        gt, cam = frame.depth, frame.camera
        gt_rel = DepthMap(gt.values / norm, scale_kind=RELATIVE, valid_mask=gt.valid_mask)
        cam_rel = CameraModel(fx=cam.fx, fy=cam.fy, cx=cam.cx, cy=cam.cy,
                              rotation=cam.rotation, translation=cam.translation / norm,
                              scale_kind=RELATIVE)
        recon = frame_recon_loss(frame_camera(pred.cameras, i), cam_rel, pred.depth_rel[i],
                                 gt_rel)[3]
        tokens, _ = frame_fuse_tokens(pred.lang.tokens[i], depths[i], cams[i],
                                      params.pos_embed, cfg.patch_size)
        vl = frame_vl_loss(tokens, frame.patch_labels, params.vl_head)
        md = (Tensor(0.0) if cfg.md_mode == "off"
              else frame_md_loss(pred.depth_metric[i].reshape(h, w), gt))
        for k, term in enumerate((recon, vl, md)):
            acc[k] = term if acc[k] is None else acc[k] + term
    inv = 1.0 / len(pred.frames)
    recon, vl, md = (a * inv for a in acc)
    return (recon + vl) + md, recon, vl, md


@pytest.mark.parametrize("grad", [True, False])
@pytest.mark.parametrize("frames", [1, 3])
@pytest.mark.parametrize("md_mode", ["full", "off", "no_alignment"])
def test_window_joint_loss_is_bit_identical_to_per_frame_loop(tiny_setup, md_mode, frames,
                                                             grad):
    # the window's one graph against one graph per frame: joint, recon, vl,
    # md and every parameter gradient, on weights moved off their init so
    # the camera head and the classifier are not at zero
    from geovid.numkit import no_grad

    cfg, scenes = tiny_setup
    cfg = RunConfig(seed=11, **{**TINY, "md_mode": md_mode})
    params = init_model(cfg)
    rng = np.random.default_rng(3)
    named = params.named_tensors()
    for t in named.values():
        t.data = t.data + 0.05 * rng.standard_normal(t.shape)
    window, norm = scenes[1].frames[:frames], scene_norm(scenes[1])
    grads, losses = [], []
    for joint_loss in (_window_joint_loss, _per_frame_joint_loss):
        for t in named.values():
            t.zero_grad()
        if grad:
            terms = joint_loss(predict_window(window, params, cfg), params, cfg, norm)
            terms[0].backward()
        else:
            with no_grad():
                terms = joint_loss(predict_window(window, params, cfg), params, cfg, norm)
        losses.append([t.item() for t in terms])
        grads.append(_grads(named))
    assert losses[0] == losses[1]
    assert grads[0].keys() == grads[1].keys()
    assert bool(grads[1]) == grad
    for name in grads[1]:
        assert np.array_equal(grads[0][name], grads[1][name]), name


def test_window_frames_must_share_one_valid_mask(tiny_setup):
    # every generated or loaded scene has all-valid masks; a window whose
    # frames disagree is a ShapeError, and a shared empty mask stays a
    # DegenerateInputError
    from dataclasses import replace as dc_replace

    from geovid.errors import DegenerateInputError, ShapeError

    cfg, scenes = tiny_setup
    params = init_model(cfg)
    frames, norm = scenes[0].frames[:2], scene_norm(scenes[0])
    assert all(f.depth.valid_mask.all() for s in scenes for f in s.frames)

    def masked(frame, mask):
        depth = DepthMap(frame.depth.values, scale_kind=frame.depth.scale_kind,
                         valid_mask=mask)
        return dc_replace(frame, depth=depth)

    holed = np.ones(cfg.resolution, dtype=bool)
    holed[3, 5] = False
    window = [masked(frames[0], holed), frames[1]]
    with pytest.raises(ShapeError, match="share one valid mask"):
        _window_joint_loss(predict_window(window, params, cfg), params, cfg, norm)
    # the same hole in both frames is a valid window
    window = [masked(f, holed) for f in frames]
    joint = _window_joint_loss(predict_window(window, params, cfg), params, cfg, norm)[0]
    assert np.isfinite(joint.item())
    empty = np.zeros(cfg.resolution, dtype=bool)
    window = [masked(f, empty) for f in frames]
    with pytest.raises(DegenerateInputError, match="no valid pixels"):
        _window_joint_loss(predict_window(window, params, cfg), params, cfg, norm)
