"""Independent brute-force reference implementations used by the test
suite to cross-check the production metric code. Everything here is
written from the metric definitions with plain loops; keep it decoupled
from geovid.evalmetrics internals. Below them, the single-frame stage-2
losses that the window losses must reproduce bit for bit."""

import numpy as np

from geovid.geometry import bilinear_sample
from geovid.numkit import Tensor, arccos, concat, exp, log, matmul, mlp, tabs, tmean, tsum
from geovid.patch3d import _pixels_to_world


def pose_pair_errors_oracle(pred, gt):
    """Scalar double-loop over ordered camera pairs (i != j, row-major): every
    rotation error, the translation-direction errors of the kept pairs, and
    the keep mask. A pair drops out of the translation errors when either
    relative translation has zero length."""
    n = len(pred)
    rot_errs = []
    trans_errs = []
    keep = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rp = pred[i].rotation @ pred[j].rotation.T
            tp = pred[i].translation - rp @ pred[j].translation
            rg = gt[i].rotation @ gt[j].rotation.T
            tg = gt[i].translation - rg @ gt[j].translation
            c = (np.trace(rp @ rg.T) - 1.0) / 2.0
            rot_errs.append(float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0)))))
            keep.append(not (np.linalg.norm(tp) < 1e-12 or np.linalg.norm(tg) < 1e-12))
            if not keep[-1]:
                continue
            ct = float(tp @ tg) / (float(np.linalg.norm(tp)) * float(np.linalg.norm(tg)))
            trans_errs.append(float(np.degrees(np.arccos(np.clip(ct, -1.0, 1.0)))))
    return (np.asarray(rot_errs, dtype=float), np.asarray(trans_errs, dtype=float),
            np.asarray(keep, dtype=bool))


def pose_metrics_oracle(pred, gt):
    """RRA@15, RTA@15 and mAA(30) from the per-pair loop; mirrors the
    documented exclusion rule (zero-length relative translation pairs drop
    out of the translation-dependent metrics)."""
    rot_errs, trans_errs, keep = pose_pair_errors_oracle(pred, gt)
    max_errs = [max(r, t) for r, t in zip(rot_errs[keep].tolist(), trans_errs.tolist())]
    rra = float(np.mean(rot_errs < 15.0) * 100.0)
    if len(trans_errs):
        rta = float(np.mean(trans_errs < 15.0) * 100.0)
        maa = float(np.mean([np.mean(np.asarray(max_errs) < tau)
                             for tau in range(1, 31)]) * 100.0)
    else:
        rta = 0.0
        maa = 0.0
    return {"RRA@15": rra, "RTA@15": rta, "mAA30": maa}


def depth_metrics_oracle(pred_vals, gt_vals, mask):
    ps, gs = [], []
    h, w = gt_vals.shape
    for j in range(h):
        for i in range(w):
            if mask[j, i]:
                ps.append(pred_vals[j, i])
                gs.append(gt_vals[j, i])
    ps = np.asarray(ps)
    gs = np.asarray(gs)
    return {
        "AbsRel": float(np.mean(np.abs(ps - gs) / gs)),
        "RMSE": float(np.sqrt(np.mean((ps - gs) ** 2))),
        "log10": float(np.mean(np.abs(np.log10(ps) - np.log10(gs)))),
        "delta1": float(np.mean(np.maximum(ps / gs, gs / ps) < 1.25)),
    }


def pointcloud_metrics_oracle(pred_pts, gt_pts, tau):
    def nn_dists(src, dst):
        out = np.empty(len(src))
        for i, p in enumerate(src):
            out[i] = np.sqrt(((dst - p) ** 2).sum(axis=1)).min()
        return out

    d_pred = nn_dists(pred_pts, gt_pts)
    d_gt = nn_dists(gt_pts, pred_pts)
    prec = float(np.mean(d_pred < tau))
    rec = float(np.mean(d_gt < tau))
    f = 0.0 if (prec + rec) == 0 else 2.0 * prec * rec / (prec + rec)
    return {"Acc": float(np.mean(d_pred)), "Comp": float(np.mean(d_gt)),
            "Prec": prec, "Recall": rec, "Fscore": f}


# ----------------------------------------------------------------------
# The stage-2 losses one frame at a time, each frame with its own graph:
# the single-frame forms the window losses replaced. A window's per-frame
# terms, and every gradient of their sum, must equal these bit for bit,
# with the frames' terms summed from frame 0 up.
# ----------------------------------------------------------------------

def _frame_valid_pixels(pred, gt_depth):
    idx = np.nonzero(gt_depth.valid_mask.reshape(-1))[0]
    return pred.reshape(pred.size)[idx], Tensor(gt_depth.values.reshape(-1)[idx])


def frame_md_loss(pred, gt_depth, alpha=1.0, eps=1e-6):
    """Robust log-depth loss of one [H, W] prediction against one DepthMap."""
    p, g = _frame_valid_pixels(pred, gt_depth)
    e = log(p + eps) - log(g + eps)
    b = tmean(e)
    r = e - b
    return b * b + tmean(r * r / (1.0 + alpha * tabs(r)))


def frame_recon_loss(cam, gt_cam, depth, gt_depth):
    """(pose, depth, pointmap, total) of one frame: its CameraPrediction and
    [H, W] depth against a CameraModel and a DepthMap."""
    p, g = _frame_valid_pixels(depth, gt_depth)
    t_diff = cam.translation - Tensor(gt_cam.translation)
    rel = matmul(cam.rotation_tensor(), Tensor(np.asarray(gt_cam.rotation).T))
    angle = arccos((rel[0, 0] + rel[1, 1] + rel[2, 2] - 1.0) * 0.5)
    pose = angle * angle + tsum(t_diff * t_diff)
    depth_l1 = tmean(tabs(p - g))
    h, w = depth.shape
    jj, ii = np.nonzero(gt_depth.valid_mask)
    d = depth.reshape(h * w)[jj * w + ii].reshape(-1, 1)
    px = Tensor(np.stack([ii - cam.cx, jj - cam.cy], axis=1))
    inv_f = concat([(1.0 / cam.fx).reshape(1), (1.0 / cam.fy).reshape(1)], axis=0)
    xy = px * inv_f.reshape(1, 2) * d
    pts = matmul(concat([xy, d], axis=1) - cam.translation.reshape(1, 3),
                 cam.rotation_tensor())
    gt_pts = _pixels_to_world(ii, jj, gt_depth.values[jj, ii], gt_cam)
    pointmap = tmean(tabs(pts - Tensor(gt_pts)))
    return pose, depth_l1, pointmap, (pose + depth_l1) + pointmap


def frame_vl_loss(tokens, labels, head):
    """Mean cross-entropy of the classifier over one frame's [N, C] tokens."""
    logits = mlp(tokens, head)
    z = logits - Tensor(logits.data.max(axis=1, keepdims=True))
    log_norm = log(tsum(exp(z), axis=1, keepdims=True))
    onehot = np.zeros((len(labels), head.out_dim))
    onehot[np.arange(len(labels)), labels] = 1.0
    return -tmean(tsum((z - log_norm) * Tensor(onehot), axis=1))


def frame_fuse_tokens(tokens, depth, cam, p, patch_size):
    """(t3d tokens [N, C], anchors [N, 3]) of one frame's [N, C] language tokens."""
    h, w = depth.shape
    gh, gw = h // patch_size, w // patch_size
    cy = np.repeat(np.arange(gh) * patch_size + (patch_size - 1) / 2.0, gw)
    cx = np.tile(np.arange(gw) * patch_size + (patch_size - 1) / 2.0, gh)
    anchors = _pixels_to_world(cx, cy, bilinear_sample(depth.values, cx, cy), cam)
    return tokens + mlp(Tensor(anchors), p), anchors


# ----------------------------------------------------------------------
# the scene forward as per-window calls, stitched field by field: the form
# one `predict_window` call over a whole scene must reproduce bit for bit
# ----------------------------------------------------------------------

def stitched_windows(frames, params, cfg):
    """`predict_window` on each `cfg.stage2_frames` slice of `frames`, the
    slices' fields joined in frame order into one WindowPrediction."""
    from geovid.model import WindowPrediction, predict_window
    from geovid.numkit import Role, TokenSet

    k = cfg.stage2_frames
    wins = [predict_window(frames[lo:lo + k], params, cfg) for lo in range(0, len(frames), k)]
    return WindowPrediction(
        frames=list(frames), lang=TokenSet(concat([w.lang.tokens for w in wins]), Role.LANG),
        cameras=[c for w in wins for c in w.cameras],
        depth_rel=concat([w.depth_rel for w in wins]),
        depth_metric=(None if cfg.md_mode == "off"
                      else concat([w.depth_metric for w in wins])))
