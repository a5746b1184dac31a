"""Independent brute-force reference implementations used by the test
suite to cross-check the production metric code. Everything here is
written from the metric definitions with plain loops; keep it decoupled
from geovid.evalmetrics internals."""

import numpy as np


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
