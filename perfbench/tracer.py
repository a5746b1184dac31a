"""Outside-in layer tracing: wrap public functions of geovid by attribute.

Every wrapped name is a module (or class) attribute that geovid looks up at
call time, so replacing the attribute routes the program's own calls through
a span without editing the program. Spans nest per thread; a layer's self
time is its span time minus the time of the spans it encloses.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict

import geovid.cli
import geovid.metric_depth
import geovid.model
import geovid.numkit.vlt
import geovid.recon
import geovid.synthscene
import geovid.train
from geovid.numkit.optim import AdamW
from geovid.numkit.tensor import Tensor

BACKBONE = "recon.backbone"

# (owner, attribute, layer name). Owners are the modules whose code makes the
# call, because `from x import f` binds f in the caller's namespace.
SPANS = [
    (geovid.model, "encode", "model.encode"),
    (geovid.model, "cta_forward", "cta"),
    (geovid.model, "gfa_backbone", BACKBONE),
    (geovid.model, "camera_head", "recon.camera_head"),
    (geovid.model, "depth_head_tensor", "recon.depth_head"),
    (geovid.model, "predict_metric_depth", "metric_depth"),
    (geovid.metric_depth, "bin_logits_to_probs", "metric_depth.probs"),
    (geovid.metric_depth, "bounded_centers", "metric_depth.centers"),
    (geovid.metric_depth, "expected_depth_tensor", "metric_depth.expectation"),
    (geovid.train, "scene_scale", "scale_align"),
    (geovid.train, "apply_scale", "scale_align"),
    (geovid.train, "fuse_tokens", "patch3d.fuse"),
    (geovid.train, "backproject_grid", "patch3d.backproject"),
    (geovid.cli, "write_ply", "patch3d.ply"),
    (geovid.train, "distill_loss", "losses.distill"),
    (geovid.train, "recon_task_loss", "losses.recon"),
    (geovid.train, "vl_proxy_loss", "losses.vl"),
    (geovid.train, "metric_depth_loss", "losses.md"),
    (Tensor, "backward", "numkit.backward"),
    (AdamW, "step", "numkit.adamw"),
    (geovid.numkit.vlt, "read_record", "numkit.vlt.read"),
    (geovid.numkit.vlt, "write_record", "numkit.vlt.write"),
    (geovid.train, "gen_scene", "synthscene.gen"),
    (geovid.synthscene, "save_scene", "synthscene.save"),
    (geovid.synthscene, "load_scene", "synthscene.load"),
    (geovid.cli, "load_scene", "synthscene.load"),
    (geovid.train, "pose_metrics", "evalmetrics.pose"),
    (geovid.train, "depth_metrics", "evalmetrics.depth"),
    (geovid.train, "pointcloud_metrics", "evalmetrics.cloud"),
]

# The backbone's attention and MLP calls, split by whether their input holds
# one frame's tokens or the whole window's. recon.mlp also serves the heads,
# whose spans then keep that time as their own.
BLOCK_CALLS = [(geovid.recon, "mha"), (geovid.recon, "mlp")]

LAYERS = sorted({name for _, _, name in SPANS}
                | {BACKBONE + ".local", BACKBONE + ".global"})


def graph_nodes(root: Tensor) -> int:
    """Nodes reachable from `root` through recorded parents (root included)."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _vlt_bytes(arr) -> int:
    return 6 + 8 * arr.ndim + arr.nbytes   # magic, tag, ndim, dims, payload


class Tracer:
    """Self time, calls and errors per layer, plus a few counts."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.counts = defaultdict(float)
        self._saved = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name`."""
        stack = self._stack()
        frame = [name, 0.0]                  # [layer, time in child spans]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            with self._lock:
                self.errors[name] += 1
            raise
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += dt
            with self._lock:
                self.self_s[name] += dt - frame[1]
                self.calls[name] += 1

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] += amount

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def install(self) -> None:
        for owner, attr, name in SPANS:
            self._patch(owner, attr, self._span_wrapper(name))
        self._patch(geovid.model, "gfa_backbone", self._backbone_wrapper)
        for owner, attr in BLOCK_CALLS:
            self._patch(owner, attr, self._block_wrapper)
        self._patch(Tensor, "backward", self._backward_wrapper)
        self._patch(geovid.numkit.vlt, "read_record", self._read_wrapper)
        self._patch(geovid.numkit.vlt, "write_record", self._write_wrapper)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def active(self):
        """Route geovid's calls through the spans inside the block."""
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def _span_wrapper(self, name: str):
        def wrapper(original):
            def call(*args, **kwargs):
                return self.run(name, original, *args, **kwargs)
            return call
        return wrapper

    def _backbone_wrapper(self, original):
        def call(frames, p, *args, **kwargs):
            # rows one frame contributes: its patches plus camera and registers
            self._local.frame_rows = (frames[0].count + p.camera_init.shape[0]
                                      + p.register_init.shape[0])
            return original(frames, p, *args, **kwargs)
        return call

    def _block_wrapper(self, original):
        def call(x, *args, **kwargs):
            stack = self._stack()
            if not stack or stack[-1][0] != BACKBONE:
                return original(x, *args, **kwargs)
            scope = "global" if x.shape[0] > self._local.frame_rows else "local"
            return self.run(f"{BACKBONE}.{scope}", original, x, *args, **kwargs)
        return call

    def _backward_wrapper(self, original):
        def call(root, *args, **kwargs):
            self.count("numkit.graph_nodes", graph_nodes(root))
            return original(root, *args, **kwargs)
        return call

    def _read_wrapper(self, original):
        def call(fh):
            arr = original(fh)
            self.count("numkit.vlt.bytes_read", _vlt_bytes(arr))
            return arr
        return call

    def _write_wrapper(self, original):
        def call(fh, arr):
            self.count("numkit.vlt.bytes_written", _vlt_bytes(arr))
            return original(fh, arr)
        return call
