"""The four benchmark workloads, driven through geovid's public functions.

Each workload builds its inputs from the seed in `prepare()`, warms up in
`setup()`, runs one batch of ops per `batch()` call and checks a batch's
outputs in `check()`. An op is a training step (distill, joint), a frame
(infer) or a scene (scenes). `batch()` returns a (wall ms, rescaled ms)
pair per op; `check()` returns the number of failed ops and a record of the
batch's deterministic outputs. Batches with equal `record_key` must produce
equal records.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import hashlib
import io
import json
import math
import statistics
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import geovid.cli
import geovid.synthscene
import geovid.train
from geovid.config import RunConfig
from geovid.errors import GeovidError
from geovid.model import init_model, save_checkpoint
from geovid.numkit import AdamW, vlt
from geovid.synthscene import TokenizerConfig

FIXTURES = Path(__file__).resolve().parent / "fixtures"
CANARY = FIXTURES / "canary.json"   # the canary's figures, written by make_fixtures.py
CANARY_RTOL = 1e-6   # relative change of a canary figure that fails the run
FIXTURE_SEED = 7   # the fixtures' training seed; it also fixes their tokenizer
LAST_STEPS = 5     # loss_final averages the logged totals of this many last steps
ROTATION_ATOL = 1e-12   # cameras persist as quaternions, so rotations round-trip inexactly


class OpFailed(Exception):
    """An op ended without producing its outputs."""


EXPECTED_ERRORS = (GeovidError, OpFailed)


@dataclass
class Sizes:
    name: str
    frames: int           # frames per generated scene
    scenes: int           # training scenes (distill, joint) or held-out scenes (infer)
    steps: int            # optimizer steps per training batch
    scene_batch: int      # scenes generated per batch (scenes)
    setups: int           # set-ups timed for setup_s


FULL = Sizes("full", frames=32, scenes=4, steps=10, scene_batch=2, setups=5)
TINY = Sizes("tiny", frames=8, scenes=2, steps=2, scene_batch=2, setups=1)


def load_fixture(name: str):
    """(params, config) of a checked-in checkpoint, widened to float64.

    A fixture may hold a subset of the tensors (the distilled one holds the
    encoder and adapter); the rest keep their init_model values.
    """
    with np.load(FIXTURES / f"{name}.npz") as z:
        cfg = RunConfig.from_json(json.loads(str(z["__config__"])))
        arrays = {k: z[k].astype(np.float64) for k in z.files if k != "__config__"}
    params = init_model(cfg)
    named = params.named_tensors()
    for key, arr in arrays.items():
        if key not in named or named[key].data.shape != arr.shape:
            raise SystemExit(f"fixture {name} does not match the model at '{key}'")
        named[key].data = arr
    return params, cfg


def make_scenes(cfg: RunConfig, count: int, held_out: bool = False):
    """This seed's scenes, tokenized like the scenes the fixtures learned from.

    generate_scenes would tie the tokenizer to the seed too, and a checkpoint
    reads tokens of another tokenizer as noise.
    """
    tok = TokenizerConfig(dim=cfg.dim, noise=cfg.token_noise, seed=FIXTURE_SEED,
                          patch_size=cfg.patch_size)
    return [geovid.train.gen_scene(s, n_frames=cfg.frames_per_scene,
                                   resolution=cfg.resolution, n_objects=cfg.n_objects,
                                   tokenizer=tok)
            for s in geovid.train.scene_seeds(cfg, count, held_out)]


def finite(x: float, lo: float = -math.inf, hi: float = math.inf) -> bool:
    return math.isfinite(x) and lo <= x <= hi


# A fixed numpy kernel of the same grain as geovid's ops: [21, 64] matmuls,
# elementwise math and Python float reads. Timed next to each op, it tells
# how fast this machine runs such work at that moment; on a shared machine
# that speed swings by 15-60% within seconds.
_CAL_X = np.linspace(-1.0, 1.0, 21 * 64).reshape(21, 64)
_CAL_W = np.linspace(-0.1, 0.1, 64 * 64).reshape(64, 64)
CAL_REF_MS = 2.0   # about the kernel's median time on the 2-core Xeon the bounds were set on


def calibrate() -> float:
    """Milliseconds the calibration kernel takes now.

    The collector is off while it runs, so a collection the measured work
    has made due stays in that work's time instead of the kernel's.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        x = _CAL_X
        for _ in range(60):
            h = x @ _CAL_W
            h = np.tanh(h) + 0.5 * h
            x = h / (np.sqrt((h * h).mean(axis=-1, keepdims=True)) + 1e-8)
            sum(float(v) for v in x[0, :8])
        return (time.perf_counter() - t0) * 1000.0
    finally:
        if enabled:
            gc.enable()


class Laps:
    """Splits a training run at each optimizer step and times the kernel there.

    `lap()` closes the segment since the previous lap, then runs the
    calibration kernel, whose own time belongs to no segment.
    """

    def __init__(self):
        self.start()

    def start(self) -> None:
        self.segments: list[tuple[float, float]] = []   # (ms, kernel ms)
        self.last = time.perf_counter()

    def lap(self) -> None:
        end = time.perf_counter()
        self.segments.append(((end - self.last) * 1000.0, calibrate()))
        self.last = time.perf_counter()


def timed(fn) -> tuple[float, float]:
    """(wall ms, rescaled ms) of fn(), by the median of kernel runs around it.

    One 2 ms kernel run that the scheduler preempts can read twice its time;
    the median of six ignores such a run.
    """
    kernel = [calibrate() for _ in range(3)]
    t0 = time.perf_counter()
    fn()
    ms = (time.perf_counter() - t0) * 1000.0
    kernel += [calibrate() for _ in range(3)]
    return ms, ms * CAL_REF_MS / statistics.median(kernel)


class Workload:
    op = "op"
    inject = (None, None)          # (owner, attribute) that --inject-failure breaks

    def __init__(self, seed: int, sizes: Sizes, work: Path):
        self.sizes = sizes
        self.work = work
        self.cfg = RunConfig(seed=seed, frames_per_scene=sizes.frames)

    def setup(self) -> None:
        self.prepare()
        self.warm_up()

    def warm_up(self) -> None:
        self.batch(0)

    def record_key(self, index: int) -> int:
        return 0

    def quality(self, records: list) -> dict[str, float]:
        """loss_final, absrel and fscore: deterministic for a seed."""
        return {"loss_final": self.loss_final(records), **self.accuracy(records)}

    def loss_final(self, records: list) -> float:
        """Joint loss of the trained checkpoint on the workload's scenes."""
        params, cfg = load_fixture("trained")
        return geovid.train.evaluate_test_loss(cfg, params, self.scenes)["joint"]

    def accuracy(self, records: list) -> dict[str, float]:
        """AbsRel and F-score of the trained checkpoint on the first scene."""
        params, cfg = load_fixture("trained")
        report = geovid.train.run_pipeline(cfg, self.scenes[0], params).metrics
        return {"absrel": report.depth["AbsRel"], "fscore": report.recon["Fscore"]}


class Training(Workload):
    """Shared loop of distill and joint: a batch is a fixed-length training
    run from fixed weights, so every batch logs the same losses."""

    op = "step"
    total_field = ""

    def __init__(self, seed, sizes, work):
        super().__init__(seed, sizes, work)
        self.laps = laps = Laps()

        class LappedAdamW(AdamW):
            """geovid.train looks `AdamW` up at call time, so its loops build
            this subclass, which laps after each step."""

            def step(self):
                super().step()
                laps.lap()

        geovid.train.AdamW = LappedAdamW

    def ops_per_batch(self) -> int:
        return self.sizes.steps

    def prepare(self) -> None:
        self.scenes = make_scenes(self.cfg, self.sizes.scenes)
        self.start = self.initial_params()

    def warm_up(self) -> None:
        self.train(copy.deepcopy(self.start), 2)

    def batch(self, index: int):
        params = copy.deepcopy(self.start)
        self.laps.start()
        log = self.train(params, self.sizes.steps)
        return [(ms, ms * CAL_REF_MS / kernel) for ms, kernel in self.laps.segments], log

    def check(self, log):
        failed = 0
        for entry in log:
            values = [float(v) for v in entry.report.to_json().values()]
            total = getattr(entry.report, self.total_field)
            if not (finite(total, lo=0.0) and all(map(finite, values))):
                failed += 1
        record = tuple(json.dumps(e.to_json(), sort_keys=True) for e in log)
        return failed, record

    def loss_final(self, records: list) -> float:
        """Mean logged total loss over the last steps of a batch."""
        totals = [json.loads(r)["losses"][self.total_field] for r in records[0]]
        return float(np.mean(totals[-LAST_STEPS:]))


class Distill(Training):
    """train_stage1, batch 8, from init_model weights."""

    total_field = "distill_total"
    inject = (geovid.train, "distill_loss")

    def initial_params(self):
        return init_model(self.cfg)

    def train(self, params, steps: int):
        cfg = replace(self.cfg, stage1_steps=steps)
        return geovid.train.train_stage1(cfg, self.scenes, params=params)[1]


class Joint(Training):
    """train_stage2, 4-frame windows, from the distilled checkpoint."""

    total_field = "joint_total"
    inject = (geovid.train, "recon_task_loss")

    def initial_params(self):
        return load_fixture("distilled")[0]

    def train(self, params, steps: int):
        return geovid.train.train_stage2(self.cfg, params, self.scenes, steps=steps)[1]


class Infer(Workload):
    """`geovid infer` on held-out scenes: load_scene, run_pipeline, artifacts."""

    op = "frame"
    inject = (geovid.train, "pointcloud_metrics")

    def ops_per_batch(self) -> int:
        return self.sizes.frames

    def record_key(self, index: int) -> int:
        return index % self.sizes.scenes

    def prepare(self) -> None:
        self.ckpt = self.work / "ckpt"
        save_checkpoint(self.ckpt, *load_fixture("trained"))
        self.scenes = make_scenes(self.cfg, self.sizes.scenes, held_out=True)
        self.scene_dirs = []
        for i, scene in enumerate(self.scenes):
            self.scene_dirs.append(self.work / f"scene_{i:04d}")
            geovid.synthscene.save_scene(self.scene_dirs[-1], scene)
        self.out = self.work / "pred"

    def infer(self, scene_dir: Path) -> None:
        try:
            geovid.cli.infer_cmd.callback(ckpt=str(self.ckpt), scene_path=str(scene_dir),
                                          out=str(self.out))
        except SystemExit as exc:                  # the CLI's exit-code mapping
            raise OpFailed(f"geovid infer exited with {exc.code}") from exc

    def batch(self, index: int):
        scene_dir = self.scene_dirs[self.record_key(index)]
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            wall, scaled = timed(lambda: self.infer(scene_dir))
        if caught:
            raise OpFailed(f"geovid infer warned: {caught[0].message}")
        frames = self.sizes.frames
        return [(wall / frames, scaled / frames)] * frames, None

    def check(self, _):
        with open(self.out / "metrics.json") as fh:
            metrics = json.load(fh)
        with open(self.out / "scale.json") as fh:
            scale = json.load(fh)
        failed = 0
        for i in range(self.sizes.frames):
            depth = vlt.load_tensor(self.out / "depth" / f"frame_{i:03d}.vlt")
            if depth.shape != self.cfg.resolution or not (
                    np.all(np.isfinite(depth)) and np.all(depth > 0)):
                failed += 1
        ranged = [finite(v, 0.0, 100.0) for v in metrics["pose"].values()]
        ranged += [finite(metrics["depth"][k], 0.0) for k in ("AbsRel", "RMSE", "log10")]
        ranged += [finite(metrics["depth"]["delta1"], 0.0, 1.0)]
        ranged += [finite(metrics["recon"][k], 0.0, 1.0) for k in ("Prec", "Recall", "Fscore")]
        ranged += [finite(scale["scene_factor"], 0.0) and scale["scene_factor"] > 0]
        if not all(ranged):
            failed = self.sizes.frames
        return failed, (json.dumps(metrics, sort_keys=True), json.dumps(scale, sort_keys=True))

    def accuracy(self, records: list) -> dict[str, float]:
        """The CLI's own AbsRel and F-score, averaged over the records."""
        reports = [json.loads(r[0]) for r in records]
        return {"absrel": float(np.mean([m["depth"]["AbsRel"] for m in reports])),
                "fscore": float(np.mean([m["recon"]["Fscore"] for m in reports]))}


def scene_arrays(scene) -> dict[str, np.ndarray]:
    """Every array a scene persists, by name (rotations apart)."""
    out = {}
    for f in scene.frames:
        cam = f.camera
        out.update({
            f"{f.index}.camera": np.array([cam.fx, cam.fy, cam.cx, cam.cy, *cam.translation]),
            f"{f.index}.depth": f.depth.values,
            f"{f.index}.labels": f.labels,
            f"{f.index}.summary": f.patch_summary,
            f"{f.index}.patch_labels": f.patch_labels,
            f"{f.index}.base": f.base.tokens.data,
            f"{f.index}.teacher_geom": f.teacher_geom.tokens.data,
            f"{f.index}.teacher_lang": f.teacher_lang.tokens.data,
        })
    return out


def round_trips(a, b) -> bool:
    """Scene b, loaded from disk, holds scene a's arrays and cameras."""
    arrays, back = scene_arrays(a), scene_arrays(b)
    return (len(a.frames) == len(b.frames)
            and arrays.keys() == back.keys()
            and all(arrays[k].shape == back[k].shape and np.array_equal(arrays[k], back[k])
                    for k in arrays)
            and all(np.allclose(fa.camera.rotation, fb.camera.rotation,
                                rtol=0.0, atol=ROTATION_ATOL)
                    for fa, fb in zip(a.frames, b.frames)))


class Scenes(Workload):
    """generate_scenes, then save_scene/load_scene for each scene."""

    op = "scene"
    inject = (geovid.train, "gen_scene")

    def ops_per_batch(self) -> int:
        return self.sizes.scene_batch

    def prepare(self) -> None:
        self.made = []          # the latest batch's scenes
        self.scenes = []        # the same scenes, as loaded back

    def round_trip(self) -> None:
        self.made = geovid.train.generate_scenes(self.cfg, count=self.sizes.scene_batch)
        self.scenes = []
        for i, scene in enumerate(self.made):
            geovid.synthscene.save_scene(self.work / f"scene_{i:04d}", scene)
            self.scenes.append(geovid.synthscene.load_scene(self.work / f"scene_{i:04d}"))

    def batch(self, index: int):
        wall, scaled = timed(self.round_trip)
        n = len(self.made)
        return [(wall / n, scaled / n)] * n, (self.made, self.scenes)

    def check(self, pair):
        made, loaded = pair
        failed = 0
        digest = hashlib.sha256()
        for a, b in zip(made, loaded):
            depth_ok = all(np.all(np.isfinite(f.depth.values)) and np.all(f.depth.values > 0)
                           for f in a.frames)
            failed += not (depth_ok and round_trips(a, b))
            arrays = scene_arrays(a)
            for k in sorted(arrays):
                digest.update(np.ascontiguousarray(arrays[k]).tobytes())
        return failed, digest.hexdigest()


WORKLOADS = {"distill": Distill, "joint": Joint, "infer": Infer, "scenes": Scenes}


def canary_quality(name: str, sizes: Sizes, work: Path) -> dict[str, float]:
    """loss_final, absrel and fscore of one batch on the fixtures' own seed.

    The timed runs draw their inputs from --seed, and these figures vary
    with the scenes by far more than any bound; on one fixed input they
    repeat exactly, so a change to them is a change to the math.
    """
    w = WORKLOADS[name](FIXTURE_SEED, sizes, work)
    w.prepare()
    _, out = w.batch(0)
    failed, record = w.check(out)
    if failed:
        raise OpFailed(f"{failed} op(s) of the canary batch failed")
    return w.quality([record])


def canary_drift(name: str, sizes: Sizes, quality: dict[str, float]) -> list[str]:
    """The canary figures that moved from the stored ones by more than
    CANARY_RTOL, up or down: either way the math changed."""
    expected = json.loads(CANARY.read_text())[sizes.name][name]
    return [key for key, value in expected.items()
            if not abs(quality[key] - value) <= CANARY_RTOL * abs(value)]
