"""Deterministic synthetic scenes.

A scene is an axis-aligned room with boxes on the floor. Cameras orbit
above the boxes looking inward, and analytic ray casting against the
primitives yields exact per-pixel depth (camera-frame z), class labels
and surface normals, which makes every downstream quantity oracle
checkable. Base tokens are a fixed random linear map of per-patch
summaries (mean depth, mean camera-frame normal, class histogram, patch
coordinates) plus small seeded noise; teacher tokens are unit-normalized
fixed embeddings of the geometric and semantic parts of the same summary,
so the distillation stage has a known reachable optimum.

Regenerating with the same seed is bit-identical.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import read_json, write_json
from .errors import ParameterError
from .geometry import (
    GROUND_TRUTH, METRIC, CameraModel, DepthMap, look_at_rotation,
)
from .numkit import Role, Tensor, TokenSet, vlt

# class ids; 0 is reserved/unused so every surface has a nonzero label
FLOOR, CEILING, WALL_X0, WALL_X1, WALL_Y0, WALL_Y1 = 1, 2, 3, 4, 5, 6
OBJECT_CLASS_BASE = 7
N_OBJECT_CLASSES = 4
NUM_CLASSES = OBJECT_CLASS_BASE + N_OBJECT_CLASSES  # 11

DEPTH_SCALE = 5.0   # token depths divided by this to stay O(1)
DEFAULT_FOV = np.deg2rad(70.0)

# room-face class by [exit axis, exit direction is positive]
_ROOM_FACE_CLASS = np.array([[WALL_X0, WALL_X1], [WALL_Y0, WALL_Y1], [FLOOR, CEILING]],
                            dtype=np.int16)


@dataclass
class Box:
    lo: np.ndarray
    hi: np.ndarray
    class_id: int

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=np.float64).reshape(3)
        self.hi = np.asarray(self.hi, dtype=np.float64).reshape(3)
        if np.any(self.hi <= self.lo):
            raise ParameterError("box needs hi > lo on every axis")

    def to_json(self) -> dict:
        return {"lo": self.lo.tolist(), "hi": self.hi.tolist(),
                "class_id": self.class_id}

    @staticmethod
    def from_json(obj: dict) -> "Box":
        return Box(lo=np.array(obj["lo"]), hi=np.array(obj["hi"]),
                   class_id=int(obj["class_id"]))


@dataclass
class SceneGeometry:
    room: Box            # cameras live strictly inside; faces are labeled
    objects: list[Box]


@dataclass
class TokenizerConfig:
    """Fixed random projections shared by every scene of one run."""

    dim: int = 64
    noise: float = 0.01
    seed: int = 0
    patch_size: int = 14

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(obj: dict) -> "TokenizerConfig":
        return TokenizerConfig(dim=int(obj["dim"]), noise=float(obj["noise"]),
                               seed=int(obj["seed"]), patch_size=int(obj["patch_size"]))


@dataclass
class FrameData:
    index: int
    camera: CameraModel          # ground-truth pose, metric scale
    depth: DepthMap              # scale_kind ground_truth
    labels: np.ndarray           # [H, W] int16 class ids
    patch_summary: np.ndarray    # [P, 4 + NUM_CLASSES + 2] float
    patch_labels: np.ndarray     # [P] majority class per patch
    noise_seed: int
    base: TokenSet | None = None
    teacher_geom: TokenSet | None = None
    teacher_lang: TokenSet | None = None


@dataclass
class SceneSample:
    geometry: SceneGeometry
    frames: list[FrameData]
    seed: int
    resolution: tuple[int, int]
    tokenizer: TokenizerConfig


# ----------------------------------------------------------------------
# ray casting
# ----------------------------------------------------------------------

def _first_index(rows: np.ndarray, beats) -> np.ndarray:
    """Per column, np.argmin (beats=np.less) or np.argmax (np.greater) of 3 rows."""
    past1 = beats(rows[1], rows[0])   # strict, so ties keep the first row
    return np.where(beats(rows[2], np.where(past1, rows[1], rows[0])), 2, past1.astype(np.intp))


def cast_pixels(cam: CameraModel, geom: SceneGeometry,
                ii: np.ndarray, jj: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First-hit along pixel rays: (depth = camera z, class id, camera-frame normal).

    ii/jj are continuous pixel coordinates (column, row) of any shape. The
    camera center must lie strictly inside the room.
    """
    origin = cam.center()
    if not (np.all(geom.room.lo < origin) and np.all(origin < geom.room.hi)):
        raise ParameterError(f"camera center {origin.tolist()} is not strictly inside the room")
    ii = np.asarray(ii, dtype=np.float64).reshape(-1)
    jj = np.asarray(jj, dtype=np.float64).reshape(-1)
    dirs_cam = np.stack([(ii - cam.cx) / cam.fx, (jj - cam.cy) / cam.fy,
                         np.ones_like(ii)], axis=1)
    dirs = (dirs_cam @ cam.rotation).T.copy()   # [3, n] world dirs, camera-z component 1
    cols = np.arange(dirs.shape[1])
    # sign-preserving floor so zero components behave like +/-epsilon rays
    d_safe = np.copysign(np.maximum(np.abs(dirs), 1e-300), dirs)

    # room exit face; every exit distance is positive, so min equals argmin's pick
    t_face = np.where(d_safe > 0, (geom.room.hi - origin)[:, None],
                      (geom.room.lo - origin)[:, None]) / d_safe
    t = t_face.min(axis=0)
    axis = _first_index(t_face, np.less)
    positive = dirs[axis, cols] > 0
    classes = _ROOM_FACE_CLASS[axis, positive.astype(np.intp)]
    normal = np.where(positive, -1.0, 1.0)   # interior face normal's `axis` component

    # object entries, nearest hit wins (a hit's t_near > 0, so max has argmax's bits)
    for box in geom.objects:
        t1 = (box.lo - origin)[:, None] / d_safe
        t2 = (box.hi - origin)[:, None] / d_safe
        t_near_ax = np.minimum(t1, t2)
        t_near, t_far = t_near_ax.max(axis=0), np.maximum(t1, t2).min(axis=0)
        hit = (t_near <= t_far) & (t_near > 1e-9) & (t_near < t)
        if not hit.any():
            continue
        hit_cols = np.nonzero(hit)[0]
        t[hit_cols] = t_near[hit_cols]
        classes[hit_cols] = box.class_id
        axis[hit_cols] = _first_index(t_near_ax[:, hit_cols], np.greater)
        normal[hit_cols] = -np.sign(dirs[axis[hit_cols], hit_cols])

    normals = np.zeros((cols.size, 3))
    normals[cols, axis] = normal
    return t, classes, normals @ cam.rotation.T


def _render_frame(cam: CameraModel, geom: SceneGeometry,
                  resolution: tuple[int, int]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    h, w = resolution
    jj, ii = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    depth, classes, normals = cast_pixels(cam, geom, ii.reshape(-1), jj.reshape(-1))
    return (depth.reshape(h, w), classes.reshape(h, w),
            normals.reshape(h, w, 3))


def _patch_summaries(depth: np.ndarray, labels: np.ndarray,
                     normals: np.ndarray, patch_size: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Per-patch [depth_mean/scale, mean normal (3), class hist, coords (2)]."""
    h, w = depth.shape
    gh, gw = h // patch_size, w // patch_size
    n = gh * gw
    # [P, ps*ps, 1 or 3] patch copies; a mean over one sums as numpy's mean of a
    # [ps, ps] slice does while a patch fits numpy's 8192-element iterator buffer
    depth_p, labels_p, normals_p = (a.reshape(gh, patch_size, gw, patch_size, -1).swapaxes(1, 2)
                                    .reshape(n, patch_size * patch_size, -1)
                                    for a in (depth, labels, normals))
    if labels.min() < 0 or labels.max() >= NUM_CLASSES:
        raise ParameterError(f"class labels must lie in [0, {NUM_CLASSES})")
    # one count per (patch, class) cell, patch-major, so a row is a patch's histogram
    cells = labels_p[..., 0] + NUM_CLASSES * np.arange(n)[:, None]
    hist = np.bincount(cells.ravel(), minlength=n * NUM_CLASSES).reshape(n, NUM_CLASSES)
    py, px = np.divmod(np.arange(n)[:, None], gw)
    feats = np.concatenate([depth_p.mean(axis=1) / DEPTH_SCALE, normals_p.mean(axis=1),
                            hist / hist.sum(axis=1, keepdims=True),
                            py / max(gh - 1, 1), px / max(gw - 1, 1)], axis=1)
    return feats, np.argmax(hist, axis=1)


# ----------------------------------------------------------------------
# tokens and teachers
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _projections(seed: int, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(token map, geometry teacher map, language teacher map) of a tokenizer:
    built once per (seed, dim) and shared read-only by every frame."""
    in_dim = 4 + NUM_CLASSES + 2
    maps = (np.random.default_rng([seed, 11]).standard_normal((in_dim, dim)) / np.sqrt(in_dim),
            np.random.default_rng([seed, 23]).standard_normal((4, dim)) / 2.0,
            np.random.default_rng([seed, 37]).standard_normal((NUM_CLASSES, dim))
            / np.sqrt(NUM_CLASSES))
    for m in maps:
        m.flags.writeable = False
    return maps


def render_tokens(frame: FrameData, cfg: TokenizerConfig) -> TokenSet:
    """Base tokens: fixed linear map of the patch summary plus seeded noise."""
    tokens = frame.patch_summary @ _projections(cfg.seed, cfg.dim)[0]
    if cfg.noise > 0:
        rng = np.random.default_rng([frame.noise_seed, 5])
        tokens = tokens + cfg.noise * rng.standard_normal(tokens.shape)
    return TokenSet(Tensor(tokens), Role.BASE)


TEACHER_DEPTH_GAIN = 2.5   # balances the depth coordinate against the unit
                           # normal inside the teacher direction, so matching
                           # the teacher to ~1e-3 pins depth to ~1%


def teacher_features(frame: FrameData, cfg: TokenizerConfig
                     ) -> tuple[TokenSet, TokenSet]:
    """Unit-norm teacher embeddings of (depth, normals) and class histograms."""
    _, a_geom, a_lang = _projections(cfg.seed, cfg.dim)
    geo_in = frame.patch_summary[:, 0:4].copy()
    geo_in[:, 0] *= TEACHER_DEPTH_GAIN
    lang_in = frame.patch_summary[:, 4:4 + NUM_CLASSES]
    tg = geo_in @ a_geom
    tl = lang_in @ a_lang
    tg = tg / np.linalg.norm(tg, axis=1, keepdims=True)
    tl = tl / np.linalg.norm(tl, axis=1, keepdims=True)
    return TokenSet(Tensor(tg), Role.GEOM), TokenSet(Tensor(tl), Role.LANG)


# ----------------------------------------------------------------------
# scene generation
# ----------------------------------------------------------------------

def gen_scene(seed: int, n_frames: int = 32, resolution: tuple[int, int] = (56, 56),
              n_objects: int = 5, tokenizer: TokenizerConfig | None = None
              ) -> SceneSample:
    """Random room + objects, orbit cameras, exact ray-cast ground truth."""
    tokenizer = tokenizer or TokenizerConfig()
    h, w = resolution
    ps = tokenizer.patch_size
    if h % ps != 0 or w % ps != 0:
        raise ParameterError(f"resolution {h}x{w} must be a multiple of patch size {ps}")
    if n_objects < 1:
        raise ParameterError("need at least one object")
    if n_frames < 1:
        raise ParameterError("need at least one frame")

    rng = np.random.default_rng([int(seed), 1])
    lx, ly = rng.uniform(4.5, 6.0, size=2)
    lz = rng.uniform(2.6, 3.2)
    room = Box(lo=np.zeros(3), hi=np.array([lx, ly, lz]), class_id=0)

    center = np.array([lx / 2.0, ly / 2.0, 0.0])
    radius = 0.22 * min(lx, ly)
    clear = radius + 0.35   # cameras orbit inside this ring; keep it box-free

    objects = []
    for k in range(n_objects):
        sx, sy = rng.uniform(0.4, 1.2, size=2)
        sz = rng.uniform(0.3, 1.9)
        for _ in range(40):
            x0 = rng.uniform(0.4, lx - 0.4 - sx)
            y0 = rng.uniform(0.4, ly - 0.4 - sy)
            corners = np.array([[x0, y0], [x0 + sx, y0], [x0, y0 + sy],
                                [x0 + sx, y0 + sy], [x0 + sx / 2, y0 + sy / 2]])
            if np.all(np.linalg.norm(corners - center[:2], axis=1) > clear):
                break
        objects.append(Box(lo=np.array([x0, y0, 0.0]),
                           hi=np.array([x0 + sx, y0 + sy, sz]),
                           class_id=OBJECT_CLASS_BASE + k % N_OBJECT_CLASSES))
    geom = SceneGeometry(room=room, objects=objects)

    fx = (w / 2.0) / np.tan(DEFAULT_FOV / 2.0)
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0

    frames = []
    for k in range(n_frames):
        theta = 2.0 * np.pi * k / n_frames + rng.uniform(-0.4, 0.4) * np.pi / n_frames
        pos = center + np.array([radius * np.cos(theta), radius * np.sin(theta),
                                 rng.uniform(1.4, 2.3)])
        target = center + np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                                    rng.uniform(0.5, 1.3)])
        r = look_at_rotation(pos, target)
        cam = CameraModel(fx=fx, fy=fx, cx=cx, cy=cy, rotation=r,
                          translation=-r @ pos, scale_kind=METRIC)
        depth, labels, normals = _render_frame(cam, geom, resolution)
        feats, majority = _patch_summaries(depth, labels, normals, ps)
        frame = FrameData(
            index=k, camera=cam,
            depth=DepthMap(depth, scale_kind=GROUND_TRUTH),
            labels=labels.astype(np.int16),
            patch_summary=feats, patch_labels=majority,
            noise_seed=int(seed) * 1000 + k,
        )
        frame.base = render_tokens(frame, tokenizer)
        frame.teacher_geom, frame.teacher_lang = teacher_features(frame, tokenizer)
        frames.append(frame)

    return SceneSample(geometry=geom, frames=frames, seed=int(seed),
                       resolution=resolution, tokenizer=tokenizer)


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

# a frame's arrays, in the order of its records in scene.vlt
FRAME_RECORDS = ("depth", "labels", "summary", "patch_labels", "base", "teacher_geom",
                 "teacher_lang")


def save_scene(directory: str | Path, scene: SceneSample) -> None:
    """scene.vlt holds FRAME_RECORDS frame by frame; scene.json the meta and cameras."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "scene.json").unlink(missing_ok=True)   # the marker goes back last
    with open(directory / "scene.vlt", "wb") as fh:
        for f in scene.frames:
            for arr in (f.depth.values, f.labels.astype(np.float64), f.patch_summary,
                        f.patch_labels.astype(np.float64), f.base.tokens.data,
                        f.teacher_geom.tokens.data, f.teacher_lang.tokens.data):
                vlt.write_record(fh, arr)
    write_json(directory / "scene.json", {
        "seed": scene.seed, "resolution": list(scene.resolution),
        "tokenizer": scene.tokenizer.to_json(), "room": scene.geometry.room.to_json(),
        "objects": [b.to_json() for b in scene.geometry.objects],
        "n_frames": len(scene.frames), "cameras": [f.camera.to_json() for f in scene.frames],
    })


def load_scene(directory: str | Path) -> SceneSample:
    """A scene as `save_scene` wrote it; a malformed one is a ParameterError."""
    directory = Path(directory)
    path, records_path = directory / "scene.json", directory / "scene.vlt"
    if not records_path.is_file():
        raise ParameterError(f"{records_path} is missing: the scene is incomplete or in the "
                             f"older per-frame layout; regenerate it with `geovid gen-scenes`")
    meta = read_json(path, "tokenizer", "room", "objects", "seed", "n_frames", "resolution",
                     "cameras")
    try:
        tokenizer = TokenizerConfig.from_json(meta["tokenizer"])
        geom = SceneGeometry(room=Box.from_json(meta["room"]),
                             objects=[Box.from_json(o) for o in meta["objects"]])
        seed, n_frames = int(meta["seed"]), int(meta["n_frames"])
        resolution = tuple(int(v) for v in meta["resolution"])
        cameras = [CameraModel.from_json(c) for c in meta["cameras"]]
    except (KeyError, TypeError, ValueError, OverflowError, ParameterError) as exc:
        raise ParameterError(f"{path} is malformed: {exc!r}") from None
    if n_frames < 1 or len(cameras) != n_frames:
        raise ParameterError(f"{path} lists {n_frames} frames and {len(cameras)} cameras")
    n = len(FRAME_RECORDS)
    records = vlt.read_file(records_path, n * n_frames)
    frames = []
    for k, cam in enumerate(cameras):
        rec = dict(zip(FRAME_RECORDS, records[k * n:(k + 1) * n]))
        for name in ("labels", "patch_labels"):   # class ids, saved as floats
            v = rec[name]
            if not ((v >= 0) & (v < NUM_CLASSES) & (v == np.floor(v))).all():
                raise ParameterError(f"{records_path} record frame_{k:03d}/{name} holds a "
                                     f"class label outside the integers 0..{NUM_CLASSES - 1}")
        frames.append(FrameData(
            index=k, camera=cam, depth=DepthMap(rec["depth"], scale_kind=GROUND_TRUTH),
            labels=rec["labels"].astype(np.int16), patch_summary=rec["summary"],
            patch_labels=rec["patch_labels"].astype(np.int64), noise_seed=seed * 1000 + k,
            base=TokenSet(Tensor(rec["base"]), Role.BASE),
            teacher_geom=TokenSet(Tensor(rec["teacher_geom"]), Role.GEOM),
            teacher_lang=TokenSet(Tensor(rec["teacher_lang"]), Role.LANG)))
    return SceneSample(geometry=geom, frames=frames, seed=seed,
                       resolution=resolution, tokenizer=tokenizer)
