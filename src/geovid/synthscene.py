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
import itertools
from dataclasses import asdict, dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from .config import read_json, write_json
from .errors import ParameterError, named
from .geometry import (
    GROUND_TRUTH, METRIC, CameraModel, DepthMap, look_at_rotation,
)
from .numkit import Role, Tensor, TokenSet, vlt

# class ids; 0 is reserved/unused so every surface has a nonzero label
FLOOR, CEILING, WALL_X0, WALL_X1, WALL_Y0, WALL_Y1 = 1, 2, 3, 4, 5, 6
OBJECT_CLASS_BASE = 7
N_OBJECT_CLASSES = 4
NUM_CLASSES = OBJECT_CLASS_BASE + N_OBJECT_CLASSES  # 11
SUMMARY_DIM = 4 + NUM_CLASSES + 2   # a patch summary: depth, normal, class histogram, coords

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
    patch_summary: np.ndarray    # [P, SUMMARY_DIM] float
    patch_labels: np.ndarray     # [P] majority class per patch
    noise_seed: int
    base: TokenSet
    teacher_geom: TokenSet
    teacher_lang: TokenSet


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


CULL_MARGIN = 1e-6   # metres past a bounding plane before a box is skipped
_CORNER_ENDS = np.array(list(itertools.product((0, 1), repeat=3)))   # [8, 3]: lo 0, hi 1


def _boxes_in_view(cam: CameraModel, geom: SceneGeometry, ii: np.ndarray, jj: np.ndarray
                   ) -> np.ndarray:
    """[B] bool: the boxes of `geom` that a ray through the 1-D pixel arrays
    ii/jj may hit.

    A box is culled when all eight of its corners lie more than CULL_MARGIN
    behind the camera plane, or beyond one of the four side planes of the
    rays' frustum. Each such plane passes through the camera centre with
    every ray on its inner side, so a convex box wholly past it holds no
    point at positive t of any ray: the cull drops no hit.
    """
    if ii.size == 0:
        return np.zeros(len(geom.objects), dtype=bool)
    ends = np.array([(b.lo, b.hi) for b in geom.objects]).reshape(-1, 2, 3)   # [B, lo/hi, 3]
    corners = (ends[:, _CORNER_ENDS, [0, 1, 2]] - cam.center()) @ cam.rotation.T   # [B, 8, 3]
    # slopes of the outermost rays; the pixel arrays are 1-D, so min/max stay cheap
    x0, x1 = (float(ii.min()) - cam.cx) / cam.fx, (float(ii.max()) - cam.cx) / cam.fx
    y0, y1 = (float(jj.min()) - cam.cy) / cam.fy, (float(jj.max()) - cam.cy) / cam.fy
    # inward unit normals of the camera plane and the four side planes, one per column
    planes = np.array([[0.0, 1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, -1.0],
                       [1.0, -x0, x1, -y0, y1]])
    planes /= np.sqrt((planes * planes).sum(axis=0))
    dist = (corners.reshape(-1, 3) @ planes).reshape(-1, 8, 5)   # [B, 8, plane]
    return (dist.max(axis=1) >= -CULL_MARGIN).all(axis=1)


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

    # object entries, nearest hit wins (a hit's t_near > 0, so max has argmax's bits);
    # a box out of view has no hit, so skipping it leaves every array as it was
    for box in itertools.compress(geom.objects, _boxes_in_view(cam, geom, ii, jj)):
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
    maps = (np.random.default_rng([seed, 11]).standard_normal((SUMMARY_DIM, dim))
            / np.sqrt(SUMMARY_DIM),
            np.random.default_rng([seed, 23]).standard_normal((4, dim)) / 2.0,
            np.random.default_rng([seed, 37]).standard_normal((NUM_CLASSES, dim))
            / np.sqrt(NUM_CLASSES))
    for m in maps:
        m.flags.writeable = False
    return maps


def render_tokens(summaries: np.ndarray, noise_seeds: list[int], cfg: TokenizerConfig
                  ) -> np.ndarray:
    """Base tokens [F, P, dim] of [F, P, D] patch summaries: a fixed linear map
    (numpy runs one GEMM per frame) plus each frame's own seeded noise."""
    tokens = summaries @ _projections(cfg.seed, cfg.dim)[0]
    if cfg.noise > 0:
        for t, noise_seed in zip(tokens, noise_seeds, strict=True):
            t += cfg.noise * np.random.default_rng([noise_seed, 5]).standard_normal(t.shape)
    return tokens


TEACHER_DEPTH_GAIN = 2.5   # balances the depth coordinate against the unit
                           # normal inside the teacher direction, so matching
                           # the teacher to ~1e-3 pins depth to ~1%


def teacher_features(summaries: np.ndarray, cfg: TokenizerConfig
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm teacher embeddings [F, P, dim] of (depth, normals) and class histograms."""
    _, a_geom, a_lang = _projections(cfg.seed, cfg.dim)
    geo_in = summaries[..., 0:4].copy()
    geo_in[..., 0] *= TEACHER_DEPTH_GAIN
    tg = geo_in @ a_geom
    tl = summaries[..., 4:4 + NUM_CLASSES] @ a_lang
    tg /= np.linalg.norm(tg, axis=-1, keepdims=True)
    tl /= np.linalg.norm(tl, axis=-1, keepdims=True)
    return tg, tl


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

    # each frame's cast and summaries land in scene-wide stacks; tokens and
    # teachers then run once over them, and every FrameData holds views
    n_patches = (h // ps) * (w // ps)
    depth = np.empty((n_frames, h, w))
    labels = np.empty((n_frames, h, w), dtype=np.int16)
    summaries = np.empty((n_frames, n_patches, SUMMARY_DIM))
    majority = np.empty((n_frames, n_patches), dtype=np.int64)
    cameras = []
    for k in range(n_frames):
        theta = 2.0 * np.pi * k / n_frames + rng.uniform(-0.4, 0.4) * np.pi / n_frames
        pos = center + np.array([radius * np.cos(theta), radius * np.sin(theta),
                                 rng.uniform(1.4, 2.3)])
        target = center + np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                                    rng.uniform(0.5, 1.3)])
        r = look_at_rotation(pos, target)
        cameras.append(CameraModel(fx=fx, fy=fx, cx=cx, cy=cy, rotation=r,
                                   translation=-r @ pos, scale_kind=METRIC))
        depth[k], labels[k], normals = _render_frame(cameras[k], geom, resolution)
        summaries[k], majority[k] = _patch_summaries(depth[k], labels[k], normals, ps)

    noise_seeds = [int(seed) * 1000 + k for k in range(n_frames)]
    base = render_tokens(summaries, noise_seeds, tokenizer)
    teacher_geom, teacher_lang = teacher_features(summaries, tokenizer)
    frames = [FrameData(index=k, camera=cam, depth=DepthMap(depth[k], scale_kind=GROUND_TRUTH),
                        labels=labels[k], patch_summary=summaries[k], patch_labels=majority[k],
                        noise_seed=noise_seeds[k], base=TokenSet(Tensor(base[k]), Role.BASE),
                        teacher_geom=TokenSet(Tensor(teacher_geom[k]), Role.GEOM),
                        teacher_lang=TokenSet(Tensor(teacher_lang[k]), Role.LANG))
              for k, cam in enumerate(cameras)]
    return SceneSample(geometry=geom, frames=frames, seed=int(seed),
                       resolution=resolution, tokenizer=tokenizer)


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

# scene.vlt's [F, ...] records in order, each with the FrameData array it stacks
_FIELDS = dict(depth="depth.values", labels="labels", summary="patch_summary",
               patch_labels="patch_labels", base="base.tokens.data",
               teacher_geom="teacher_geom.tokens.data", teacher_lang="teacher_lang.tokens.data")
FRAME_RECORDS = tuple(_FIELDS)


def save_scene(directory: str | Path, scene: SceneSample) -> None:
    """scene.vlt holds FRAME_RECORDS as [F, ...] f64 stacks; scene.json the meta and cameras."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "scene.json").unlink(missing_ok=True)   # the marker goes back last
    with open(directory / "scene.vlt", "wb") as fh:
        for stack in zip(*map(attrgetter(*_FIELDS.values()), scene.frames)):
            vlt.write_record(fh, np.stack(stack, dtype=np.float64))
    write_json(directory / "scene.json", {
        "seed": scene.seed, "resolution": list(scene.resolution),
        "tokenizer": scene.tokenizer.to_json(), "room": scene.geometry.room.to_json(),
        "objects": [b.to_json() for b in scene.geometry.objects],
        "n_frames": len(scene.frames), "cameras": [f.camera.to_json() for f in scene.frames],
    })


def load_scene(directory: str | Path) -> SceneSample:
    """A scene as `save_scene` wrote it, its frames views of the records (or a ParameterError)."""
    path, records_path = Path(directory) / "scene.json", Path(directory) / "scene.vlt"
    try:   # the older layouts have no scene.vlt, or one of 7 records per frame
        rec = dict(zip(FRAME_RECORDS, vlt.read_file(records_path, len(FRAME_RECORDS))))
    except ParameterError as exc:
        raise ParameterError(f"{exc}; the scene is incomplete, damaged or in an older layout: "
                             f"regenerate it with `geovid gen-scenes`") from None
    meta = read_json(path, "tokenizer", "room", "objects", "seed", "n_frames", "resolution",
                     "cameras")
    try:
        tokenizer = TokenizerConfig.from_json(meta["tokenizer"])
        geom = SceneGeometry(room=Box.from_json(meta["room"]),
                             objects=[Box.from_json(o) for o in meta["objects"]])
        seed, n_frames = int(meta["seed"]), int(meta["n_frames"])
        h, w = resolution = tuple(int(v) for v in meta["resolution"])
        cameras = [CameraModel.from_json(c) for c in meta["cameras"]]
    except (KeyError, TypeError, ValueError, OverflowError, ParameterError) as exc:
        raise ParameterError(f"{path} is malformed: {exc!r}") from None
    ps, dim = tokenizer.patch_size, tokenizer.dim
    if not (ps > 0 and dim > 0 and h > 0 and w > 0 and h % ps == w % ps == 0):
        raise ParameterError(f"{path} has no patch grid: resolution {h}x{w}, "
                             f"patch size {ps}, token dim {dim}")
    if n_frames < 1 or len(cameras) != n_frames:
        raise ParameterError(f"{path} lists {n_frames} frames and {len(cameras)} cameras")
    n_patches = (h // ps) * (w // ps)
    shapes = dict(zip(FRAME_RECORDS, [(h, w), (h, w), (n_patches, SUMMARY_DIM), (n_patches,)]
                      + [(n_patches, dim)] * 3))
    for name, v in rec.items():
        if v.shape != (n_frames, *shapes[name]):
            raise ParameterError(f"{records_path} record {name} is not "
                                 f"{[n_frames, *shapes[name]]}: it is {list(v.shape)}")
        rec[name] = v.astype(np.float64, copy=False)
    for name, dtype in (("labels", np.int16), ("patch_labels", np.int64)):
        v = np.clip(rec[name], -0.5, NUM_CLASSES - 0.5, out=rec[name])   # bad ids turn fractional
        ids = rec[name] = v.astype(dtype)
        bad = (ids != v).reshape(n_frames, -1).any(axis=1)
        if bad.any():
            raise ParameterError(f"{records_path} record {name} frame_{bad.argmax():03d}: a "
                                 f"class label outside the integers 0..{NUM_CLASSES - 1}")

    # the shapes are checked; a depth frame's values name the record and the frame
    frames = [FrameData(k, cam, named(f"{records_path} record depth frame_{k:03d}", DepthMap,
                                      rec["depth"][k], GROUND_TRUTH),
                        rec["labels"][k], rec["summary"][k], rec["patch_labels"][k],
                        seed * 1000 + k, TokenSet(rec["base"][k], Role.BASE),
                        TokenSet(rec["teacher_geom"][k], Role.GEOM),
                        TokenSet(rec["teacher_lang"][k], Role.LANG))
              for k, cam in enumerate(cameras)]
    return SceneSample(geom, frames, seed, resolution, tokenizer)
