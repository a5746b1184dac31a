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

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
        return {"dim": self.dim, "noise": self.noise, "seed": self.seed,
                "patch_size": self.patch_size}

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

def cast_pixels(cam: CameraModel, geom: SceneGeometry,
                ii: np.ndarray, jj: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First-hit along pixel rays: (depth = camera z, class id, camera-frame normal).

    ii/jj are continuous pixel coordinates (column, row) of any shape.
    """
    ii = np.asarray(ii, dtype=np.float64).reshape(-1)
    jj = np.asarray(jj, dtype=np.float64).reshape(-1)
    dirs_cam = np.stack([(ii - cam.cx) / cam.fx, (jj - cam.cy) / cam.fy,
                         np.ones_like(ii)], axis=1)
    dirs = dirs_cam @ cam.rotation          # world directions, camera-z component 1
    origin = cam.center()
    # sign-preserving floor so zero components behave like +/-epsilon rays
    d_safe = np.copysign(np.maximum(np.abs(dirs), 1e-300), dirs)

    # room exit face (origin is inside the room)
    t_face = np.where(d_safe > 0,
                      (geom.room.hi - origin) / d_safe,
                      (geom.room.lo - origin) / d_safe)
    axis = np.argmin(t_face, axis=1)
    t = t_face[np.arange(t_face.shape[0]), axis]
    sign = np.where(dirs[np.arange(dirs.shape[0]), axis] > 0, 1, -1)
    classes = _ROOM_FACE_CLASS[axis, (sign > 0).astype(np.intp)]
    normals = np.zeros_like(dirs)
    normals[np.arange(dirs.shape[0]), axis] = -sign  # interior face normal

    # object entries, nearest hit wins
    for box in geom.objects:
        t1 = (box.lo - origin) / d_safe
        t2 = (box.hi - origin) / d_safe
        t_near_ax = np.minimum(t1, t2)
        t_far_ax = np.maximum(t1, t2)
        entry_axis = np.argmax(t_near_ax, axis=1)
        t_near = t_near_ax[np.arange(t_near_ax.shape[0]), entry_axis]
        t_far = t_far_ax.min(axis=1)
        hit = (t_near <= t_far) & (t_near > 1e-9) & (t_near < t)
        if not hit.any():
            continue
        t[hit] = t_near[hit]
        classes[hit] = box.class_id
        normals[hit] = 0.0
        rows = np.nonzero(hit)[0]
        ax = entry_axis[rows]
        normals[rows, ax] = -np.sign(dirs[rows, ax])

    normals_cam = normals @ cam.rotation.T
    return t, classes, normals_cam


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
    feats = np.zeros((gh * gw, 4 + NUM_CLASSES + 2))
    majority = np.zeros(gh * gw, dtype=np.int64)
    for p in range(gh * gw):
        py, px = divmod(p, gw)
        sl = (slice(py * patch_size, (py + 1) * patch_size),
              slice(px * patch_size, (px + 1) * patch_size))
        feats[p, 0] = depth[sl].mean() / DEPTH_SCALE
        feats[p, 1:4] = normals[sl].reshape(-1, 3).mean(axis=0)
        hist = np.bincount(labels[sl].reshape(-1), minlength=NUM_CLASSES)
        feats[p, 4:4 + NUM_CLASSES] = hist / hist.sum()
        feats[p, 4 + NUM_CLASSES] = py / max(gh - 1, 1)
        feats[p, 5 + NUM_CLASSES] = px / max(gw - 1, 1)
        majority[p] = int(np.argmax(hist))
    return feats, majority


# ----------------------------------------------------------------------
# tokens and teachers
# ----------------------------------------------------------------------

def _token_projection(cfg: TokenizerConfig) -> np.ndarray:
    rng = np.random.default_rng([cfg.seed, 11])
    in_dim = 4 + NUM_CLASSES + 2
    return rng.standard_normal((in_dim, cfg.dim)) / np.sqrt(in_dim)


def _teacher_projections(cfg: TokenizerConfig) -> tuple[np.ndarray, np.ndarray]:
    rng_g = np.random.default_rng([cfg.seed, 23])
    rng_l = np.random.default_rng([cfg.seed, 37])
    a_geom = rng_g.standard_normal((4, cfg.dim)) / 2.0
    a_lang = rng_l.standard_normal((NUM_CLASSES, cfg.dim)) / np.sqrt(NUM_CLASSES)
    return a_geom, a_lang


def render_tokens(frame: FrameData, cfg: TokenizerConfig) -> TokenSet:
    """Base tokens: fixed linear map of the patch summary plus seeded noise."""
    proj = _token_projection(cfg)
    tokens = frame.patch_summary @ proj
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
    a_geom, a_lang = _teacher_projections(cfg)
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

def save_scene(directory: str | Path, scene: SceneSample) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "seed": scene.seed,
        "resolution": list(scene.resolution),
        "tokenizer": scene.tokenizer.to_json(),
        "room": scene.geometry.room.to_json(),
        "objects": [b.to_json() for b in scene.geometry.objects],
        "n_frames": len(scene.frames),
    }
    with open(directory / "scene.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for f in scene.frames:
        fd = directory / f"frame_{f.index:03d}"
        fd.mkdir(exist_ok=True)
        f.camera.save(fd / "camera.json")
        vlt.save_tensor(fd / "depth.vlt", f.depth.values)
        vlt.save_tensor(fd / "labels.vlt", f.labels.astype(np.float64))
        vlt.save_tensor(fd / "summary.vlt", f.patch_summary)
        vlt.save_tensor(fd / "patch_labels.vlt", f.patch_labels.astype(np.float64))
        vlt.save_tensor(fd / "base.vlt", f.base.tokens.data)
        vlt.save_tensor(fd / "teacher_geom.vlt", f.teacher_geom.tokens.data)
        vlt.save_tensor(fd / "teacher_lang.vlt", f.teacher_lang.tokens.data)


def load_scene(directory: str | Path) -> SceneSample:
    directory = Path(directory)
    with open(directory / "scene.json") as fh:
        meta = json.load(fh)
    tokenizer = TokenizerConfig.from_json(meta["tokenizer"])
    geom = SceneGeometry(room=Box.from_json(meta["room"]),
                         objects=[Box.from_json(o) for o in meta["objects"]])
    frames = []
    for k in range(meta["n_frames"]):
        fd = directory / f"frame_{k:03d}"
        cam = CameraModel.load(fd / "camera.json")
        frame = FrameData(
            index=k, camera=cam,
            depth=DepthMap(vlt.load_tensor(fd / "depth.vlt"), scale_kind=GROUND_TRUTH),
            labels=vlt.load_tensor(fd / "labels.vlt").astype(np.int16),
            patch_summary=vlt.load_tensor(fd / "summary.vlt"),
            patch_labels=vlt.load_tensor(fd / "patch_labels.vlt").astype(np.int64),
            noise_seed=int(meta["seed"]) * 1000 + k,
        )
        frame.base = TokenSet(Tensor(vlt.load_tensor(fd / "base.vlt")), Role.BASE)
        frame.teacher_geom = TokenSet(Tensor(vlt.load_tensor(fd / "teacher_geom.vlt")),
                                      Role.GEOM)
        frame.teacher_lang = TokenSet(Tensor(vlt.load_tensor(fd / "teacher_lang.vlt")),
                                      Role.LANG)
        frames.append(frame)
    return SceneSample(geometry=geom, frames=frames, seed=int(meta["seed"]),
                       resolution=tuple(meta["resolution"]), tokenizer=tokenizer)
