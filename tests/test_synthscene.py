import hashlib
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geovid.errors import ParameterError
from geovid.geometry import GROUND_TRUTH, CameraModel, METRIC, look_at_rotation
from geovid.numkit import vlt
from geovid.patch3d import backproject, project
from geovid.synthscene import (
    CEILING, DEPTH_SCALE, FLOOR, NUM_CLASSES, WALL_X0, WALL_X1, WALL_Y0, WALL_Y1, Box,
    FRAME_RECORDS, SceneGeometry, TokenizerConfig, _patch_summaries, _ROOM_FACE_CLASS, cast_pixels, gen_scene,
    load_scene, render_tokens, save_scene, teacher_features,
)

TOK = TokenizerConfig(dim=16, noise=0.01, seed=0)


def _scene(seed=3, n_frames=4, **kw):
    return gen_scene(seed, n_frames=n_frames, resolution=(28, 28),
                     n_objects=kw.pop("n_objects", 4), tokenizer=TOK)


class TestGenScene:
    def test_same_seed_bit_identical(self):
        a = _scene()
        b = _scene()
        assert np.array_equal(a.geometry.room.hi, b.geometry.room.hi)
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa.depth.values, fb.depth.values)
            assert np.array_equal(fa.labels, fb.labels)
            assert np.array_equal(fa.base.tokens.data, fb.base.tokens.data)
            assert np.array_equal(fa.camera.rotation, fb.camera.rotation)
            assert np.array_equal(fa.teacher_geom.tokens.data,
                                  fb.teacher_geom.tokens.data)

    def test_depth_within_room_diagonal(self):
        scene = _scene(seed=11, n_frames=6)
        room = scene.geometry.room
        diag = np.linalg.norm(room.hi - room.lo)
        for f in scene.frames:
            assert f.depth.values.min() > 0
            assert f.depth.values.max() <= diag + 1e-9

    def test_cameras_orthonormal_metric(self):
        scene = _scene(seed=12)
        for f in scene.frames:
            r = f.camera.rotation
            assert np.abs(r @ r.T - np.eye(3)).max() < 1e-9
            assert f.camera.scale_kind == METRIC
            assert f.depth.scale_kind == GROUND_TRUTH

    def test_zero_objects_rejected(self):
        with pytest.raises(ParameterError):
            gen_scene(0, n_objects=0, tokenizer=TOK)

    def test_resolution_must_tile(self):
        with pytest.raises(ParameterError):
            gen_scene(0, resolution=(30, 30), tokenizer=TOK)

    def test_labels_in_class_range(self):
        scene = _scene(seed=13)
        for f in scene.frames:
            assert f.labels.min() >= 1
            assert f.labels.max() < NUM_CLASSES


def test_frontoparallel_wall_depth_exact():
    # camera at origin looking +z, wall (room exit) at z = 3
    geom = SceneGeometry(room=Box(lo=np.array([-2.0, -2.0, -1.0]),
                                  hi=np.array([2.0, 2.0, 3.0]), class_id=0),
                         objects=[])
    cam = CameraModel(fx=40.0, fy=40.0, cx=13.5, cy=13.5, rotation=np.eye(3),
                      translation=np.zeros(3), scale_kind=METRIC)
    depth, classes, normals = cast_pixels(cam, geom, np.array([13.5]), np.array([13.5]))
    assert depth[0] == pytest.approx(3.0, abs=1e-12)
    np.testing.assert_allclose(normals[0], [0.0, 0.0, -1.0], atol=1e-12)


@pytest.mark.parametrize("direction, face", [
    ((1, 0, 0), WALL_X1), ((-1, 0, 0), WALL_X0), ((0, 1, 0), WALL_Y1),
    ((0, -1, 0), WALL_Y0), ((0, 0, 1), CEILING), ((0, 0, -1), FLOOR),
])
def test_room_face_classes(direction, face):
    # the centre pixel's ray from the room centre exits through one face
    room = Box(lo=np.array([-2.0, -3.0, -1.0]), hi=np.array([4.0, 5.0, 2.0]), class_id=0)
    centre = (room.lo + room.hi) / 2
    d = np.array(direction, dtype=np.float64)
    up = np.array([0.0, 1.0, 0.0]) if d[2] else np.array([0.0, 0.0, 1.0])
    rot = look_at_rotation(centre, centre + d, up=up)
    cam = CameraModel(fx=40.0, fy=40.0, cx=13.5, cy=13.5, rotation=rot,
                      translation=-rot @ centre, scale_kind=METRIC)
    depth, classes, _ = cast_pixels(cam, SceneGeometry(room=room, objects=[]),
                                    np.array([13.5]), np.array([13.5]))
    assert classes[0] == face
    assert depth[0] == pytest.approx(np.abs(d @ (room.hi - room.lo)) / 2, abs=1e-12)


def test_box_occludes_wall():
    geom = SceneGeometry(room=Box(lo=np.array([-2.0, -2.0, -1.0]),
                                  hi=np.array([2.0, 2.0, 5.0]), class_id=0),
                         objects=[Box(lo=np.array([-0.5, -0.5, 1.0]),
                                      hi=np.array([0.5, 0.5, 2.0]), class_id=7)])
    cam = CameraModel(fx=40.0, fy=40.0, cx=13.5, cy=13.5, rotation=np.eye(3),
                      translation=np.zeros(3), scale_kind=METRIC)
    depth, classes, _ = cast_pixels(cam, geom, np.array([13.5]), np.array([13.5]))
    assert depth[0] == pytest.approx(1.0, abs=1e-12)
    assert classes[0] == 7


def test_cross_view_consistency():
    """Back-projected GT surface points re-project consistently: casting the
    second camera through the exact projected pixel hits at most as deep, and
    co-visible points match to float precision."""
    scene = gen_scene(21, n_frames=6, resolution=(28, 28), n_objects=3,
                      tokenizer=TOK)
    rng = np.random.default_rng(0)
    co_visible = 0
    total = 0
    for _ in range(300):
        fa, fb = scene.frames[int(rng.integers(6))], scene.frames[int(rng.integers(6))]
        i, j = int(rng.integers(28)), int(rng.integers(28))
        point = backproject((i, j), fa.depth.values[j, i], fa.camera)
        try:
            (u, v), z = project(point, fb.camera)
        except Exception:
            continue
        if not (0 <= u <= 27 and 0 <= v <= 27):
            continue
        total += 1
        t, _, _ = cast_pixels(fb.camera, scene.geometry, np.array([u]), np.array([v]))
        assert t[0] <= z + 1e-9  # nothing behind the surface can be hit first
        if abs(t[0] - z) < 1e-9:
            co_visible += 1
    assert total > 50
    assert co_visible / total > 0.5  # orbit cameras share most of the room


class TestTokens:
    def test_tokens_deterministic_given_frame(self):
        scene = _scene(seed=5)
        f = scene.frames[0]
        a = render_tokens(f, TOK)
        b = render_tokens(f, TOK)
        assert np.array_equal(a.tokens.data, b.tokens.data)

    def test_token_shape(self):
        scene = _scene(seed=5)
        assert scene.frames[0].base.tokens.shape == (4, 16)  # 2x2 grid at 28px

    def test_zero_noise_pure_function_of_summary(self):
        tok0 = TokenizerConfig(dim=16, noise=0.0, seed=0)
        scene = gen_scene(5, n_frames=2, resolution=(28, 28), n_objects=3,
                          tokenizer=tok0)
        f = scene.frames[0]
        a = render_tokens(f, tok0).tokens.data
        f2 = scene.frames[1]
        f2.patch_summary = f.patch_summary.copy()
        b = render_tokens(f2, tok0).tokens.data
        assert np.array_equal(a, b)

    def test_tokens_depend_on_classes(self):
        tok0 = TokenizerConfig(dim=16, noise=0.0, seed=0)
        scene = gen_scene(6, n_frames=1, resolution=(28, 28), n_objects=3,
                          tokenizer=tok0)
        f = scene.frames[0]
        base = render_tokens(f, tok0).tokens.data
        hist = f.patch_summary[:, 4:4 + NUM_CLASSES]
        f.patch_summary[:, 4:4 + NUM_CLASSES] = np.roll(hist, 2, axis=1)
        permuted = render_tokens(f, tok0).tokens.data
        assert np.linalg.norm(base - permuted) > 1e-8


class TestTeachers:
    def test_unit_norm(self):
        scene = _scene(seed=7)
        for f in scene.frames:
            ng = np.linalg.norm(f.teacher_geom.tokens.data, axis=1)
            nl = np.linalg.norm(f.teacher_lang.tokens.data, axis=1)
            np.testing.assert_allclose(ng, 1.0, atol=1e-12)
            np.testing.assert_allclose(nl, 1.0, atol=1e-12)

    def test_geometry_teacher_depends_only_on_depth_normals(self):
        scene = _scene(seed=8, n_frames=2)
        fa, fb = scene.frames
        fb.patch_summary = fa.patch_summary.copy()
        ta, _ = teacher_features(fa, TOK)
        tb, _ = teacher_features(fb, TOK)
        assert np.array_equal(ta.tokens.data, tb.tokens.data)

    def test_distinct_classes_distinct_lang_teachers(self):
        a_hist = np.zeros(NUM_CLASSES); a_hist[1] = 1.0
        b_hist = np.zeros(NUM_CLASSES); b_hist[7] = 1.0
        scene = _scene(seed=9, n_frames=1)
        f = scene.frames[0]
        f.patch_summary[0, 4:4 + NUM_CLASSES] = a_hist
        f.patch_summary[1, 4:4 + NUM_CLASSES] = b_hist
        _, tl = teacher_features(f, TOK)
        cos = float(tl.tokens.data[0] @ tl.tokens.data[1])
        assert cos < 1.0 - 1e-6


ROTATION_ATOL = 1e-15   # cameras persist as quaternions; tighter than the benchmark's 1e-12


def test_save_load_roundtrip(tmp_path):
    scene = _scene(seed=10, n_frames=3)
    save_scene(tmp_path / "s", scene)
    assert sorted(p.name for p in (tmp_path / "s").iterdir()) == ["scene.json", "scene.vlt"]
    loaded = load_scene(tmp_path / "s")
    assert loaded.seed == scene.seed
    assert loaded.resolution == scene.resolution
    assert loaded.tokenizer == scene.tokenizer
    assert [b.to_json() for b in [loaded.geometry.room, *loaded.geometry.objects]] == \
           [b.to_json() for b in [scene.geometry.room, *scene.geometry.objects]]
    assert len(loaded.frames) == len(scene.frames)
    for fa, fb in zip(scene.frames, loaded.frames):
        assert (fb.index, fb.noise_seed) == (fa.index, fa.noise_seed)
        for a, b in ((fa.depth.values, fb.depth.values), (fa.labels, fb.labels),
                     (fa.patch_summary, fb.patch_summary), (fa.patch_labels, fb.patch_labels),
                     (fa.base.tokens.data, fb.base.tokens.data),
                     (fa.teacher_geom.tokens.data, fb.teacher_geom.tokens.data),
                     (fa.teacher_lang.tokens.data, fb.teacher_lang.tokens.data)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert (fb.base.role, fb.teacher_geom.role, fb.teacher_lang.role) == \
               (fa.base.role, fa.teacher_geom.role, fa.teacher_lang.role)
        ca, cb = fa.camera, fb.camera
        assert (cb.fx, cb.fy, cb.cx, cb.cy, cb.scale_kind) == (ca.fx, ca.fy, ca.cx, ca.cy,
                                                               ca.scale_kind)
        assert np.array_equal(cb.translation, ca.translation)
        np.testing.assert_allclose(cb.rotation, ca.rotation, rtol=0, atol=ROTATION_ATOL)


def test_saved_scene_bytes_pinned(tmp_path):
    """The two files of a saved scene, pinned so the format cannot drift unnoticed."""
    save_scene(tmp_path / "s", gen_scene(3, n_frames=2, resolution=(28, 28), n_objects=2,
                                         tokenizer=TOK))
    digests = {name: hashlib.sha256((tmp_path / "s" / name).read_bytes()).hexdigest()
               for name in ("scene.json", "scene.vlt")}
    assert digests == SAVED_SCENE_DIGESTS


def _saved(tmp_path, n_frames=2):
    save_scene(tmp_path / "s", _scene(seed=12, n_frames=n_frames))
    return tmp_path / "s"


def _edit_meta(directory, **changes):
    meta = json.loads((directory / "scene.json").read_text())
    meta.update(changes)
    (directory / "scene.json").write_text(json.dumps(meta))
    return meta


@pytest.mark.parametrize("n_frames, n_cameras", [(1, 2), (3, 2), (0, 2), (2, 1), (2, 0)])
def test_load_rejects_frame_count_that_disagrees_with_cameras(tmp_path, n_frames, n_cameras):
    directory = _saved(tmp_path)
    cameras = json.loads((directory / "scene.json").read_text())["cameras"]
    _edit_meta(directory, n_frames=n_frames, cameras=cameras[:n_cameras])
    with pytest.raises(ParameterError,
                       match=f"scene.json lists {n_frames} frames and {n_cameras} cameras"):
        load_scene(directory)


@pytest.mark.parametrize("change", ["one-record-short", "one-record-more", "trailing-byte"])
def test_load_rejects_a_wrong_record_count(tmp_path, change):
    directory = _saved(tmp_path)
    path = directory / "scene.vlt"
    records = vlt.read_file(path, 2 * len(FRAME_RECORDS))
    if change == "one-record-short":
        records.pop()
    elif change == "one-record-more":
        records.append(np.ones(3))
    with open(path, "wb") as fh:
        for arr in records:
            vlt.write_record(fh, arr)
        if change == "trailing-byte":
            fh.write(b"\0")
    message = "bad VLT1 magic b''" if change == "one-record-short" else "trailing bytes"
    with pytest.raises(ParameterError, match=re.escape(f"{path}: {message}")):
        load_scene(directory)


def test_load_rejects_the_older_per_frame_layout(tmp_path):
    # earlier versions wrote scene.json without cameras, and per frame a
    # directory with camera.json and one .vlt file per array
    scene = _scene(seed=12, n_frames=2)
    directory = _saved(tmp_path)
    (directory / "scene.vlt").unlink()
    meta = _edit_meta(directory)
    del meta["cameras"]
    (directory / "scene.json").write_text(json.dumps(meta))
    for f in scene.frames:
        frame_dir = directory / f"frame_{f.index:03d}"
        frame_dir.mkdir()
        f.camera.save(frame_dir / "camera.json")
        for name, arr in zip(FRAME_RECORDS, (f.depth.values, f.labels.astype(np.float64),
                                             f.patch_summary, f.patch_labels.astype(np.float64),
                                             f.base.tokens.data, f.teacher_geom.tokens.data,
                                             f.teacher_lang.tokens.data)):
            vlt.save_tensor(frame_dir / f"{name}.vlt", arr)
    with pytest.raises(ParameterError,
                       match=re.escape(f"{directory / 'scene.vlt'} is missing") + ".*"
                       + re.escape("regenerate it with `geovid gen-scenes`")):
        load_scene(directory)


# ----------------------------------------------------------------------
# the row-major cast and the looped patch summaries, kept as references
# ----------------------------------------------------------------------

def _cast_reference(cam, geom, ii, jj):
    """cast_pixels with rays as [n, 3] rows and np.argmin/np.argmax per ray."""
    ii = np.asarray(ii, dtype=np.float64).reshape(-1)
    jj = np.asarray(jj, dtype=np.float64).reshape(-1)
    dirs_cam = np.stack([(ii - cam.cx) / cam.fx, (jj - cam.cy) / cam.fy,
                         np.ones_like(ii)], axis=1)
    dirs = dirs_cam @ cam.rotation
    origin = cam.center()
    d_safe = np.copysign(np.maximum(np.abs(dirs), 1e-300), dirs)
    t_face = np.where(d_safe > 0,
                      (geom.room.hi - origin) / d_safe,
                      (geom.room.lo - origin) / d_safe)
    axis = np.argmin(t_face, axis=1)
    t = t_face[np.arange(t_face.shape[0]), axis]
    sign = np.where(dirs[np.arange(dirs.shape[0]), axis] > 0, 1, -1)
    classes = _ROOM_FACE_CLASS[axis, (sign > 0).astype(np.intp)]
    normals = np.zeros_like(dirs)
    normals[np.arange(dirs.shape[0]), axis] = -sign
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
    return t, classes, normals @ cam.rotation.T


def _summaries_reference(depth, labels, normals, patch_size):
    """_patch_summaries as a loop over [ps, ps] slices."""
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


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()   # signed zeros too


@pytest.mark.parametrize("seed, n_frames, resolution, n_objects", [
    (3, 1, (28, 28), 1), (4, 6, (28, 28), 8), (5, 32, (56, 56), 8),
    (6, 3, (56, 56), 1), (7, 1, (28, 42), 8), (8, 4, (28, 42), 3),
])
def test_cast_and_summaries_match_reference(seed, n_frames, resolution, n_objects):
    scene = gen_scene(seed, n_frames=n_frames, resolution=resolution, n_objects=n_objects,
                      tokenizer=TOK)
    h, w = resolution
    jj, ii = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    for f in scene.frames:
        want = _cast_reference(f.camera, scene.geometry, ii, jj)
        for got, ref in zip(cast_pixels(f.camera, scene.geometry, ii, jj), want):
            _assert_same_bits(got, ref)
        depth, classes, normals = want[0].reshape(h, w), want[1].reshape(h, w), \
            want[2].reshape(h, w, 3)
        _assert_same_bits(f.depth.values, depth)
        _assert_same_bits(f.labels, classes)
        feats, majority = _summaries_reference(depth, classes, normals, TOK.patch_size)
        _assert_same_bits(f.patch_summary, feats)
        _assert_same_bits(f.patch_labels, majority)
        for got, ref in zip(_patch_summaries(depth, classes, normals, TOK.patch_size),
                            (feats, majority)):
            _assert_same_bits(got, ref)


@pytest.mark.parametrize("bad", [-1, NUM_CLASSES])
def test_summaries_reject_out_of_range_label(bad):
    # a label one past the last class would be counted into the next patch's
    # first bin of the flat (patch, class) histogram
    depth, normals = np.ones((28, 28)), np.zeros((28, 28, 3))
    labels = np.zeros((28, 28), dtype=np.int16)
    labels[3, 5] = bad
    with pytest.raises(ParameterError, match="class labels"):
        _patch_summaries(depth, labels, normals, TOK.patch_size)


# proper signed permutations: exact rotations that send the camera axes to world axes
_AXIS_ROTATIONS = [r for r in (np.diag(s)[list(p)] for p in itertools.permutations(range(3))
                               for s in itertools.product((-1.0, 1.0), repeat=3))
                   if np.linalg.det(r) > 0]
_half_steps = st.integers(-4, 4).map(lambda k: k / 2)
_ints = st.integers(-3, 3)


@st.composite
def _integer_boxes(draw):
    lo = np.array([draw(_ints) for _ in range(3)], dtype=np.float64)
    size = np.array([draw(st.integers(1, 3)) for _ in range(3)], dtype=np.float64)
    return Box(lo=lo, hi=lo + size, class_id=7 + draw(st.integers(0, 3)))


@settings(max_examples=400, deadline=None)
@given(rot=st.sampled_from(_AXIS_ROTATIONS),
       lo=st.tuples(*[st.integers(-3, -1)] * 3), hi=st.tuples(*[st.integers(1, 3)] * 3),
       i=_half_steps, j=_half_steps, boxes=st.lists(_integer_boxes(), max_size=3))
# a ray from the centre of a cube through its corner, where the corner of a box sits too
@example(rot=np.eye(3), lo=(-2, -2, -2), hi=(2, 2, 2), i=1.0, j=1.0,
         boxes=[Box(lo=np.ones(3), hi=np.full(3, 2.0), class_id=8)])
def test_single_axis_aligned_rays_match_reference(rot, lo, hi, i, j, boxes):
    """Integer rooms and boxes, and rays with components in {0, +-1/2, +-1, ...}
    seen from the origin, tie exit and entry distances exactly (room corners
    and box edges) and take the zero-component floor; the ties go to the
    first axis, as np.argmin/np.argmax give them."""
    geom = SceneGeometry(room=Box(lo=np.array(lo, dtype=np.float64),
                                  hi=np.array(hi, dtype=np.float64), class_id=0),
                         objects=boxes)
    cam = CameraModel(fx=1.0, fy=1.0, cx=0.0, cy=0.0, rotation=rot, translation=np.zeros(3),
                      scale_kind=METRIC)
    got = cast_pixels(cam, geom, np.array([i]), np.array([j]))
    for g, ref in zip(got, _cast_reference(cam, geom, np.array([i]), np.array([j]))):
        _assert_same_bits(g, ref)


def test_corner_ray_ties_go_to_first_axis():
    # exits through x = y = z = 2 at once: the x wall; enters the box at x = y = z = 1
    room = Box(lo=np.full(3, -2.0), hi=np.full(3, 2.0), class_id=0)
    cam = CameraModel(fx=1.0, fy=1.0, cx=0.0, cy=0.0, rotation=np.eye(3),
                      translation=np.zeros(3), scale_kind=METRIC)
    ray = (np.array([1.0]), np.array([1.0]))
    depth, classes, normals = cast_pixels(cam, SceneGeometry(room=room, objects=[]), *ray)
    assert (depth[0], classes[0]) == (2.0, WALL_X1)
    assert normals[0].tolist() == [-1.0, 0.0, 0.0]
    box = Box(lo=np.ones(3), hi=np.full(3, 2.0), class_id=9)
    depth, classes, normals = cast_pixels(cam, SceneGeometry(room=room, objects=[box]), *ray)
    assert (depth[0], classes[0]) == (1.0, 9)
    assert normals[0].tolist() == [-1.0, 0.0, 0.0]


@pytest.mark.parametrize("center, message", [
    ((0.0, 0.0, 5.0), "inside the room"), ((2.0, 0.0, 0.0), "inside the room"),
    ((0.0, -2.0, 0.0), "inside the room"),
    ((np.nan, 0.0, 0.0), "must be finite"),   # refused by CameraModel itself
], ids=["outside", "on-x-wall", "on-y-wall", "nan"])
def test_camera_outside_room_rejected(center, message):
    room = Box(lo=np.full(3, -2.0), hi=np.full(3, 2.0), class_id=0)
    with pytest.raises(ParameterError, match=message):
        cam = CameraModel(fx=1.0, fy=1.0, cx=0.0, cy=0.0, rotation=np.eye(3),
                          translation=-np.array(center), scale_kind=METRIC)
        cast_pixels(cam, SceneGeometry(room=room, objects=[]), np.zeros(1), np.zeros(1))


def _scene_digest(scene) -> str:
    """SHA-256 over the dtype, shape and bytes of every array of a scene."""
    arrays = [scene.geometry.room.lo, scene.geometry.room.hi]
    arrays += [a for b in scene.geometry.objects for a in (b.lo, b.hi, np.array(b.class_id))]
    for f in scene.frames:
        arrays += [f.camera.rotation, f.camera.translation, f.depth.values, f.labels,
                   f.patch_summary, f.patch_labels, f.base.tokens.data,
                   f.teacher_geom.tokens.data, f.teacher_lang.tokens.data]
    digest = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a.tobytes())
    return digest.hexdigest()


def test_scene_bytes_pinned():
    """Any change to a generated scene's bits fails here, not only in the
    benchmark's canary: the digest is that of the scene as generated with
    the row-major reference cast and looped summaries above."""
    scene = gen_scene(3, n_frames=4, resolution=(28, 28), n_objects=4)
    assert _scene_digest(scene) == SCENE_3_DIGEST


SCENE_3_DIGEST = "36d0cb3263e5c109a68d038d5303988d6a8f0aae3c964957bb2ba5574b0fc9e4"
# scene.vlt holds the bytes of the per-frame .vlt files of the older layout, back
# to back, and scene.json its scene.json with the frames' camera.json objects as
# `cameras`: these digests are those of the older layout's files, so joined
SAVED_SCENE_DIGESTS = {
    "scene.json": "a7851a0e57a1c643c1a4563924ed4b5d6406bf935771bce1072e5e6c01ad3087",
    "scene.vlt": "a58508747b558d7a31e1393f58a86c514e50d98f99d64880c5b2057530c23117",
}
