import numpy as np
import pytest

from geovid.errors import ParameterError
from geovid.geometry import GROUND_TRUTH, CameraModel, METRIC, look_at_rotation
from geovid.patch3d import backproject, project
from geovid.synthscene import (
    CEILING, FLOOR, NUM_CLASSES, WALL_X0, WALL_X1, WALL_Y0, WALL_Y1, Box, SceneGeometry, TokenizerConfig, cast_pixels, gen_scene,
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


def test_save_load_roundtrip(tmp_path):
    scene = _scene(seed=10, n_frames=3)
    save_scene(tmp_path / "s", scene)
    loaded = load_scene(tmp_path / "s")
    assert loaded.seed == scene.seed
    assert loaded.resolution == scene.resolution
    for fa, fb in zip(scene.frames, loaded.frames):
        assert np.array_equal(fa.depth.values, fb.depth.values)
        assert np.array_equal(fa.labels, fb.labels)
        assert np.array_equal(fa.base.tokens.data, fb.base.tokens.data)
        assert np.array_equal(fa.patch_labels, fb.patch_labels)
        np.testing.assert_allclose(fa.camera.rotation, fb.camera.rotation,
                                   atol=1e-15)
