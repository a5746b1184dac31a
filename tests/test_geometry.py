import json

import numpy as np
import pytest

from geovid.errors import ParameterError, ShapeError
from geovid.geometry import (
    METRIC, RELATIVE, CameraModel, DepthMap, _cross3, bilinear_sample, look_at_rotation,
    quaternion_to_rotation, rotation_angle_deg, rotation_to_quaternion,
)


def test_camera_orthonormality_enforced():
    bad = np.eye(3)
    bad[0, 1] = 0.01
    with pytest.raises(ParameterError):
        CameraModel(fx=10, fy=10, cx=5, cy=5, rotation=bad,
                    translation=np.zeros(3))


def test_camera_reflection_rejected():
    refl = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ParameterError):
        CameraModel(fx=10, fy=10, cx=5, cy=5, rotation=refl,
                    translation=np.zeros(3))


def test_camera_positive_focals():
    with pytest.raises(ParameterError):
        CameraModel(fx=-1, fy=10, cx=5, cy=5, rotation=np.eye(3),
                    translation=np.zeros(3))


@pytest.mark.parametrize("field, value", [
    ("fx", np.inf), ("fy", np.inf), ("cx", np.nan), ("cy", -np.inf),
    ("translation", [np.nan, 0.0, 0.0]), ("translation", [0.0, 0.0, np.inf]),
])
def test_camera_rejects_non_finite(field, value):
    kw = dict(fx=10.0, fy=10.0, cx=5.0, cy=5.0, rotation=np.eye(3),
              translation=np.zeros(3))
    kw[field] = value
    with pytest.raises(ParameterError, match="finite"):
        CameraModel(**kw)


def test_camera_load_rejects_nan_translation(tmp_path):
    cam = CameraModel(fx=10.0, fy=10.0, cx=5.0, cy=5.0, rotation=np.eye(3),
                      translation=np.zeros(3))
    obj = cam.to_json()
    obj["translation"] = [float("nan"), 0.0, 0.0]
    (tmp_path / "cam.json").write_text(json.dumps(obj))   # writes a NaN literal
    with pytest.raises(ParameterError, match="finite"):
        CameraModel.load(tmp_path / "cam.json")


def test_camera_json_quaternion_norm_cannot_overflow():
    # the norm of [1e308, 1e308, 0, 0] overflows to inf, which once read it as
    # the identity; scaled by a power of two first, it is a half turn about x + y
    obj = CameraModel(fx=10.0, fy=10.0, cx=5.0, cy=5.0, rotation=np.eye(3),
                      translation=np.zeros(3)).to_json()
    obj["quaternion"] = [1e308, 1e308, 0.0, 0.0]
    want = quaternion_to_rotation(np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0))
    np.testing.assert_allclose(CameraModel.from_json(obj).rotation, want, rtol=0, atol=1e-15)
    # the power-of-two scaling is exact: a quaternion that did not overflow
    # gives the rotation it gave before, bit for bit
    rng = np.random.default_rng(1)
    for q in rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-5, 5, size=(50, 1)):
        obj["quaternion"] = q.tolist()
        assert np.array_equal(CameraModel.from_json(obj).rotation,
                              quaternion_to_rotation(q / np.linalg.norm(q)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("q", [[0.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 1.0],
                               [np.inf, 0.0, 0.0, 0.0], [1.0, 0.0, -np.inf, 0.0]])
def test_camera_json_rejects_zero_or_non_finite_quaternion(q):
    obj = CameraModel(fx=10.0, fy=10.0, cx=5.0, cy=5.0, rotation=np.eye(3),
                      translation=np.zeros(3)).to_json()
    obj["quaternion"] = q
    with pytest.raises(ParameterError, match="quaternion"):
        CameraModel.from_json(obj)


def test_camera_center():
    pos = np.array([1.0, 2.0, 3.0])
    r = look_at_rotation(pos, np.zeros(3))
    cam = CameraModel(fx=10, fy=10, cx=5, cy=5, rotation=r, translation=-r @ pos)
    np.testing.assert_allclose(cam.center(), pos, atol=1e-12)


def test_camera_json_roundtrip(tmp_path):
    pos = np.array([0.5, -1.0, 2.0])
    r = look_at_rotation(pos, np.array([0.0, 0.3, 0.0]))
    cam = CameraModel(fx=42.0, fy=43.0, cx=10.0, cy=11.0, rotation=r,
                      translation=-r @ pos, scale_kind=METRIC)
    cam.save(tmp_path / "cam.json")
    cam2 = CameraModel.load(tmp_path / "cam.json")
    np.testing.assert_allclose(cam2.rotation, cam.rotation, atol=1e-12)
    np.testing.assert_allclose(cam2.translation, cam.translation, atol=1e-15)
    assert cam2.scale_kind == METRIC


def test_quaternion_roundtrip_many():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(300):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        r = quaternion_to_rotation(q)
        q2 = rotation_to_quaternion(r)
        r2 = quaternion_to_rotation(q2)
        worst = max(worst, np.abs(r - r2).max())
    assert worst < 1e-12


def test_rotation_angle():
    assert rotation_angle_deg(np.eye(3)) == 0.0
    half_turn = np.diag([1.0, -1.0, -1.0])
    assert rotation_angle_deg(half_turn) == pytest.approx(180.0)
    stack = np.stack([np.eye(3), half_turn])
    assert rotation_angle_deg(stack).tolist() == [0.0, rotation_angle_deg(half_turn)]


def test_look_at_points_forward():
    pos = np.array([2.0, 0.0, 1.0])
    target = np.array([0.0, 0.0, 1.0])
    r = look_at_rotation(pos, target)
    fwd_world = r.T @ np.array([0.0, 0.0, 1.0])
    np.testing.assert_allclose(fwd_world, [-1.0, 0.0, 0.0], atol=1e-12)
    assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_look_at_degenerate():
    with pytest.raises(ParameterError):
        look_at_rotation(np.zeros(3), np.zeros(3))
    with pytest.raises(ParameterError):
        look_at_rotation(np.zeros(3), np.array([0.0, 0.0, 1.0]))  # parallel to up


def test_cross3_matches_np_cross_bit_for_bit():
    # seeded vectors with exact zeros of both signs, crossed with each other and
    # with the default up, so the signs of zero products and differences count too
    rng = np.random.default_rng(7)
    up = np.array([0.0, 0.0, 1.0])
    for _ in range(2000):
        a, b = (rng.standard_normal(3) * rng.choice([0.0, -0.0, 1.0], 3) for _ in range(2))
        for x, y in ((a, b), (a, up), (up, a), (a, -up), (a, a)):
            assert _cross3(x, y).tobytes() == np.cross(x, y).tobytes()


def test_look_at_matches_np_cross_reference_bit_for_bit():
    def reference(position, target, up=np.array([0.0, 0.0, 1.0])):
        z = (target - position) / np.linalg.norm(target - position)
        x = np.cross(z, up)
        x = x / np.linalg.norm(x)
        return np.stack([x, np.cross(z, x), z])

    rng = np.random.default_rng(11)
    for _ in range(500):
        pos = rng.standard_normal(3) * rng.choice([0.0, -0.0, 1.0], 3)
        fwd = rng.standard_normal(3) * rng.choice([0.0, -0.0, 1.0, 1.0], 3)
        if np.linalg.norm(fwd[:2]) < 1e-3:   # (nearly) parallel to up
            continue
        for up in (np.array([0.0, 0.0, 1.0]), np.array([0.0, -1.0, 0.0])):
            if np.linalg.norm(np.cross(fwd, up)) < 1e-3 * np.linalg.norm(fwd):
                continue
            got = look_at_rotation(pos, pos + fwd, up=up)
            assert got.tobytes() == reference(pos, pos + fwd, up).tobytes()


def test_depth_map_validation():
    for bad in ([[1.0, -2.0]], [[np.nan, np.nan], [np.nan, np.nan]], [[np.inf, 1.0]]):
        with pytest.raises(ParameterError, match="finite and strictly positive"):
            DepthMap(np.array(bad))
    with pytest.raises(ShapeError):
        DepthMap(np.ones(4))
    dm = DepthMap(np.array([[0.0, 2.0]]), valid_mask=np.array([[False, True]]))
    assert dm.valid_mask.sum() == 1


def test_bilinear_sample_hand_values():
    img = np.array([[0.0, 1.0], [2.0, 3.0]])
    assert bilinear_sample(img, np.array([0.5]), np.array([0.5]))[0] == pytest.approx(1.5)
    assert bilinear_sample(img, np.array([0.0]), np.array([0.0]))[0] == 0.0
    # border clamp
    assert bilinear_sample(img, np.array([5.0]), np.array([5.0]))[0] == 3.0
