import numpy as np
import pytest

from geovid.errors import DomainError, ParameterError, ShapeError, StateError
from geovid.geometry import METRIC, RELATIVE, CameraModel, DepthMap, look_at_rotation
from geovid.numkit import MlpParams, Role, Tensor, TokenSet, grad_check, tsum
from geovid.patch3d import (
    Patch3DTokens, PointCloud, backproject, fuse_tokens, positional_embed,
    project, read_ply, write_ply,
)


def _cam(fx=100.0, cx=50.0, r=None, t=None, kind=METRIC):
    return CameraModel(fx=fx, fy=fx, cx=cx, cy=cx,
                       rotation=np.eye(3) if r is None else r,
                       translation=np.zeros(3) if t is None else np.asarray(t, float),
                       scale_kind=kind)


class TestBackproject:
    def test_principal_ray(self):
        p = backproject((50.0, 50.0), 2.0, _cam())
        np.testing.assert_allclose(p, [0.0, 0.0, 2.0], atol=1e-15)

    def test_translation_term(self):
        p = backproject((50.0, 50.0), 2.0, _cam(t=[0.0, 0.0, 1.0]))
        np.testing.assert_allclose(p, [0.0, 0.0, 1.0], atol=1e-15)

    def test_rotated_camera_hand_case(self):
        # 90 degrees about z: R maps world (x, y) -> camera (y, -x)
        r = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        p = backproject((150.0, 50.0), 1.0, _cam(r=r))
        # K^-1 [150, 50, 1] * 1 = (1, 0, 1); R^-1 (1, 0, 1) = (0, -1, 1)... check
        expected = r.T @ np.array([1.0, 0.0, 1.0])
        np.testing.assert_allclose(p, expected, atol=1e-14)

    def test_nonpositive_depth_rejected(self):
        with pytest.raises(DomainError):
            backproject((10.0, 10.0), 0.0, _cam())


class TestProject:
    def test_optical_axis_hits_principal_point(self):
        (i, j), d = project(np.array([0.0, 0.0, 3.0]), _cam())
        assert (i, j) == (50.0, 50.0) and d == 3.0

    def test_behind_camera_rejected(self):
        with pytest.raises(DomainError):
            project(np.array([0.0, 0.0, -1.0]), _cam())

    def test_roundtrip_thousand_random_cases(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            pos = rng.uniform(-2, 2, 3)
            target = pos + rng.uniform(-1, 1, 3) + np.array([0.01, 0.01, -0.5])
            r = look_at_rotation(pos, target)
            cam = _cam(fx=rng.uniform(30, 200), cx=rng.uniform(20, 80),
                       r=r, t=-r @ pos)
            pixel = (rng.uniform(0, 100), rng.uniform(0, 100))
            depth = rng.uniform(0.1, 10.0)
            point = backproject(pixel, depth, cam)
            (i, j), d = project(point, cam)
            worst = max(worst, abs(i - pixel[0]), abs(j - pixel[1]), abs(d - depth))
        assert worst < 1e-9


class TestPositionalEmbed:
    def test_zero_params_zero_embedding(self):
        p = MlpParams(w1=Tensor(np.zeros((3, 4))), b1=Tensor(np.zeros(4)),
                      w2=Tensor(np.zeros((4, 6))), b2=Tensor(np.zeros(6)))
        emb = positional_embed(np.array([[1.0, 2.0, 3.0]]), p)
        np.testing.assert_array_equal(emb.data, np.zeros((1, 6)))

    def test_distinct_points_distinct_embeddings(self):
        rng = np.random.default_rng(1)
        p = MlpParams.init(rng, 3, 8)
        a = positional_embed(np.array([[0.0, 0.0, 1.0]]), p)
        b = positional_embed(np.array([[0.5, -0.2, 2.0]]), p)
        assert np.linalg.norm(a.data - b.data) > 1e-8

    def test_gradient_wrt_point(self):
        rng = np.random.default_rng(2)
        p = MlpParams.init(rng, 3, 8)
        x = Tensor(rng.standard_normal((1, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((1, 8)))
        assert grad_check(lambda t: tsum(positional_embed(t, p) * w), x) < 1e-4


class TestFuseTokens:
    def _setup(self, seed=0, zero_mlp=False):
        rng = np.random.default_rng(seed)
        lang = TokenSet(Tensor(rng.standard_normal((4, 8))), Role.LANG)
        depth = DepthMap(rng.uniform(1.0, 4.0, (28, 28)), scale_kind=METRIC)
        pos = np.array([1.5, 1.5, 2.0])
        r = look_at_rotation(pos, np.array([0.0, 0.0, 0.5]))
        cam = _cam(fx=30.0, cx=13.5, r=r, t=-r @ pos)
        if zero_mlp:
            p = MlpParams(w1=Tensor(np.zeros((3, 4))), b1=Tensor(np.zeros(4)),
                          w2=Tensor(np.zeros((4, 8))), b2=Tensor(np.zeros(8)))
        else:
            p = MlpParams.init(rng, 3, 8)
        return lang, depth, cam, p

    def test_zero_positional_mlp_identity(self):
        lang, depth, cam, p = self._setup(zero_mlp=True)
        t3d = fuse_tokens(lang, depth, cam, p, patch_size=14)
        np.testing.assert_array_equal(t3d.tokens.data, lang.tokens.data)

    def test_token_count_preserved(self):
        lang, depth, cam, p = self._setup()
        t3d = fuse_tokens(lang, depth, cam, p, patch_size=14)
        assert t3d.tokens.shape == (4, 8)
        assert t3d.anchor_points.shape == (4, 3)

    def test_additive_structure(self):
        lang, depth, cam, p = self._setup(seed=3)
        t3d = fuse_tokens(lang, depth, cam, p, patch_size=14)
        emb = positional_embed(t3d.anchor_points, p)
        np.testing.assert_allclose(t3d.tokens.data - lang.tokens.data,
                                   emb.data, atol=1e-14)

    def test_rigid_transform_moves_anchors_rigidly(self):
        lang, depth, cam, p = self._setup(seed=4)
        t3d = fuse_tokens(lang, depth, cam, p, patch_size=14)
        # world transform x -> Rg x + tg observed by the adjusted camera
        rng = np.random.default_rng(5)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        ang = 0.7
        k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]],
                      [-axis[1], axis[0], 0]])
        rg = np.eye(3) + np.sin(ang) * k + (1 - np.cos(ang)) * (k @ k)
        tg = rng.standard_normal(3)
        cam2 = CameraModel(fx=cam.fx, fy=cam.fy, cx=cam.cx, cy=cam.cy,
                           rotation=cam.rotation @ rg.T,
                           translation=cam.translation - cam.rotation @ rg.T @ tg,
                           scale_kind=METRIC)
        t3d2 = fuse_tokens(lang, depth, cam2, p, patch_size=14)
        expected = t3d.anchor_points @ rg.T + tg
        np.testing.assert_allclose(t3d2.anchor_points, expected, atol=1e-9)

    def test_relative_depth_rejected(self):
        lang, depth, cam, p = self._setup()
        rel = DepthMap(depth.values, scale_kind=RELATIVE)
        with pytest.raises(StateError):
            fuse_tokens(lang, rel, cam, p, patch_size=14)

    def test_grid_mismatch_rejected(self):
        lang, depth, cam, p = self._setup()
        bad = TokenSet(Tensor(np.ones((5, 8))), Role.LANG)
        with pytest.raises(ShapeError):
            fuse_tokens(bad, depth, cam, p, patch_size=14)


PLY_HEADER = ("ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
              "property float y\nproperty float z\nend_header\n")


class TestPly:
    def test_roundtrip_plain(self, tmp_path):
        pts = np.random.default_rng(0).standard_normal((10, 3))
        write_ply(tmp_path / "c.ply", PointCloud(points=pts))
        cloud = read_ply(tmp_path / "c.ply")
        np.testing.assert_allclose(cloud.points, pts, atol=1e-9)
        assert cloud.colors is None

    def test_roundtrip_colors(self, tmp_path):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((5, 3))
        cols = rng.uniform(0, 1, (5, 3))
        write_ply(tmp_path / "c.ply", PointCloud(points=pts, colors=cols))
        cloud = read_ply(tmp_path / "c.ply")
        np.testing.assert_allclose(cloud.colors, cols, atol=1 / 255.0)

    def test_header_format(self, tmp_path):
        write_ply(tmp_path / "c.ply", PointCloud(points=np.zeros((1, 3))))
        text = (tmp_path / "c.ply").read_text().splitlines()
        assert text[0] == "ply"
        assert "element vertex 1" in text
        assert text[-1] == "0 0 0"

    def test_deterministic_bytes(self, tmp_path):
        pts = np.random.default_rng(2).standard_normal((20, 3)) * 3.7
        write_ply(tmp_path / "a.ply", PointCloud(points=pts))
        write_ply(tmp_path / "b.ply", PointCloud(points=pts))
        assert (tmp_path / "a.ply").read_bytes() == (tmp_path / "b.ply").read_bytes()

    @pytest.mark.parametrize("body", [
        "0 0 0\n",              # two vertices declared, one present
        "0 0 0\n1 2\n",         # short row
        "0 0 0\n1 nan? 2\n",    # non-numeric row
    ], ids=["missing-row", "short-row", "non-numeric"])
    def test_malformed_body_rejected(self, tmp_path, body):
        (tmp_path / "c.ply").write_text(PLY_HEADER + body)
        with pytest.raises(ParameterError):
            read_ply(tmp_path / "c.ply")

    @pytest.mark.parametrize("colors, old, new", [
        (True, "property uchar red", "property uchar rXd"),
        (False, "format ascii 1.0", "format binary_little_endian 1.0"),
        (False, "property float z\n", ""),
        (False, "property float z", "property double z"),
        (True, "property uchar blue\n", ""),
        (False, "format ascii 1.0\n", "format ascii 1.0\ncomment other writer\n"),
        (False, "element vertex 2", "element vertex -2"),
        (False, "element vertex 2", "element face 2"),
        (False, "end_header\n", ""),
    ], ids=["corrupt-red", "binary-format", "no-z", "double-z", "no-blue",
            "comment", "negative-count", "face-element", "no-end-header"])
    def test_header_other_than_write_ply_rejected(self, tmp_path, colors, old, new):
        pts = np.arange(6, dtype=float).reshape(2, 3)
        cols = np.full((2, 3), 0.5) if colors else None
        write_ply(tmp_path / "c.ply", PointCloud(points=pts, colors=cols))
        text = (tmp_path / "c.ply").read_text()
        assert old in text
        (tmp_path / "c.ply").write_text(text.replace(old, new, 1))
        with pytest.raises(ParameterError):
            read_ply(tmp_path / "c.ply")

