import re
import struct
import tracemalloc

import numpy as np
import pytest

from geovid.errors import DomainError, ParameterError, ShapeError, StateError
from geovid.geometry import METRIC, RELATIVE, CameraModel, DepthMap, look_at_rotation
from geovid.numkit import MlpParams, Role, Tensor, TokenSet, grad_check, tsum
from geovid.patch3d import (
    Patch3DTokens, PointCloud, backproject, fuse_tokens, positional_embed,
    project, read_ply, write_ply,
)

from _oracles import frame_fuse_tokens


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
        lang = TokenSet(Tensor(rng.standard_normal((1, 4, 8))), Role.LANG)   # a window of one
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
        t3d = fuse_tokens(lang, [depth], [cam], p, patch_size=14)
        np.testing.assert_array_equal(t3d.tokens.data, lang.tokens.data)

    def test_token_count_preserved(self):
        lang, depth, cam, p = self._setup()
        t3d = fuse_tokens(lang, [depth], [cam], p, patch_size=14)
        assert t3d.tokens.shape == (1, 4, 8)
        assert t3d.anchor_points.shape == (1, 4, 3)

    def test_additive_structure(self):
        lang, depth, cam, p = self._setup(seed=3)
        t3d = fuse_tokens(lang, [depth], [cam], p, patch_size=14)
        emb = positional_embed(t3d.anchor_points, p)
        np.testing.assert_allclose(t3d.tokens.data - lang.tokens.data,
                                   emb.data, atol=1e-14)

    def test_rigid_transform_moves_anchors_rigidly(self):
        lang, depth, cam, p = self._setup(seed=4)
        t3d = fuse_tokens(lang, [depth], [cam], p, patch_size=14)
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
        t3d2 = fuse_tokens(lang, [depth], [cam2], p, patch_size=14)
        expected = t3d.anchor_points @ rg.T + tg
        np.testing.assert_allclose(t3d2.anchor_points, expected, atol=1e-9)

    def test_relative_depth_rejected(self):
        lang, depth, cam, p = self._setup()
        rel = DepthMap(depth.values, scale_kind=RELATIVE)
        with pytest.raises(StateError):
            fuse_tokens(lang, [rel], [cam], p, patch_size=14)

    def test_grid_mismatch_rejected(self):
        lang, depth, cam, p = self._setup()
        bad = TokenSet(Tensor(np.ones((1, 5, 8))), Role.LANG)
        with pytest.raises(ShapeError):
            fuse_tokens(bad, [depth], [cam], p, patch_size=14)

    def test_frame_count_mismatch_rejected(self):
        lang, depth, cam, p = self._setup()
        for depths, cams in (([depth, depth], [cam]), ([depth], [cam, cam]),
                             ([depth, depth], [cam, cam])):
            with pytest.raises(ShapeError):
                fuse_tokens(lang, depths, cams, p, patch_size=14)
        with pytest.raises(ShapeError):   # one frame's [N, C] tokens are not a window
            fuse_tokens(lang[0], [depth], [cam], p, patch_size=14)

    def test_window_is_bit_identical_to_per_frame_graphs(self):
        # three frames with their own depths and cameras, fused in one call
        # and one frame at a time (the single-frame form of _oracles), with
        # the gradient reaching the tokens and the MLP
        rng = np.random.default_rng(6)
        p = MlpParams.init(rng, 3, 8)
        tokens = Tensor(rng.standard_normal((3, 4, 8)), requires_grad=True)
        depths = [DepthMap(rng.uniform(1.0, 4.0, (28, 28)), scale_kind=METRIC)
                  for _ in range(3)]
        cams = []
        for _ in range(3):
            pos = rng.uniform(1.0, 2.0, 3)
            r = look_at_rotation(pos, np.array([0.0, 0.0, 0.5]))
            cams.append(_cam(fx=30.0, cx=13.5, r=r, t=-r @ pos))
        w = Tensor(rng.standard_normal((3, 4, 8)))
        leaves = [tokens, *p.tensors("p").values()]
        runs = []
        for window in (True, False):
            for t in leaves:
                t.zero_grad()
            if window:
                t3d = fuse_tokens(TokenSet(tokens, Role.LANG), depths, cams, p, patch_size=14)
                out, anchors = t3d.tokens, t3d.anchor_points
                terms = [tsum(out[f] * w[f]) for f in range(3)]
            else:
                fused = [frame_fuse_tokens(tokens[f], depths[f], cams[f], p, 14)
                         for f in range(3)]
                out = np.stack([t.data for t, _ in fused])
                anchors = np.stack([a for _, a in fused])
                terms = [tsum(t * w[f]) for f, (t, _) in enumerate(fused)]
            total = (terms[0] + terms[1]) + terms[2]
            total.backward()
            runs.append([getattr(out, "data", out), anchors, *(t.grad for t in leaves)])
        for got, want in zip(*runs):
            np.testing.assert_array_equal(got, want)


# the PLY header of n little-endian double x, y, z vertices, as the format
# (Turk, Stanford 1994) spells it: the byte reference for write_ply
PLY_HEADER = (b"ply\nformat binary_little_endian 1.0\nelement vertex %d\nproperty double x\n"
              b"property double y\nproperty double z\nend_header\n")


def _refused(path, said=""):
    """pytest.raises for a ParameterError that names `path`, then says `said`."""
    return pytest.raises(ParameterError, match=re.escape(str(path)) + ".*" + re.escape(said))


class TestPly:
    def test_roundtrip_plain(self, tmp_path):
        pts = np.random.default_rng(0).standard_normal((10, 3))
        write_ply(tmp_path / "c.ply", PointCloud(points=pts))
        assert read_ply(tmp_path / "c.ply").points.tobytes() == pts.tobytes()

    def test_header_format(self, tmp_path):
        write_ply(tmp_path / "c.ply", PointCloud(points=np.zeros((1, 3))))
        assert (tmp_path / "c.ply").read_bytes() == PLY_HEADER % 1 + bytes(24)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_body_rejected(self, tmp_path, bad):
        body = np.zeros((2, 3))
        body[1, 2] = bad
        (tmp_path / "c.ply").write_bytes(PLY_HEADER % 2 + body.astype("<f8").tobytes())
        with _refused(tmp_path / "c.ply", "must be finite"):
            read_ply(tmp_path / "c.ply")

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_largest_coordinate_with_a_finite_form_round_trips(self, tmp_path, sign):
        # the largest floats keep every bit
        pts = sign * np.array([[np.finfo(float).max, 1.7976931345e308,
                                np.nextafter(1.7976931345e308, 0.0)]])
        write_ply(tmp_path / "c.ply", PointCloud(points=pts))
        assert read_ply(tmp_path / "c.ply").points.tobytes() == pts.tobytes()

    def test_deterministic_bytes(self, tmp_path):
        pts = np.random.default_rng(2).standard_normal((20, 3)) * 3.7
        write_ply(tmp_path / "a.ply", PointCloud(points=pts))
        write_ply(tmp_path / "b.ply", PointCloud(points=pts))
        assert (tmp_path / "a.ply").read_bytes() == (tmp_path / "b.ply").read_bytes()

    @pytest.mark.parametrize("body", [
        bytes(24),                        # two vertices declared, one present
        bytes(40),                        # short row
        b"0 0 0\n1 nan? 2\n",             # text rows under the binary header
        bytes(49),                        # one byte after the last vertex
    ], ids=["missing-row", "short-row", "non-numeric", "trailing-byte"])
    def test_malformed_body_rejected(self, tmp_path, body):
        (tmp_path / "c.ply").write_bytes(PLY_HEADER % 2 + body)
        with _refused(tmp_path / "c.ply"):
            read_ply(tmp_path / "c.ply")

    def test_huge_vertex_count_rejected_before_allocating(self, tmp_path):
        (tmp_path / "c.ply").write_bytes(PLY_HEADER % 10**15 + bytes(72))
        tracemalloc.start()
        try:
            with _refused(tmp_path / "c.ply"):
                read_ply(tmp_path / "c.ply")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_ascii_cloud_of_older_layout_asks_for_infer(self, tmp_path):
        (tmp_path / "c.ply").write_text("ply\nformat ascii 1.0\nelement vertex 1\n"
                                        "property float x\nproperty float y\n"
                                        "property float z\nend_header\n0 0 0\n")
        with _refused(tmp_path / "c.ply", "rerun `geovid infer`"):
            read_ply(tmp_path / "c.ply")

    @pytest.mark.parametrize("old, new", [
        (b"property double z\n", b"property double z\nproperty uchar rXd\n"),
        (b"binary_little_endian", b"binary_big_endian"),
        (b"property double z\n", b""),
        (b"property double z", b"property float z"),
        (b"property double z\n", b"property double z\nproperty uchar red\n"
                                  b"property uchar green\n"),
        (b"1.0\n", b"1.0\ncomment other writer\n"),
        (b"element vertex 2", b"element vertex -2"),
        (b"element vertex 2", b"element face 2"),
        (b"end_header\n", b""),
        (b"property double x", b"property float x"),
        (b"element vertex 2", b"element vertex 02"),
    ], ids=["corrupt-red", "binary-format", "no-z", "double-z", "no-blue",
            "comment", "negative-count", "face-element", "no-end-header", "float-x",
            "zero-padded-count"])
    def test_header_other_than_write_ply_rejected(self, tmp_path, old, new):
        write_ply(tmp_path / "c.ply", PointCloud(points=np.arange(6, dtype=float).reshape(2, 3)))
        data = (tmp_path / "c.ply").read_bytes()
        assert old in data
        (tmp_path / "c.ply").write_bytes(data.replace(old, new, 1))
        with _refused(tmp_path / "c.ply"):
            read_ply(tmp_path / "c.ply")

    def test_directory_rejected(self, tmp_path):
        (tmp_path / "c.ply").mkdir()
        with _refused(tmp_path / "c.ply"):
            read_ply(tmp_path / "c.ply")


def _edge_points(n: int, seed: int) -> np.ndarray:
    """n points led by signed zeros, subnormals, +-1e300 and +-the largest
    float, then random magnitudes over 1e-12 .. 1e12."""
    big = np.finfo(float).max
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
             big, -big]
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal(n * 3) * 10.0 ** rng.integers(-12, 13, n * 3)
    pts[:len(edges)] = edges
    return pts.reshape(n, 3)


@pytest.mark.parametrize("n", [0, 1, 7, 4096, 4097, 8221], ids=lambda n: f"xyz-rows{n}")
def test_ply_bytes_match_row_by_row_writer(tmp_path, n):
    # the reference writes each vertex as the format spells it: x, y, z as
    # little-endian doubles, one row at a time
    pts = _edge_points(max(n, 3), seed=n)[:n]
    write_ply(tmp_path / "c.ply", PointCloud(points=pts))
    rows = b"".join(struct.pack("<ddd", *row) for row in pts.tolist())
    assert (tmp_path / "c.ply").read_bytes() == PLY_HEADER % n + rows
    back = read_ply(tmp_path / "c.ply")
    assert back.points.shape == (n, 3)
    assert back.points.tobytes() == pts.tobytes()
