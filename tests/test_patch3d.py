import numpy as np
import pytest

from geovid.errors import DomainError, ParameterError, ShapeError, StateError
from geovid.geometry import METRIC, RELATIVE, CameraModel, DepthMap, look_at_rotation
from geovid.numkit import MlpParams, Role, Tensor, TokenSet, grad_check, tsum
from geovid.patch3d import (
    Patch3DTokens, PointCloud, backproject, fuse_tokens, positional_embed,
    PLY_CHUNK, project, read_ply, write_ply,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_colors_rejected(self, bad):
        # write_ply cannot print a non-finite channel as a uchar
        cols = np.zeros((2, 3))
        cols[1, 2] = bad
        with pytest.raises(ParameterError, match="colors must be finite"):
            PointCloud(points=np.zeros((2, 3)), colors=cols)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("big", [np.finfo(float).max, 1.7976931345e308])
    def test_coordinate_written_as_inf_rejected_before_writing(self, tmp_path, big, sign):
        # both print as 1.797693135e+308, which parses as inf
        pts = np.zeros((3, 3))
        pts[1, 2] = sign * big
        with pytest.raises(ParameterError, match="largest float"):
            write_ply(tmp_path / "c.ply", PointCloud(points=pts))
        assert not (tmp_path / "c.ply").exists()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_largest_coordinate_with_a_finite_form_round_trips(self, tmp_path, sign):
        # the float just below 1.7976931345e308 prints as 1.797693134e+308
        big = np.nextafter(1.7976931345e308, 0.0)
        write_ply(tmp_path / "c.ply", PointCloud(points=[[0.0, sign * big, 1.0]]))
        assert read_ply(tmp_path / "c.ply").points[0, 1] == sign * 1.797693134e308

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



def row_by_row_write_ply(path, cloud: PointCloud) -> None:
    """The PLY writer as one f-string per row, kept as the byte reference."""
    lines = ["ply", "format ascii 1.0", f"element vertex {len(cloud)}",
             "property float x", "property float y", "property float z"]
    if cloud.colors is not None:
        lines += ["property uchar red", "property uchar green", "property uchar blue"]
    lines.append("end_header")
    rows = [f"{x:.10g} {y:.10g} {z:.10g}" for x, y, z in cloud.points]
    if cloud.colors is not None:
        rgb = np.clip(np.round(cloud.colors * 255), 0, 255).astype(int)
        rows = [f"{row} {r} {g} {b}" for row, (r, g, b) in zip(rows, rgb)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines + rows))
        fh.write("\n")


def _edge_points(n: int, seed: int) -> np.ndarray:
    """n points led by signed zeros, subnormals, +-1e300 and values that
    round at the 10th significant digit, then random magnitudes over
    1e-12 .. 1e12."""
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
             1.23456789049999, 1.2345678905, 9.9999999995, -9.99999999949,
             0.12345678915, 99999999995.0, 1e-7 * 1.00000000005, -0.99999999995]
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal(n * 3) * 10.0 ** rng.integers(-12, 13, n * 3)
    pts[:len(edges)] = edges
    return pts.reshape(n, 3)


@pytest.mark.parametrize("n", [0, 1, 7, PLY_CHUNK, PLY_CHUNK + 1, 2 * PLY_CHUNK + 29],
                         ids=lambda n: f"rows{n}")
@pytest.mark.parametrize("colors", [False, True], ids=["xyz", "rgb"])
def test_ply_bytes_match_row_by_row_writer(tmp_path, n, colors):
    pts = _edge_points(max(n, 5), seed=n)[:n]
    cols = None
    if colors:   # 0, 1, and either side of the k + 0.5 rounding edge of x * 255
        edge = (np.arange(n * 3) % 255 + 0.5) / 255
        cols = np.where(np.arange(n * 3) % 4 == 0, edge,
                        np.nextafter(edge, np.where(np.arange(n * 3) % 4 == 1, 0.0, 1.0)))
        cols[:6] = [0.0, 1.0, 0.5 / 255, 254.5 / 255, 1e-300, 1.0 - 1e-16][:len(cols[:6])]
        cols = cols.reshape(n, 3)
    cloud = PointCloud(points=pts, colors=cols)
    write_ply(tmp_path / "new.ply", cloud)
    row_by_row_write_ply(tmp_path / "old.ply", cloud)
    assert (tmp_path / "new.ply").read_bytes() == (tmp_path / "old.ply").read_bytes()
    back = read_ply(tmp_path / "new.ply")
    assert len(back) == n
    parsed = np.array([float(f"{v:.10g}") for v in pts.ravel()]).reshape(-1, 3)
    assert back.points.tobytes() == parsed.tobytes()
    if colors:
        np.testing.assert_array_equal(back.colors * 255, np.round(cloud.colors * 255))
