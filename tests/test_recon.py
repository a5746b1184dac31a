import numpy as np
import pytest

from geovid.errors import ParameterError, ShapeError
from geovid.numkit import (
    MlpParams, Role, Tensor, TokenSet, grad_check, matmul, maximum, mlp, rms_norm, softplus, tsum,
)
from geovid.recon import (
    BackboneParams, CameraHeadParams, CameraPrediction, DepthHeadParams,
    camera_head, depth_head_tensor, gfa_backbone, upsample_matrix,
)

from _oracles import upsample_matrix_oracle


def _frames(seed, n_frames=2, n=4, c=8):
    rng = np.random.default_rng(seed)
    return TokenSet(Tensor(rng.standard_normal((n_frames, n, c))), Role.GEOM)


def _bb(seed=0, c=8, heads=2, blocks=2):
    return BackboneParams.init(np.random.default_rng(seed), c, heads, blocks=blocks)


class TestBackbone:
    def test_single_frame_deterministic(self):
        p = _bb()
        frames = _frames(1, n_frames=1)
        a, ca = gfa_backbone(frames, p)
        b, cb = gfa_backbone(frames, p)
        assert np.array_equal(a[0].tokens.data, b[0].tokens.data)
        assert np.array_equal(ca[0].tokens.data, cb[0].tokens.data)

    def test_identical_frames_identical_outputs(self):
        p = _bb()
        rng = np.random.default_rng(2)
        tokens = rng.standard_normal((4, 8))
        frames = TokenSet(Tensor(np.stack([tokens, tokens])), Role.GEOM)
        patch, cam = gfa_backbone(frames, p)
        np.testing.assert_allclose(patch[0].tokens.data, patch[1].tokens.data,
                                   atol=1e-12)
        np.testing.assert_allclose(cam[0].tokens.data, cam[1].tokens.data,
                                   atol=1e-12)

    def test_register_reordering_invariance(self):
        p = _bb(seed=3)
        frames = _frames(4)
        patch1, cam1 = gfa_backbone(frames, p)
        perm = np.random.default_rng(0).permutation(p.register_init.shape[0])
        p.register_init.data = p.register_init.data[perm]
        patch2, cam2 = gfa_backbone(frames, p)
        assert patch1.tokens.shape == (2, 4, 8) and cam1.tokens.shape == (2, 1, 8)
        for a, b in ((patch1, patch2), (cam1, cam2)):
            np.testing.assert_allclose(a.tokens.data, b.tokens.data, atol=1e-12)

    def test_block_count_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError):
            BackboneParams.init(rng, 8, 2, blocks=3)

    def test_mixed_dims_rejected(self):
        p = _bb()
        rng = np.random.default_rng(5)
        frames = [TokenSet(Tensor(rng.standard_normal((4, 8))), Role.GEOM),
                  TokenSet(Tensor(rng.standard_normal((4, 16))), Role.GEOM)]
        with pytest.raises(ShapeError):
            gfa_backbone(TokenSet.stack(frames), p)
        with pytest.raises(ShapeError):   # one frame's [N, C] tokens, not a window
            gfa_backbone(frames[0], p)

    def test_window_equals_frame_by_frame_layout(self):
        # the batched window gives each frame the bits of the per-frame concat
        # layout: local blocks see one frame, global blocks all rows in order
        from geovid.numkit import concat
        from geovid.recon import _block
        p = _bb(seed=8, blocks=4)
        frames = _frames(9, n_frames=3)
        patch, cam = gfa_backbone(frames, p)
        n = frames.count
        states = [concat([frames.tokens[k], p.camera_init, p.register_init], axis=0)
                  for k in range(3)]
        for i, blk in enumerate(p.blocks):
            if i % 2 == 0:
                states = [_block(x, blk) for x in states]
            else:
                joint = _block(concat(states, axis=0), blk).data
                states = np.split(joint, 3)
                states = [Tensor(x) for x in states]
        for k in range(3):
            assert np.array_equal(patch[k].tokens.data, states[k].data[:n])
            assert np.array_equal(cam[k].tokens.data, states[k].data[n:n + 1])

    def test_gradient_through_backbone(self):
        p = _bb(seed=6, blocks=2)
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((2, 8)), requires_grad=True)
        other = TokenSet(Tensor(rng.standard_normal((2, 8))), Role.GEOM)
        w = Tensor(rng.standard_normal((2, 8)))

        def f(t):
            patch, cam = gfa_backbone(TokenSet.stack([TokenSet(t, Role.GEOM), other]), p)
            return tsum(patch[0].tokens * w) + tsum(cam[1].tokens)

        assert grad_check(f, x) < 1e-4


class TestCameraHead:
    def test_zero_head_gives_identity_pose(self):
        rng = np.random.default_rng(0)
        p = CameraHeadParams.init(rng, 8)   # second layer zero-initialized
        toks = TokenSet(Tensor(rng.standard_normal((1, 2, 8))), Role.CAMERA)
        pred = camera_head(toks, p, (28, 28))
        np.testing.assert_allclose(pred.quat.data, [[1.0, 0.0, 0.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(pred.translation.data, np.zeros((1, 3)), atol=1e-15)
        [cam] = pred.to_cameras()
        np.testing.assert_allclose(cam.rotation, np.eye(3), atol=1e-12)

    def test_rotation_always_orthonormal(self):
        rng = np.random.default_rng(1)
        p = CameraHeadParams.init(rng, 8)
        # randomize the whole head so outputs are arbitrary
        for t in p.tensors("h").values():
            t.data = rng.standard_normal(t.data.shape)
        for seed in range(5):
            r = np.random.default_rng(seed)
            toks = TokenSet(Tensor(r.standard_normal((1, 3, 8)) * 5), Role.CAMERA)
            [cam] = camera_head(toks, p, (28, 28)).to_cameras()
            np.testing.assert_allclose(cam.rotation @ cam.rotation.T, np.eye(3),
                                       atol=1e-9)
            assert abs(np.linalg.det(cam.rotation) - 1.0) < 1e-9

    def test_pose_loss_gradient_wrt_tokens(self):
        from geovid.geometry import METRIC, CameraModel
        from geovid.losses import recon_task_loss
        from geovid.geometry import DepthMap

        rng = np.random.default_rng(2)
        p = CameraHeadParams.init(rng, 8)
        for t in p.tensors("h").values():
            t.data = rng.standard_normal(t.data.shape) * 0.3
        gt_cam = CameraModel(fx=20.0, fy=20.0, cx=13.5, cy=13.5,
                             rotation=np.eye(3), translation=np.array([0.1, 0.2, 0.3]),
                             scale_kind=METRIC)
        gt_depth = DepthMap(np.full((28, 28), 2.0), scale_kind=METRIC)
        x = Tensor(rng.standard_normal((1, 2, 8)), requires_grad=True)

        def f(t):
            pred = camera_head(TokenSet(t, Role.CAMERA), p, (28, 28))
            res = recon_task_loss(pred, [gt_cam], Tensor(gt_depth.values[None]), [gt_depth])
            return res.pose

        assert grad_check(f, x) < 1e-4


def test_camera_head_window_matches_one_frame_slices():
    # one call on a 5-frame window against five calls on its one-frame
    # slices: each output row, each head gradient and the token gradient
    # bit for bit, which is what the per-frame oracles rely on
    from _oracles import joined_cameras

    rng = np.random.default_rng(4)
    p = CameraHeadParams.init(rng, 8)
    for t in p.tensors().values():
        t.data = rng.standard_normal(t.shape) * 0.5
    tokens = Tensor(rng.standard_normal((5, 2, 8)), requires_grad=True)
    fields = ("quat", "translation", "fx")
    weights = [Tensor(rng.standard_normal(shape)) for shape in ((5, 4), (5, 3), (5,))]
    leaves = [tokens, *p.tensors().values()]
    runs = []
    for one_frame in (False, True):
        for t in leaves:
            t.zero_grad()
        if one_frame:
            pred = joined_cameras([camera_head(TokenSet(tokens[f:f + 1], Role.CAMERA), p,
                                               (28, 42)) for f in range(5)])
        else:
            pred = camera_head(TokenSet(tokens, Role.CAMERA), p, (28, 42))
        outs = [getattr(pred, k) for k in fields]
        ((tsum(outs[0] * weights[0]) + tsum(outs[1] * weights[1]))
         + tsum(outs[2] * weights[2])).backward()
        runs.append([o.data for o in outs] + [t.grad for t in leaves])
    assert len(runs[0]) == 3 + 5
    for name, got, want in zip([*fields, "tokens", *p.tensors()], *runs):
        assert np.array_equal(got, want), name


class TestDepthHead:
    def test_constant_logits_constant_softplus(self):
        c = -0.3
        p = DepthHeadParams(mlp=MlpParams(w1=Tensor(np.zeros((8, 4))),
                                          b1=Tensor(np.zeros(4)),
                                          w2=Tensor(np.zeros((4, 1))),
                                          b2=Tensor(np.array([c]))),
                            patch_size=14)
        rng = np.random.default_rng(0)
        toks = TokenSet(Tensor(rng.standard_normal((4, 8))), Role.GEOM)
        d = depth_head_tensor(toks, (28, 28), p)
        np.testing.assert_allclose(d.data, np.log1p(np.exp(c)), atol=1e-12)

    def test_strictly_positive(self):
        rng = np.random.default_rng(1)
        p = DepthHeadParams.init(rng, 8)
        toks = TokenSet(Tensor(rng.standard_normal((4, 8)) * 10), Role.GEOM)
        d = depth_head_tensor(toks, (28, 28), p)
        assert d.data.min() > 0

    def test_token_grid_mismatch(self):
        rng = np.random.default_rng(2)
        p = DepthHeadParams.init(rng, 8)
        toks = TokenSet(Tensor(rng.standard_normal((5, 8))), Role.GEOM)
        with pytest.raises(ShapeError):
            depth_head_tensor(toks, (28, 28), p)

    def test_window_matches_per_frame_calls(self):
        # [F, P, C] -> [F, H, W]: each frame's depth and token gradient have
        # the bits of its own [P, C] call
        rng = np.random.default_rng(4)
        p = DepthHeadParams.init(rng, 8)
        tokens, w = rng.standard_normal((3, 4, 8)), rng.standard_normal((3, 28, 28))

        def run(x, wt):
            t = Tensor(x, requires_grad=True)
            d = depth_head_tensor(TokenSet(t, Role.GEOM), (28, 28), p)
            tsum(d * Tensor(wt)).backward()
            return d.data, t.grad
        depth, grad = run(tokens, w)
        assert depth.shape == (3, 28, 28)
        for f in range(3):
            want_depth, want_grad = run(tokens[f], w[f])
            assert np.array_equal(depth[f], want_depth)
            assert np.array_equal(grad[f], want_grad)

    @pytest.mark.parametrize("shape,size", [((4, 8), (28, 28)), ((3, 16, 8), (56, 56)),
                                            ((2, 12, 8), (42, 56))])
    def test_upsample_node_matches_full_matrix_matmul(self, shape, size):
        # the node on unique upsample rows gives the bits of `up @ logits`
        # with the full [HW, P] matrix, forward and backward
        rng = np.random.default_rng(5)
        p = DepthHeadParams.init(rng, 8)
        tokens, w = rng.standard_normal(shape), rng.standard_normal((*shape[:-2], *size))

        def full_matrix_head(tokens):
            h, wd = size
            up = Tensor(upsample_matrix(h // 14, wd // 14, h, wd))
            logits = mlp(rms_norm(tokens.tokens), p.mlp)
            return maximum(softplus(matmul(up, logits)), 1e-6).reshape(*shape[:-2], h, wd)

        runs = []
        for head in (lambda t: depth_head_tensor(t, size, p), full_matrix_head):
            t = Tensor(tokens, requires_grad=True)
            for param in p.tensors().values():
                param.zero_grad()
            d = head(TokenSet(t, Role.GEOM))
            tsum(d * Tensor(w)).backward()
            runs.append([d.data, t.grad] + [q.grad for q in p.tensors().values()])
        for got, want in zip(*runs):
            assert np.array_equal(got, want)

    def test_gradient(self):
        rng = np.random.default_rng(3)
        p = DepthHeadParams.init(rng, 8)
        x = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
        w = Tensor(rng.standard_normal((28, 28)))

        def f(t):
            return tsum(depth_head_tensor(TokenSet(t, Role.GEOM), (28, 28), p) * w)

        assert grad_check(f, x) < 1e-4


def bilinear_oracle(grid, h, w):
    """Scalar reference: half-pixel mapping with border clamping."""
    gh, gw = grid.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            gy = min(max((i + 0.5) / (h / gh) - 0.5, 0.0), gh - 1.0)
            gx = min(max((j + 0.5) / (w / gw) - 0.5, 0.0), gw - 1.0)
            y0, x0 = int(np.floor(gy)), int(np.floor(gx))
            y1, x1 = min(y0 + 1, gh - 1), min(x0 + 1, gw - 1)
            fy, fx = gy - y0, gx - x0
            out[i, j] = (grid[y0, x0] * (1 - fy) * (1 - fx)
                         + grid[y0, x1] * (1 - fy) * fx
                         + grid[y1, x0] * fy * (1 - fx)
                         + grid[y1, x1] * fy * fx)
    return out


def test_upsample_matches_scalar_oracle_2x2_to_4x4():
    grid = np.array([[1.0, 2.0], [3.0, 5.0]])
    up = upsample_matrix(2, 2, 4, 4)
    got = (up @ grid.reshape(-1)).reshape(4, 4)
    np.testing.assert_allclose(got, bilinear_oracle(grid, 4, 4), atol=1e-14)
    # frozen corner values: pure corners replicate, center blends
    assert got[0, 0] == 1.0 and got[3, 3] == 5.0


def test_upsample_matches_oracle_random_grids():
    rng = np.random.default_rng(4)
    grid = rng.standard_normal((4, 4))
    up = upsample_matrix(4, 4, 56, 56)
    got = (up @ grid.reshape(-1)).reshape(56, 56)
    np.testing.assert_allclose(got, bilinear_oracle(grid, 56, 56), atol=1e-12)


@pytest.mark.parametrize("grid", [
    (4, 4, 56, 56), (2, 2, 4, 4), (8, 8, 112, 112),   # square
    (2, 3, 28, 42), (3, 5, 9, 25), (6, 4, 84, 56),     # non-square
    (4, 4, 64, 64), (2, 2, 3, 5), (5, 3, 7, 11),       # clamped at the border, uneven patches
    (1, 1, 14, 14), (1, 1, 1, 1), (1, 4, 2, 56),        # a single cell on one or both axes
])
def test_upsample_matrix_is_the_scatter_oracle_bit_for_bit(grid):
    got, want = upsample_matrix.__wrapped__(*grid), upsample_matrix_oracle(*grid)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
