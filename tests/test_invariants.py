"""Module-level invariants that do not fit a single op's test class."""

import ast
import importlib.util
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from geovid.config import RunConfig, worker_count
from geovid.model import init_model, predict_window
from geovid.numkit import (
    MhaParams, MlpParams, Tensor, grad_check, mha, mlp, tsum,
)


def test_autodiff_soundness_100_points_mlp_mha():
    # spec invariant: < 1e-4 at 100 random points per differentiable op
    rng = np.random.default_rng(77)
    p_mlp = MlpParams.init(rng, 4, 3)
    w1 = Tensor(rng.standard_normal((2, 3)))
    p_mha = MhaParams.init(rng, 4, 2)
    w2 = Tensor(rng.standard_normal((2, 4)))
    worst = 0.0
    for _ in range(100):
        x = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        worst = max(worst, grad_check(lambda t: tsum(mlp(t, p_mlp) * w1), x))
        x2 = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        worst = max(worst, grad_check(lambda t: tsum(mha(t, t, t, p_mha) * w2), x2))
    assert worst < 1e-4


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("GEOVID_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("GEOVID_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("GEOVID_THREADS", "0")
    assert worker_count() == 1
    monkeypatch.setenv("GEOVID_THREADS", "junk")
    assert worker_count(default=2) == 2


def test_stage2_never_mutates_teachers():
    from geovid.train import generate_scenes, train_stage2

    cfg = RunConfig(seed=21, dim=16, heads=2, blocks=2, bridge_tokens=4,
                    resolution=(28, 28), n_bins=8, n_scenes=2,
                    frames_per_scene=3, stage1_steps=2, stage2_steps=4,
                    stage2_frames=2, warmup_steps=2, n_objects=3)
    scenes = generate_scenes(cfg)
    before = [(f.teacher_geom.tokens.data.copy(), f.teacher_lang.tokens.data.copy(),
               f.base.tokens.data.copy())
              for s in scenes for f in s.frames]
    train_stage2(cfg, init_model(cfg), scenes)
    after = [(f.teacher_geom.tokens.data, f.teacher_lang.tokens.data,
              f.base.tokens.data)
             for s in scenes for f in s.frames]
    for (g0, l0, b0), (g1, l1, b1) in zip(before, after):
        assert np.array_equal(g0, g1)
        assert np.array_equal(l0, l1)
        assert np.array_equal(b0, b1)


def test_no_unused_imports():
    # __init__.py files re-export names, so only the other modules are checked
    src = Path(__file__).resolve().parent.parent / "src" / "geovid"
    unused = []
    for path in sorted(src.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    imported[a.asname or a.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for a in node.names:
                    imported[a.asname or a.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.relative_to(src)}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused, unused


def _perfbench_module(name: str):
    """Import perfbench/<name>.py; the benchmark directory is not a package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve():
    # the benchmark wraps and breaks geovid functions by module attribute, so
    # a rename must fail here rather than only when the benchmark runs
    from geovid.synthscene import TokenizerConfig, gen_scene

    tracer_mod = _perfbench_module("tracer")
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracer_mod.SPANS]
    cfg = RunConfig(seed=5, dim=16, heads=2, blocks=2, bridge_tokens=4,
                    resolution=(28, 28), n_bins=8, n_objects=3)
    scene = gen_scene(42, n_frames=2, resolution=(28, 28), n_objects=3,
                      tokenizer=TokenizerConfig(dim=16, seed=5))
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        predict_window(scene.frames, init_model(cfg), cfg)
    finally:
        tracer.remove()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    for layer in ("metric_depth", "metric_depth.probs", "metric_depth.centers",
                  "metric_depth.expectation"):
        assert tracer.calls[layer] > 0, layer
    # the window's frames share each block call: one attention and one MLP
    # call per block, blocks/2 blocks of each kind
    assert tracer.calls["recon.backbone.local"] == 2 * (cfg.blocks // 2)
    assert tracer.calls["recon.backbone.global"] == 2 * (cfg.blocks // 2)

    from geovid.train import train_stage1
    tracer = tracer_mod.Tracer()
    with tracer.active():
        train_stage1(replace(cfg, stage1_steps=1, stage1_batch=3), [scene])
    assert tracer.calls["cta"] == 1 and tracer.calls["losses.distill"] == 1

    for name, workload in _perfbench_module("workloads").WORKLOADS.items():
        owner, attr = workload.inject
        assert callable(getattr(owner, attr, None)), (name, attr)
