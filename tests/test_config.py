"""Every RunConfig value is checked against its field's domain in one place.

The domains are restated here from the config's documentation, not read
from `DOMAINS`: a config inside them runs the whole CLI chain, a value
just outside them is a ParameterError naming its key.
"""

import dataclasses
import json
import math
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geovid.cli import main
from geovid.config import DOMAINS, MD_MODES, STRATEGIES, RunConfig
from geovid.errors import ParameterError

FIELDS = [f.name for f in dataclasses.fields(RunConfig)]
NONNEGATIVE = {"seed", "bridge_tokens", "lr", "warmup_steps", "adapter_lr_scale", "token_noise"}
AT_LEAST_2 = {"blocks", "n_bins"}
CHOICES = {"strategy": STRATEGIES, "md_mode": MD_MODES}
FLOATS = {f.name for f in dataclasses.fields(RunConfig) if isinstance(f.default, float)}


def test_domains_cover_exactly_the_fields():
    assert set(DOMAINS) == set(FIELDS)


def test_direct_construction_checks_kinds():
    with pytest.raises(ParameterError, match="'dim'"):
        RunConfig(dim="64")
    with pytest.raises(ParameterError, match="'seed'"):
        dataclasses.replace(RunConfig(), seed=1.5)
    with pytest.raises(ParameterError, match="'resolution'"):
        RunConfig(resolution=(28.0, 28))


@pytest.mark.parametrize("key, value, said", [
    ("blocks", 3, "blocks must be even"),
    ("blocks", 1, "blocks must be at least 2"),
    ("n_bins", 1, "n_bins must be at least 2"),
    ("d_min", 0.0, "d_min must be positive"),
    ("d_min", 20.0, "d_min 20.0 must be below d_max 10.0"),
    ("resolution", (50, 56), "resolution [50, 56] is not a multiple of patch_size 14"),
    ("lr", -1.0, "lr must be nonnegative"),
    ("warmup_steps", -5, "warmup_steps must be nonnegative"),
    ("token_noise", -1.0, "token_noise must be nonnegative"),
    ("adapter_lr_scale", -2.0, "adapter_lr_scale must be nonnegative"),
    ("md_mode", "sometimes", "unknown md mode 'sometimes': config key 'md_mode'"),
])
def test_config_refuses_a_value_outside_its_domain(key, value, said):
    with pytest.raises(ParameterError) as info:
        RunConfig(**{key: value})
    assert said in str(info.value)


def _in_domain():
    """A tiny config inside every domain and cross-field rule."""
    def build(d):
        ps = d["patch_size"]
        return {**d, "dim": d["heads"] * d["dim"], "resolution": [ps * k for k in d["resolution"]],
                "d_max": d["d_min"] * d["d_max"]}
    moderate = dict(allow_nan=False, allow_infinity=False)
    return st.fixed_dictionaries({
        "seed": st.integers(0, 2**32 - 1),
        "heads": st.integers(1, 4),
        "dim": st.integers(1, 4),   # times heads
        "blocks": st.sampled_from([2, 4]),
        "bridge_tokens": st.integers(0, 4),
        "patch_size": st.sampled_from([7, 14]),
        "resolution": st.tuples(st.integers(1, 2), st.integers(1, 2)),   # times patch_size
        "n_bins": st.integers(2, 12),
        "d_min": st.floats(0.01, 2.0, **moderate),
        "d_max": st.floats(1.01, 100.0, **moderate),   # times d_min
        "lr": st.floats(0.0, 0.05, **moderate),
        "warmup_steps": st.integers(0, 3),
        "adapter_lr_scale": st.floats(0.0, 2.0, **moderate),
        "stage1_steps": st.integers(1, 2),
        "stage1_batch": st.integers(1, 3),
        "stage2_steps": st.integers(1, 2),
        "stage2_frames": st.integers(1, 4),
        "n_scenes": st.integers(1, 2),
        "frames_per_scene": st.integers(1, 4),
        "n_objects": st.integers(1, 4),
        "token_noise": st.floats(0.0, 0.5, **moderate),
        "strategy": st.sampled_from(STRATEGIES),
        "md_mode": st.sampled_from(MD_MODES),
        "tau_f": st.floats(0.001, 1.0, **moderate),
    }).map(build)


def _out_of_domain(key: str, cfg: dict):
    """Values of `key` just outside its domain, or breaking a cross-field
    rule with the other values of `cfg`, or of another kind."""
    if key in CHOICES:
        return st.text(max_size=12).filter(lambda s: s not in CHOICES[key]) | st.just(3)
    if key == "resolution":
        ps, (h, w) = cfg["patch_size"], cfg["resolution"]
        return st.sampled_from([[0, w], [h, -ps], [h + 1, w], [h], [float(h), w], h])
    low = 0 if key in NONNEGATIVE else 2 if key in AT_LEAST_2 else 1
    if key in FLOATS:
        below = st.floats(-10.0, -math.ulp(0.0) if key in NONNEGATIVE else 0.0)
        bad = below | st.sampled_from([math.nan, math.inf, -math.inf, "0.1", True])
    else:
        bad = st.integers(low - 3, low - 1) | st.sampled_from([1.5, "3", True, None])
    rule = {"heads": [cfg["dim"] + 1], "blocks": [3, 5], "d_min": [cfg["d_max"]],
            "d_max": [cfg["d_min"], cfg["d_min"] / 2], "patch_size": [cfg["resolution"][0] + 1]}
    return bad | st.sampled_from(rule[key]) if key in rule else bad


def _chain(root: Path):
    """gen-scenes, train 1, train 2 --init, infer and eval, in process;
    each (command, exit code, exception) until one exits non-zero."""
    cfg, scenes, scene = root / "cfg.json", root / "scenes", root / "scenes" / "scene_0000"
    steps = [["gen-scenes", "--config", cfg, "--out", scenes],
             ["train", "--stage", "1", "--config", cfg, "--scenes", scenes, "--out", root / "s1"],
             ["train", "--stage", "2", "--config", cfg, "--scenes", scenes, "--out", root / "s2",
              "--init", root / "s1" / "ckpt"],
             ["infer", "--ckpt", root / "s2" / "ckpt", "--scene", scene, "--out", root / "pred"],
             ["eval", "--pred", root / "pred", "--gt", scene, "--out", root / "report.json"]]
    runner = CliRunner()
    for args in steps:
        result = runner.invoke(main, [str(a) for a in args])
        yield args[0], result
        if result.exit_code != 0:
            return


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_config_inside_its_domains_runs_and_outside_is_refused(data):
    cfg = data.draw(_in_domain(), label="config")
    key = data.draw(st.none() | st.sampled_from(FIELDS), label="key outside its domain")
    if key is not None:
        cfg[key] = data.draw(_out_of_domain(key, cfg), label="value")
        with pytest.raises(ParameterError, match=key):
            RunConfig.from_json(cfg)
        return
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "cfg.json").write_text(json.dumps(cfg))
        for command, result in _chain(root):
            # 2 a degenerate input, 3 a numeric failure: documented ends of a legal run
            assert result.exit_code in (0, 2, 3), (command, result.output)
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                command, repr(result.exception))
