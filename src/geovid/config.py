"""Run configuration: one JSON document drives every CLI command.

A field is a value some caller sets to more than one value. A fixed value
of the paper's recipe lives in the code that uses it; `RETIRED` lists the
keys older files may still hold for such values, each with its one value.

Also the one reader and writer of the package's JSON files: written with
sorted keys, two-space indents and a final newline, so equal objects give
equal bytes; read so that every way a file can be unreadable is a
ParameterError naming it.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import ParameterError

# retired config keys, each with the one value any file ever gave it
RETIRED = {"ordinal_bins": True, "max_shift": 0.3, "lambda_sc": 0.5, "alpha_md": 1.0,
           "eps_md": 1e-6, "beta1": 0.9, "beta2": 0.999, "weight_decay": 0.05, "clip": 1.0,
           "encoder_lr_scale": 0.1, "pose_lr_scale": 3.0, "augment_jitter": 0.05,
           "scale_samples": 16}
STRATEGIES = ("two_stage_dual", "two_stage_single_teacher", "single_stage", "no_sc_loss")
MD_MODES = ("off", "no_alignment", "full")


@dataclass
class RunConfig:
    seed: int = 7

    # model dims
    dim: int = 64
    heads: int = 4
    blocks: int = 4
    bridge_tokens: int = 16
    patch_size: int = 14
    resolution: tuple[int, int] = (56, 56)

    # metric depth bins
    n_bins: int = 64
    d_min: float = 0.1
    d_max: float = 10.0

    # optimizer
    lr: float = 3e-3
    warmup_steps: int = 50
    adapter_lr_scale: float = 0.3   # stage-2 fine-tuning rate for the adapter

    # schedules
    stage1_steps: int = 500
    stage1_batch: int = 8
    stage2_steps: int = 1000
    stage2_frames: int = 4          # frames per backbone window

    # data
    n_scenes: int = 64
    frames_per_scene: int = 32
    n_objects: int = 8
    token_noise: float = 0.01

    # pipeline
    strategy: str = "two_stage_dual"
    md_mode: str = "full"
    tau_f: float = 0.05

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ParameterError(f"unknown strategy '{self.strategy}'")
        if self.md_mode not in MD_MODES:
            raise ParameterError(f"unknown md mode '{self.md_mode}'")
        if isinstance(self.resolution, list):
            self.resolution = tuple(self.resolution)
        if min(self.resolution) <= 0:   # gen-scenes builds its images at this size
            raise ParameterError(f"resolution must be positive, got {list(self.resolution)}")
        for name in ("dim", "heads", "blocks", "patch_size", "n_bins",
                     "stage1_steps", "stage1_batch", "stage2_steps",
                     "stage2_frames", "n_scenes", "frames_per_scene", "n_objects"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")
        for name in ("seed", "bridge_tokens"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be nonnegative")
        if self.dim % self.heads != 0:
            raise ParameterError(f"dim {self.dim} is not a multiple of heads {self.heads}")
        check_tau(self.tau_f, "tau_f")
        for f in fields(self):
            if isinstance(f.default, float):
                try:
                    value = float(getattr(self, f.name))
                except OverflowError:   # a JSON integer past the float range
                    raise ParameterError(f"config key '{f.name}' must be finite, got an "
                                         "integer too large for a float") from None
                if not -float("inf") < value < float("inf"):
                    raise ParameterError(f"config key '{f.name}' must be finite, got {value}")
                setattr(self, f.name, value)

    def to_json(self) -> dict:
        d = asdict(self)
        d["resolution"] = list(self.resolution)
        return d

    @staticmethod
    def from_json(obj: dict) -> "RunConfig":
        """Build a config from parsed JSON; an unknown key, a value of the
        wrong type or a retired key at another value than its one is a
        ParameterError naming the key."""
        if not isinstance(obj, dict):
            raise ParameterError("a config must be a JSON object")
        defaults = {f.name: f.default for f in fields(RunConfig)}
        for key, value in obj.items():
            if key in RETIRED:
                if not (_same_kind(value, RETIRED[key]) and value == RETIRED[key]):
                    raise ParameterError(f"retired config key '{key}' must be "
                                         f"{RETIRED[key]!r} or absent, got {value!r}")
            elif key not in defaults:
                raise ParameterError(f"unknown config key '{key}'")
            elif not _same_kind(value, defaults[key]):
                raise ParameterError(f"config key '{key}' has a bad value: {value!r}")
        return RunConfig(**{k: v for k, v in obj.items() if k not in RETIRED})

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json())

    @staticmethod
    def load(path: str | Path) -> "RunConfig":
        return RunConfig.from_json(read_json(path))


def check_tau(tau: float, name: str = "tau") -> None:
    """A distance threshold must be positive and finite."""
    if not 0 < tau < float("inf"):   # NaN fails too
        raise ParameterError(f"{name} must be positive and finite, got {tau}")


_KINDS = {bool: bool, int: numbers.Integral, float: numbers.Real, str: str}


def _same_kind(value, default) -> bool:
    """Whether a JSON value fits a field whose default is `default`."""
    if isinstance(default, tuple):   # resolution: two integers
        return (isinstance(value, (list, tuple)) and len(value) == 2
                and all(_same_kind(v, 0) for v in value))
    return (isinstance(value, _KINDS[type(default)])
            and isinstance(value, bool) == isinstance(default, bool))


def read_json(path: str | Path, *keys: str) -> dict:
    """The JSON object in `path`, which must hold each of `keys`."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:   # bad JSON or bad UTF-8
        raise ParameterError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParameterError(f"{path} does not hold a JSON object")
    for key in keys:
        if key not in obj:
            raise ParameterError(f"{path} has no key '{key}'")
    return obj


def write_json(path: str | Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
