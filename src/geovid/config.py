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
MIN_OVERLAP_PIXELS = 32   # pixels a frame needs for scale alignment (md_mode full)
STRATEGIES = ("two_stage_dual", "two_stage_single_teacher", "single_stage", "no_sc_loss")
MD_MODES = ("off", "no_alignment", "full")
# each RunConfig field's domain: a bound of _BOUNDS, or the tuple of its choices
DOMAINS = {"seed": ">= 0", "dim": "> 0", "heads": "> 0", "blocks": ">= 2", "bridge_tokens": ">= 0",
           "patch_size": "> 0", "resolution": "> 0", "n_bins": ">= 2", "d_min": "> 0",
           "d_max": "> 0", "lr": ">= 0", "warmup_steps": ">= 0", "adapter_lr_scale": ">= 0",
           "stage1_steps": "> 0", "stage1_batch": "> 0", "stage2_steps": "> 0",
           "stage2_frames": "> 0", "n_scenes": "> 0", "frames_per_scene": "> 0",
           "n_objects": "> 0", "token_noise": ">= 0", "strategy": STRATEGIES,
           "md_mode": MD_MODES, "tau_f": "> 0"}
_BOUNDS = {">= 0": (lambda v: v >= 0, "nonnegative"), "> 0": (lambda v: v > 0, "positive"),
           ">= 2": (lambda v: v >= 2, "at least 2")}


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
        """The `DOMAINS` walk, then the cross-field rules; a refusal names its key."""
        for f in fields(self):
            value, domain = getattr(self, f.name), DOMAINS[f.name]
            if not _same_kind(value, f.default):
                raise ParameterError(f"config key '{f.name}' has a bad value: {value!r}")
            if isinstance(f.default, float):
                value = _finite(f.name, value)
            setattr(self, f.name, tuple(value) if isinstance(value, list) else value)
            if isinstance(domain, tuple) and value not in domain:
                raise ParameterError(f"unknown {f.name.replace('_', ' ')} '{value}': "
                                     f"config key '{f.name}' is one of {', '.join(domain)}")
            entries = value if isinstance(f.default, tuple) else [value]   # resolution: each side
            if isinstance(domain, str) and not all(map(_BOUNDS[domain][0], entries)):
                raise ParameterError(f"{f.name} must be {_BOUNDS[domain][1]}, got {value}")
        if self.dim % self.heads != 0:
            raise ParameterError(f"dim {self.dim} is not a multiple of heads {self.heads}")
        if self.blocks % 2 != 0:   # the backbone pairs a frame-local with a global block
            raise ParameterError(f"blocks must be even, got {self.blocks}")
        if not self.d_min < self.d_max:
            raise ParameterError(f"d_min {self.d_min} must be below d_max {self.d_max}")
        h, w = self.resolution
        if self.md_mode == "full" and h * w < MIN_OVERLAP_PIXELS:
            raise ParameterError(f"resolution {[h, w]} has {h * w} pixels, fewer than the "
                                 f"{MIN_OVERLAP_PIXELS} scale alignment needs in md_mode 'full'")
        if any(side % self.patch_size for side in self.resolution):
            raise ParameterError(f"resolution {list(self.resolution)} is not a multiple "
                                 f"of patch_size {self.patch_size}")

    def to_json(self) -> dict:
        d = asdict(self)
        d["resolution"] = list(self.resolution)
        return d

    @staticmethod
    def from_json(obj: dict) -> "RunConfig":
        """Build a config from parsed JSON; an unknown key or a retired key
        at another value than its one is a ParameterError naming the key,
        as `__post_init__` makes every value outside its domain."""
        if not isinstance(obj, dict):
            raise ParameterError("a config must be a JSON object")
        for key, value in obj.items():
            if key in RETIRED:
                if not (_same_kind(value, RETIRED[key]) and value == RETIRED[key]):
                    raise ParameterError(f"retired config key '{key}' must be "
                                         f"{RETIRED[key]!r} or absent, got {value!r}")
            elif key not in DOMAINS:
                raise ParameterError(f"unknown config key '{key}'")
        return RunConfig(**{k: v for k, v in obj.items() if k not in RETIRED})

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json())

    @staticmethod
    def load(path: str | Path) -> "RunConfig":
        return RunConfig.from_json(read_json(path))


def check_tau(tau: float) -> None:
    """A distance threshold must be positive and finite."""
    if not 0 < tau < float("inf"):   # NaN fails too
        raise ParameterError(f"tau must be positive and finite, got {tau}")


_KINDS = {bool: bool, int: numbers.Integral, float: numbers.Real, str: str}


def _finite(name: str, value: numbers.Real) -> float:
    """`value` as a float, which must be finite."""
    try:
        value = float(value)
    except OverflowError:   # a JSON integer past the float range
        raise ParameterError(f"config key '{name}' must be finite, got an "
                             "integer too large for a float") from None
    if not -float("inf") < value < float("inf"):
        raise ParameterError(f"config key '{name}' must be finite, got {value}")
    return value


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
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
