"""Run configuration: one JSON document drives every CLI command."""

from __future__ import annotations

import json
import numbers
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import ParameterError

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
    max_shift: float = 0.3
    ordinal_bins: bool = True

    # loss hyperparameters
    lambda_sc: float = 0.5
    alpha_md: float = 1.0
    eps_md: float = 1e-6

    # optimizer
    lr: float = 3e-3
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.05
    clip: float = 1.0
    warmup_steps: int = 50
    encoder_lr_scale: float = 0.1   # stage-2 fine-tuning rate for the encoder
    adapter_lr_scale: float = 0.3   # stage-2 fine-tuning rate for the adapter
    pose_lr_scale: float = 3.0      # stage-2 boost for the camera head

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
    augment_jitter: float = 0.05   # per-step token jitter, training only

    # pipeline
    strategy: str = "two_stage_dual"
    md_mode: str = "full"
    scale_samples: int = 16
    tau_f: float = 0.05

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ParameterError(f"unknown strategy '{self.strategy}'")
        if self.md_mode not in MD_MODES:
            raise ParameterError(f"unknown md mode '{self.md_mode}'")
        if isinstance(self.resolution, list):
            self.resolution = tuple(self.resolution)
        for name in ("dim", "heads", "blocks", "patch_size", "n_bins",
                     "stage1_steps", "stage1_batch", "stage2_steps",
                     "stage2_frames", "n_scenes", "frames_per_scene", "n_objects"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")
        if self.bridge_tokens < 0:
            raise ParameterError("bridge_tokens must be nonnegative")

    def to_json(self) -> dict:
        d = asdict(self)
        d["resolution"] = list(self.resolution)
        return d

    @staticmethod
    def from_json(obj: dict) -> "RunConfig":
        """Build a config from parsed JSON; an unknown key or a value of the
        wrong type is a ParameterError naming the key."""
        if not isinstance(obj, dict):
            raise ParameterError("a config must be a JSON object")
        defaults = {f.name: f.default for f in fields(RunConfig)}
        for key, value in obj.items():
            if key not in defaults:
                raise ParameterError(f"unknown config key '{key}'")
            if not _same_kind(value, defaults[key]):
                raise ParameterError(f"config key '{key}' has a bad value: {value!r}")
        return RunConfig(**obj)

    def save(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path: str | Path) -> "RunConfig":
        with open(path) as fh:
            try:
                obj = json.load(fh)
            except ValueError as exc:   # bad JSON or bad UTF-8
                raise ParameterError(f"config {path} is not valid JSON: {exc}") from None
        return RunConfig.from_json(obj)


_KINDS = {bool: bool, int: numbers.Integral, float: numbers.Real, str: str}


def _same_kind(value, default) -> bool:
    """Whether a JSON value fits a field whose default is `default`."""
    if isinstance(default, tuple):   # resolution: two integers
        return (isinstance(value, (list, tuple)) and len(value) == 2
                and all(_same_kind(v, 0) for v in value))
    return (isinstance(value, _KINDS[type(default)])
            and isinstance(value, bool) == isinstance(default, bool))


def worker_count(default: int = 1) -> int:
    """Thread cap from GEOVID_THREADS; falls back to `default`."""
    raw = os.environ.get("GEOVID_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        return default
    return max(1, n)
