"""Train the two fixed checkpoints the benchmark starts from.

    python3 perfbench/make_fixtures.py [--canary-only]

writes perfbench/fixtures/distilled.npz (stage-1 encoder + adapter tensors)
and perfbench/fixtures/trained.npz (every tensor after a short stage 2).
Tensors are stored as float32 to keep the files small; the benchmark widens
them back to float64. The files are checked in, so every commit benchmarks
from the same weights whatever its training code does. Rerun this only when
the model's parameter layout changes.

It then writes perfbench/fixtures/canary.json: each workload's canary
figures (loss_final, absrel, fscore) at full and tiny size, which every run
must reproduce. `--canary-only` rewrites just that file, for a change that
alters the math on purpose.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GEOVID_THREADS"):
    os.environ[_var] = "1"   # as run.py pins them

import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from geovid.config import RunConfig  # noqa: E402
from geovid.train import generate_scenes, train_stage1, train_stage2  # noqa: E402
from workloads import (CANARY, FIXTURE_SEED, FIXTURES, FULL, TINY,  # noqa: E402
                       WORKLOADS, canary_quality)

FIXTURE_CONFIG = RunConfig(seed=FIXTURE_SEED, n_scenes=16, stage1_steps=300,
                           stage2_steps=300)


def save_npz(path: Path, tensors: dict, cfg: RunConfig) -> None:
    arrays = {name: t.data.astype(np.float32) for name, t in tensors.items()}
    np.savez_compressed(path, __config__=np.array(json.dumps(cfg.to_json())), **arrays)


def train_checkpoints() -> None:
    FIXTURES.mkdir(exist_ok=True)
    cfg = FIXTURE_CONFIG
    t0 = time.monotonic()
    scenes = generate_scenes(cfg)
    params, _ = train_stage1(cfg, scenes)
    save_npz(FIXTURES / "distilled.npz", params.stage1_tensors(), cfg)
    params, log = train_stage2(cfg, params, scenes)
    save_npz(FIXTURES / "trained.npz", params.named_tensors(), cfg)
    print(f"checkpoints written in {time.monotonic() - t0:.0f} s; "
          f"final joint loss {log[-1].report.joint_total:.4f}")


def write_canary() -> None:
    work = HERE.parent / ".bench_work" / f"canary-{os.getpid()}"
    try:
        figures = {sizes.name: {name: canary_quality(name, sizes, work / name)
                                for name in WORKLOADS}
                   for sizes in (FULL, TINY)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    CANARY.write_text(json.dumps(figures, indent=2, sort_keys=True) + "\n")
    print(f"{CANARY.name} written")


def main() -> None:
    if "--canary-only" not in sys.argv[1:]:
        train_checkpoints()
    write_canary()


if __name__ == "__main__":
    main()
