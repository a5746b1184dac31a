"""geovid benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload distill --seed 1 --seconds 10 --trace 0

Run from the repository root. With --trace 0 the result holds the end-to-end
metrics; with --trace 1 it runs the workload untraced and then traced on the
same inputs, prints a per-layer table and reports per-layer metrics. See
perfbench/README.md for the workloads and how to read the table.
"""

from __future__ import annotations

import os

# Threads are pinned before numpy loads. BLAS runs single-threaded, since
# the matrices are a few dozen rows. Scene generation runs on one worker:
# with a worker per core its times spread by up to 0.34 across runs on a
# shared box, and the calibration kernel can only track the core it runs on.
NPROC = len(os.sched_getaffinity(0))
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GEOVID_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "geovid").is_dir():
    sys.exit(f"geovid sources not found under {ROOT / 'src'}")
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from geovid.errors import NumericError  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

MIN_BATCHES = 2


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="8-frame scenes and 2-step batches (smoke test)")
    ap.add_argument("--inject-failure", action="store_true",
                    help="make one op of the first measured batch raise")
    return ap.parse_args(argv)


@dataclass
class Tally:
    """Ops attempted and failed, per-op times and the first record per key."""

    attempted: int = 0
    failed: int = 0
    batches: int = 0
    scaled_ms: list = field(default_factory=list)   # rescaled to CAL_REF_MS speed
    wall_ms: list = field(default_factory=list)
    records: dict = field(default_factory=dict)
    mismatches: int = 0


def run_batch(w, index: int, tally: Tally, tracer=None) -> None:
    gc.collect()
    try:
        with tracer.active() if tracer else contextlib.nullcontext():
            times, out = w.batch(index)
        failed, record = w.check(out)
    except workloads.EXPECTED_ERRORS as exc:
        print(f"[bench] batch {index} failed: {exc!r}", file=sys.stderr)
        times, failed, record = [], w.ops_per_batch(), None
    tally.batches += 1
    tally.attempted += w.ops_per_batch()
    tally.failed += failed
    tally.wall_ms += [wall for wall, _ in times]
    tally.scaled_ms += [scaled for _, scaled in times]
    if record is not None:
        first = tally.records.setdefault(w.record_key(index), record)
        tally.mismatches += first != record


def measure(w, tally: Tally, seconds: float | None = None,
            batches: int | None = None, tracer=None) -> None:
    """Run `batches` batches, or batches until `seconds` pass (at least two)."""
    deadline = time.perf_counter() + (seconds or 0.0)
    index = 0
    while (index < batches if batches is not None
           else index < MIN_BATCHES or time.perf_counter() < deadline):
        run_batch(w, index, tally, tracer)
        index += 1


def arm_failure(owner, attr: str) -> None:
    """The next call of owner.attr raises a NumericError, later calls pass."""
    original = getattr(owner, attr)
    armed = [True]

    def failing(*args, **kwargs):
        if armed[0]:
            armed[0] = False
            raise NumericError(f"injected failure in {attr}")
        return original(*args, **kwargs)

    setattr(owner, attr, failing)


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": THREADS, "geovid_threads": THREADS}


def median(values: list) -> float:
    return statistics.median(values) if values else math.nan


def end_to_end(w, name: str, tally: Tally, setup_s: list[float],
               work: Path) -> tuple[dict, bool]:
    """The end-to-end metrics, and whether the canary matched its stored figures."""
    # Read before the canary runs, so the peak is the workload's own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        quality = workloads.canary_quality(name, w.sizes, work / "canary")
    except workloads.EXPECTED_ERRORS as exc:
        print(f"[bench] canary failed: {exc!r}", file=sys.stderr)
        quality = {"loss_final": math.nan, "absrel": math.nan, "fscore": math.nan}
    drift = workloads.canary_drift(name, w.sizes, quality)
    if drift:
        print(f"[bench] canary figures differ from {workloads.CANARY.name}: {drift}",
              file=sys.stderr)
    metrics = {
        "ms_per_op": median(tally.scaled_ms),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        **quality,
    }
    return metrics, not drift


def per_layer(tracer, plain: Tally, traced: Tally) -> dict:
    ops = traced.attempted
    busy_ms = sum(traced.wall_ms)
    values = {}
    for layer in LAYERS:
        self_ms = tracer.self_s[layer] * 1000.0
        values[f"{layer}.ms"] = self_ms / ops
        values[f"{layer}.calls"] = tracer.calls[layer] / ops
        values[f"{layer}.share"] = self_ms / busy_ms if busy_ms else 0.0
        values[f"{layer}.errors"] = tracer.errors[layer]
    backwards = tracer.calls["numkit.backward"]
    values["numkit.graph_nodes"] = (tracer.counts["numkit.graph_nodes"] / backwards
                                    if backwards else 0.0)
    for name in ("numkit.vlt.bytes_read", "numkit.vlt.bytes_written"):
        values[name] = tracer.counts[name] / ops
    values["trace_overhead"] = median(traced.scaled_ms) / median(plain.scaled_ms)
    return values


def print_table(values: dict, op: str) -> None:
    rows = sorted(LAYERS, key=lambda layer: -values[f"{layer}.ms"])
    print(f"{'layer':<28}{'self ms/' + op:>16}{'calls/' + op:>12}{'share':>8}{'errors':>8}")
    for layer in rows:
        if values[f"{layer}.calls"] == 0:
            continue
        print(f"{layer:<28}{values[layer + '.ms']:>16.3f}{values[layer + '.calls']:>12.2f}"
              f"{values[layer + '.share']:>8.3f}{values[layer + '.errors']:>8d}")
    for name in ("numkit.graph_nodes", "numkit.vlt.bytes_read",
                 "numkit.vlt.bytes_written", "trace_overhead"):
        print(f"{name:<28}{values[name]:>16.6g}")


def main(argv=None) -> int:
    args = parse_args(argv)
    print("# env " + json.dumps(environment(), sort_keys=True), flush=True)

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        sizes = workloads.TINY if args.tiny else workloads.FULL
        w = workloads.WORKLOADS[args.workload](args.seed, sizes, work)
        setup = []                              # (wall ms, rescaled ms) per set-up
        for _ in range(1 if args.trace else sizes.setups):
            gc.collect()
            setup.append(workloads.timed(w.setup))
        setup_s = [scaled / 1000.0 for _, scaled in setup]
        if args.inject_failure:
            arm_failure(*w.inject)

        tallies = [Tally()]
        canary_ok = True
        if not args.trace:
            measure(w, tallies[0], seconds=args.seconds)
            metrics, canary_ok = end_to_end(w, args.workload, tallies[0], setup_s, work)
            wall = {"wall_ms_per_op": median(tallies[0].wall_ms),
                    "wall_setup_s": median([wall / 1000.0 for wall, _ in setup])}
            print("# unscaled " + json.dumps(wall, sort_keys=True))
        else:
            measure(w, tallies[0], seconds=args.seconds / 2)
            tallies.append(Tally(records=tallies[0].records))  # traced must match these
            tracer = Tracer()
            measure(w, tallies[1], batches=tallies[0].batches, tracer=tracer)
            metrics = per_layer(tracer, *tallies)
            print_table(metrics, w.op)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        failed = sum(t.failed for t in tallies)
        correct = (failed == 0 and canary_ok and not any(t.mismatches for t in tallies)
                   and bool(tallies[0].records)
                   and all(math.isfinite(v) for v in metrics.values()))
        result = {
            "correct": correct,
            "attempted": sum(t.attempted for t in tallies),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
