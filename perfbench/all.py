"""Run every workload, each in its own process, and print what it reports.

    python3 perfbench/all.py --seed 1 --seconds 10 [--trace 1]

Exits non-zero if any run fails or reports `correct: false`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True)
        print(f"== {workload}")
        if proc.returncode != 0:
            print(proc.stderr[-2000:])
            ok = False
            continue
        *lines, last = proc.stdout.strip().splitlines()
        print("\n".join(lines))
        res = json.loads(last)
        print(f"correct {res['correct']}, {res['failed']} of {res['attempted']} ops failed")
        if not args.trace:
            for name, m in res["metrics"].items():
                print(f"{name:<16}{m['value']:>16.6g} {m['unit']}")
        ok = ok and res["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
