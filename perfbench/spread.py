"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload born --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one run at a time, from the
checkout root, and prints for each end-to-end metric its median and its
quartile spread (third minus first quartile, as
``statistics.quantiles(values, n=4)`` gives them) as a share of the median,
next to the metric's bound in BENCHMARK.json. ``--json PATH`` also writes
every run's result there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        shown = ", ".join(f"{k} {v['value']:.4g}"
                          for k, v in result["metrics"].items())
        print(f"seed {seed}: correct {result['correct']}, "
              f"{result['attempted']} ops, {result['failed']} failed; "
              f"{shown}", flush=True)

    worst = 0.0
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med
        worst = max(worst, spread / metric["bound"])
        print(f"{args.workload} {name}: median {med:.6g}, spread "
              f"{spread:.4f} of median (bound {metric['bound']}, "
              f"{spread / metric['bound']:.2f} of it)")
    print(f"{args.workload}: largest spread/bound {worst:.2f}")
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
