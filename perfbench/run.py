"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload born --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout: it imports ``lecollapse`` from the
checkout's ``src/`` and writes only under ``.bench_build/perfbench/`` (one
scratch directory per op, removed after the op). Without ``src/`` it exits
with code 2 and prints no result.

``--trace 0`` sets up (the import of ``lecollapse``, timed in this process
and again in child processes started one at a time, plus warm-up ops), then
repeats the workload's op for ``--seconds``, and for at least as many ops as
the reported percentile needs, and reports the end-to-end metrics. Each
op's time is scaled to a box running at reference speed by the time of the
probe in ``reference.py`` that runs just before it.
``--trace 1`` runs a fixed number of op pairs, each op once untraced and
once traced, checks that the two produce identical results, and reports
the per-layer metrics taken from the traced spans. The last line of
standard output is the JSON result; progress and failures go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("born", "fronts", "diffusion", "branches")

IMPORTS = 4  # imports of lecollapse timed; setup_s uses their median
WARMUPS = 3  # warm-up ops; setup_s adds their median
WARMUP_INDEX = 10**6  # warm-up ops draw inputs the timed ops never use
TRACE_OPS = 5  # op pairs in a traced run: fixed, so counts repeat exactly
PERCENTILES = (50,)  # op_s.p50; the timed phase runs until it is reportable
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_TIMER = ("import time; t = time.perf_counter(); import lecollapse; "
                "print(time.perf_counter() - t)")


def reportable_percentiles(n: int) -> list[float]:
    """Percentiles with at least ten of ``n`` samples beyond them."""
    return [p for p in PERCENTILES if n * (100 - p) / 100 >= 10 - 1e-9]


def cap_threads() -> None:
    """Run every BLAS/OpenMP pool on one thread, whatever the environment says.

    The ops' arrays are small: a second thread made no op faster, but on
    ``branches`` it spun a second core at 66% and tied the op's time to that
    core being free. One thread keeps the load at one core and the same on
    every box.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def run_op(workload, seed: int, index: int, tracer=None):
    """(seconds, Outcome) of one op in a fresh scratch directory."""
    from perfbench.workloads import Outcome

    workdir = Path(tempfile.mkdtemp(dir=WORK))
    none = contextlib.nullcontext()
    patched = tracer.installed() if tracer else none
    op_span = tracer.span("op", op=index) if tracer else none
    try:
        with patched:
            start = perf_counter()
            try:
                with op_span:
                    outcome = workload.op(seed, index, workdir)
            except Exception as exc:  # an op that raises is a failed op
                outcome = Outcome("", [f"raised {type(exc).__name__}: {exc}"])
            return perf_counter() - start, outcome
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _report(label: str, outcome) -> None:
    for problem in outcome.problems:
        print(f"FAILED {label}: {problem}", file=sys.stderr)


def pooled_problems(workload, outcomes) -> list[str]:
    """The workload's check over all ops of a run, reported like an op's."""
    if workload.pooled_check is None:
        return []
    tallies = [o.tally for o in outcomes if o.tally is not None]
    problems = workload.pooled_check(tallies) if tallies else []
    for problem in problems:
        print(f"FAILED pooled check: {problem}", file=sys.stderr)
    return problems


def import_seconds() -> float:
    """Seconds to import lecollapse in a fresh interpreter, as the CLI does."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout)


def untraced(workload, seed: int, seconds: float, import_s: float,
             imports: int = IMPORTS, warmups: int = WARMUPS) -> dict:
    from perfbench.reference import PROBE_REF_S, Probe

    import_times = [import_s] + [import_seconds() for _ in range(imports - 1)]
    probe = Probe()
    probe()  # the first call pays one-time costs

    def scaled_op(index):
        """The op's seconds at reference speed: raw time over the probe's."""
        speed = PROBE_REF_S / probe()
        elapsed, outcome = run_op(workload, seed, index)
        return elapsed * speed, elapsed, outcome

    setup, setup_ok = [], True
    for r in range(warmups):
        scaled, _, outcome = scaled_op(WARMUP_INDEX + r)
        setup.append(scaled)
        _report(f"warm-up op {r}", outcome)
        setup_ok = setup_ok and not outcome.problems

    times, raw, outcomes, failed = [], [], [], 0
    start = perf_counter()
    while (perf_counter() - start < seconds
           or len(reportable_percentiles(len(times))) < len(PERCENTILES)):
        scaled, elapsed, outcome = scaled_op(len(times))
        _report(f"op {len(times)}", outcome)
        times.append(scaled)
        raw.append(elapsed)
        outcomes.append(outcome)
        failed += bool(outcome.problems)
    pooled_ok = not pooled_problems(workload, outcomes)

    n = len(times)
    print(f"{workload.name}: {n} ops in {perf_counter() - start:.2f} s; op "
          f"time p50 {statistics.median(raw):.4f} s raw, "
          f"{statistics.median(times):.4f} s at reference speed; import "
          f"{statistics.median(import_times):.3f} s (median of {imports}); "
          f"setup {setup_ok and 'ok' or 'FAILED'}", file=sys.stderr)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # the import is not scaled: the probe does not track it (README.md)
    setup_s = statistics.median(import_times) + statistics.median(setup)
    return {
        "correct": failed == 0 and setup_ok and pooled_ok,
        "attempted": n,
        "failed": failed,
        "metrics": {
            "throughput": {"value": n / sum(times), "unit": "1/s"},
            "op_s.p50": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            "ok_frac": {"value": (n - failed) / n, "unit": "fraction"},
        },
    }


def traced(workload, seed: int) -> dict:
    from perfbench.reference import PROBE_REF_S, Probe
    from perfbench.tracing import Tracer, layer_metrics, op_totals

    tracer, probe = Tracer(), Probe()
    probes = [probe()]
    _, outcome = run_op(workload, seed, WARMUP_INDEX)  # untimed warm-up
    _report("warm-up op", outcome)
    correct = not outcome.problems
    failed, plain_s, traced_s, counters, plains = 0, 0.0, 0.0, {}, []
    for i in range(TRACE_OPS):
        # alternate which side runs first so warm caches favour neither
        order = (False, True) if i % 2 == 0 else (True, False)
        got = {}
        for with_trace in order:
            probes.append(probe())
            got[with_trace] = run_op(workload, seed, i,
                                     tracer if with_trace else None)
        (p_s, plain), (t_s, trace) = got[False], got[True]
        plain_s += p_s
        traced_s += t_s
        counters[i] = trace.counters
        plains.append(plain)
        _report(f"op {i} untraced", plain)
        _report(f"op {i} traced", trace)
        failed += bool(plain.problems)
        if trace.problems:
            failed += 1
        elif trace.fingerprint != plain.fingerprint:
            failed += 1
            print(f"FAILED op {i}: traced run differs from the untraced run "
                  f"({trace.fingerprint[:12]} vs {plain.fingerprint[:12]})",
                  file=sys.stderr)

    correct = not pooled_problems(workload, plains) and correct
    totals = op_totals(tracer.spans)
    per_op = []
    for i in range(TRACE_OPS):
        t = {"runner.files_written": 0, "runner.bytes_written": 0,
             **totals[i], **counters[i]}
        t["core_s"] = workload.core(t)
        per_op.append(t)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics, spreads = layer_metrics(
        per_op, [(m["name"], m["unit"]) for m in spec["per_layer"]])
    op_s = statistics.median(t["op_s"] for t in per_op)
    shares = {name: metrics[name]["value"] / op_s for name in spreads}
    slow = statistics.median(probes) / PROBE_REF_S
    for metric in metrics.values():  # reference-speed times, as above
        if metric["unit"] in ("s", "us", "ns"):
            metric["value"] /= slow
    spreads = {name: spread / slow for name, spread in spreads.items()}
    metrics["trace.overhead"] = {"value": traced_s / plain_s - 1.0,
                                 "unit": "ratio"}
    for name, spread in spreads.items():
        if metrics[name]["value"]:
            print(f"  {name}: median {metrics[name]['value']:.6f} s, "
                  f"quartile spread {spread:.6f} s, {shares[name]:.3f} of "
                  f"the median op", file=sys.stderr)
    print(f"{workload.name}: box at {slow:.3f}x the reference probe time, "
          f"times above scaled to reference speed; core share "
          f"{metrics['trace.core_share']['value']:.3f}, tracing overhead "
          f"{metrics['trace.overhead']['value']:+.3f}", file=sys.stderr)
    tracer.dump(WORK / f"spans-{workload.name}.csv")
    return {
        "correct": correct and failed == 0,
        "attempted": 2 * TRACE_OPS,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lecollapse" / "__init__.py").is_file():
        print(f"no lecollapse sources under {SRC}", file=sys.stderr)
        return 2
    cap_threads()
    sys.path[:0] = [str(SRC), str(ROOT)]
    start = perf_counter()
    import lecollapse
    import_s = perf_counter() - start
    if Path(lecollapse.__file__).resolve().parent != SRC / "lecollapse":
        print(f"imported lecollapse from {lecollapse.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from lecollapse.engine import SmallNumbersWarning
    from perfbench.workloads import WORKLOADS

    # the aggregated-slip regime is intended at these sizes, as in the tests
    warnings.filterwarnings("ignore", category=SmallNumbersWarning)
    WORK.mkdir(parents=True, exist_ok=True)
    # a terminated run still removes its op's scratch directory on the way out
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    if args.trace:
        result = traced(workload, args.seed)
    else:
        result = untraced(workload, args.seed, args.seconds, import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
