"""The four workloads: one fixed-size op each, its inputs and its checks.

Every op derives its inputs from (workload seed, op index) alone, runs
in-process through the public API or ``lecollapse.cli.main``, writes only
into the scratch directory it is given, and returns an ``Outcome``: a
fingerprint of everything it produced (compared between traced and
untraced runs), the checks it failed, and the runner's file counters.

The ops are the gate workloads scaled down to well under a second each,
so that a run holds tens of them; README.md gives each op next to the gate
item it stands for, with the layer shares of both.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.stats import chi2

from lecollapse import cli, engine, exact
from lecollapse.wave import Grid, KineticParams

__all__ = [
    "Outcome",
    "Workload",
    "WORKLOADS",
    "born_checks",
    "born_martingale",
]

# Statistical checks run on hundreds of ops over a set of benchmark runs,
# so each keeps its false-alarm rate near 1e-6: the per-op Born chi-square
# test, and the 9 checkpoint-mean tests of a run's pooled ops, each at
# BORN_MEAN_Z standard errors (two-sided 4e-8 for a normal mean).
BORN_CHI2_P_MIN = 1e-6
BORN_MEAN_Z = 5.5


@dataclass
class Outcome:
    """What one op produced: fingerprint, failed checks, file counters.

    ``tally`` carries what the workload's pooled check sums over a run.
    """

    fingerprint: str
    problems: list[str] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    tally: object = None


@dataclass(frozen=True)
class Workload:
    """An op, the core its time should sit in, and a check over a run.

    ``op(seed, index, workdir)`` runs one op; ``core`` picks the named
    core's seconds out of an op's per-layer totals; ``pooled_check``, if
    set, checks the tallies of all ops of a run together.
    """

    name: str
    op: Callable[[int, int, Path], Outcome]
    core: Callable[[dict], float]
    pooled_check: Callable[[list], list[str]] | None = None


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


# ------------------------------------------------------------------- cli

@dataclass
class _CliRun:
    code: int
    out: Path
    stderr: str
    manifest: dict | None

    def payload_hashes(self):
        if self.manifest is None:
            return ()
        return tuple((o["path"], o["sha256"]) for o in self.manifest["outputs"])

    def read_json(self, name: str) -> dict:
        return json.loads((self.out / name).read_text(encoding="utf-8"))


def _cli(workdir: Path, name: str, argv: list[str], config: str) -> _CliRun:
    """Run ``lecollapse <argv>`` with a config file; capture its output."""
    cfg = workdir / f"{name}.cfg"
    cfg.write_text(config, encoding="utf-8")
    out = workdir / name
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv + ["--config", str(cfg), "--out", str(out)])
    path = out / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8")) \
        if path.exists() else None
    return _CliRun(code, out, stderr.getvalue().strip(), manifest)


def _cli_problems(run: _CliRun, label: str) -> list[str]:
    if run.code != 0:
        return [f"{label}: exit {run.code} ({run.stderr[-200:]})"]
    if run.manifest is None or run.manifest["status"] != "success":
        return [f"{label}: manifest missing or not a success"]
    return []


def _file_counters(*runs: _CliRun) -> dict:
    files = size = 0
    for run in runs:
        if run.manifest is None:
            continue
        files += len(run.manifest["outputs"]) + 1
        size += sum(o["bytes"] for o in run.manifest["outputs"])
        size += (run.out / "manifest.json").stat().st_size
    return {"runner.files_written": files, "runner.bytes_written": size}


# ------------------------------------------------------------------ born

BORN_RUNS = 50
BORN_P0 = (0.2, 0.3, 0.5)
BORN_CHECKPOINTS = (125, 375, 750)


def born_setup() -> engine.CollapseSetup:
    """The criterion 7/8 box: frozen uniform background, K = 3."""
    return engine.CollapseSetup(
        kinetics=KineticParams(lam=1.0, tau=1.0),
        slips=engine.SlipParams(w=0.4, tau=1.0, lam=1.0, n_a=100.0,
                                rate_calibration=1e4, absorb_floor=1e-5),
        grid=Grid((32.0,), 0.25),
        p0=BORN_P0,
        dt=0.04,
        max_steps=20000,
        f_init=0.4,
        advance_fields=False,
    )


def born_checks(result: engine.EnsembleResult, p0) -> list[str]:
    """All absorbed, Born chi-square, simplex sum at every checkpoint."""
    p0 = np.asarray(p0)
    n = len(result.results)
    problems = []
    winners = [r.winner for r in result.results]
    if any(w is None for w in winners):
        problems.append(f"{winners.count(None)}/{n} runs not absorbed")
    else:
        counts = np.bincount(winners, minlength=p0.size)
        expected = p0 * n
        stat = float(((counts - expected) ** 2 / expected).sum())
        p_value = float(chi2.sf(stat, p0.size - 1))
        if p_value < BORN_CHI2_P_MIN:
            problems.append(f"Born chi-square p = {p_value:.2e} "
                            f"(counts {counts.tolist()})")
    snaps = result.checkpoint_p
    drift = float(np.abs(snaps.sum(axis=-1) - 1.0).max())
    if drift > 1e-9:
        problems.append(f"|sum p - 1| = {drift:.1e} at a checkpoint")
    return problems


def born_op(seed: int, index: int, workdir: Path,
            n_runs: int = BORN_RUNS) -> Outcome:
    run_seed = int(_rng(seed, index).integers(2**62))
    result = engine.run_ensemble(born_setup(), run_seed, n_runs,
                                 checkpoint_steps=BORN_CHECKPOINTS)
    fingerprint = _digest(
        [(r.winner, r.collapse_time, r.slip_count) for r in result.results],
        result.checkpoint_p.tobytes(),
    )
    snaps = result.checkpoint_p
    tally = (len(result.results), snaps.sum(axis=1), (snaps**2).sum(axis=1))
    return Outcome(fingerprint, born_checks(result, BORN_P0), tally=tally)


def born_martingale(tallies) -> list[str]:
    """Pooled checkpoint means of every run stay at p0 (criterion 7).

    Each of the 9 means (checkpoint, channel) is tested on its own sample
    standard error. The checkpoint laws are too skewed for this test on
    one op's 50 runs, but a run pools 250 (traced) to well over 1000 runs.
    A bias of ``BORN_MEAN_Z`` standard errors is caught; a standard error
    is at most sqrt(p0 (1 - p0) / n), 0.013 for p0 = 0.5 at 1500 runs, and
    far smaller at the early checkpoints, where p has spread little.
    """
    n = sum(t[0] for t in tallies)
    means = sum(t[1] for t in tallies) / n
    var = (sum(t[2] for t in tallies) - n * means**2) / (n - 1)
    se = np.sqrt(np.maximum(var, 0.0) / n)
    z = np.abs(means - BORN_P0) / np.maximum(se, 1e-12)
    if (z > BORN_MEAN_Z).any():
        c, k = np.unravel_index(int(np.argmax(z)), z.shape)
        return [f"pooled checkpoint mean of {n} runs off p0 by "
                f"{float(z[c, k]):.1f} standard errors (checkpoint "
                f"{BORN_CHECKPOINTS[c]}, channel {k}: "
                f"{float(means[c, k]):.4f} vs {BORN_P0[k]})"]
    return []


# ---------------------------------------------------------------- fronts

FRONTS_WAVE = "extent = 100\n"
FRONTS_SWEEP = (
    "seed_region_1 = 0,2\nseed_region_2 = 30,32\nextent = 32\n"
    "rate_calibration = 2e4\ndt = 0.02\n"
)
FRONTS_SEEDS = 4


def fronts_op(seed: int, index: int, workdir: Path) -> Outcome:
    first = int(_rng(seed, index).integers(10**6))
    runs = [
        _cli(workdir, "wave", ["wave"], FRONTS_WAVE),
        _cli(workdir, "sweep",
             ["sweep", "--seeds", f"{first}..{first + FRONTS_SEEDS - 1}",
              "--trajectory", "--formats", "csv,json,svg"],
             FRONTS_SWEEP),
    ]
    problems = _cli_problems(runs[0], "wave") + _cli_problems(runs[1], "sweep")
    if not problems:
        ratio = runs[0].read_json("speed.json")["ratio_to_kpp"]
        if ratio is None or not 0.9 <= ratio <= 1.05:
            problems.append(f"wave ratio_to_kpp {ratio} outside [0.9, 1.05]")
        timeouts = runs[1].read_json("born.json")["n_timeout"]
        if timeouts:
            problems.append(f"sweep: {timeouts} trajectories timed out")
    return Outcome(_digest(*(r.payload_hashes() for r in runs)), problems,
                   _file_counters(*runs))


# ------------------------------------------------------------- diffusion

DIFFUSION_2D_STEPS = 300
DIFFUSION_1D_STEPS = 8000


def _density_problems(run: _CliRun, label: str) -> list[str]:
    mass = run.read_json("summary.json")["mass"]
    problems = []
    if abs(mass - 1.0) > 1e-9:
        problems.append(f"{label}: mass {mass!r} not within 1e-9 of 1")
    with open(run.out / "density.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    phi = np.array([float(r[-1]) for r in rows])
    if not np.isfinite(phi).all() or (phi < 0).any():
        problems.append(f"{label}: density not finite and nonnegative")
    return problems


def diffusion_op(seed: int, index: int, workdir: Path,
                 steps_2d: int = DIFFUSION_2D_STEPS,
                 steps_1d: int = DIFFUSION_1D_STEPS) -> Outcome:
    rng = _rng(seed, index)
    a, b = (round(float(x), 4) for x in rng.uniform(0.15, 0.45, size=2))
    x = round(float(rng.uniform(0.2, 0.8)), 4)
    runs = [
        _cli(workdir, "fp2d", ["fp"],
             f"channels = 3\np0 = {a!r},{b!r},{1.0 - a - b!r}\n"
             f"resolution = 60\nn_steps = {steps_2d}\ncurrent_every = 10\n"),
        _cli(workdir, "fp1d", ["fp"],
             f"channels = 2\np0 = {x!r},{1.0 - x!r}\nresolution = 100\n"
             f"n_steps = {steps_1d}\n"),
    ]
    problems = []
    for run, label in zip(runs, ("fp 2d", "fp 1d")):
        problems += _cli_problems(run, label) or _density_problems(run, label)
    return Outcome(_digest(*(r.payload_hashes() for r in runs)), problems,
                   _file_counters(*runs))


# -------------------------------------------------------------- branches

# one lattice per (sites, atoms, channels) of the criterion 2/3 family, so
# every op spans branch dimensions 16..729; the geometry details come from
# the seed
BRANCH_SHAPES = tuple((s, a, c) for s in (2, 3) for a in (2, 3) for c in (1, 2))
BRANCH_T = 1.0
BRANCHES_EXACT = "t_final = 2\n"


def family_lattice(rng: np.random.Generator, sites, atoms, channels):
    """One member of the criterion 2/3 family at the canonical couplings."""
    tracks = tuple((int(s),) for s in rng.permutation(sites)[:channels])
    return exact.LatticeModel(
        sites=sites,
        atoms=atoms,
        channels=channels,
        hop_amplitude=float(rng.uniform(0.5, 1.5)),
        u_strength=0.8,
        v_strength=0.5,
        a_tracks=tracks,
        bosonic=bool(rng.integers(0, 2)) if atoms <= sites else True,
    )


def branch_record(model: exact.LatticeModel, t_final: float) -> dict:
    """Evolve to t_final; record the criterion 2/3 quantities."""
    h = exact.build_branch_hamiltonian(model)
    dt = exact.default_timestep(h)
    steps = int(np.ceil(t_final / dt))
    state = exact.BranchState.from_standard(h.basis)
    norm0 = float(np.linalg.norm(exact.reconstruct_standard(state)))
    prev = exact.le_occupation(state, 0)
    max_rise = -np.inf
    done = 0
    while done < steps:
        n = min(10, steps - done)
        state = exact.evolve(state, h, dt, n)
        done += n
        occ = exact.le_occupation(state, 0)
        max_rise = max(max_rise, occ - prev)
        prev = occ
    drift = abs(float(np.linalg.norm(exact.reconstruct_standard(state)))
                - norm0)
    return {"dim": h.basis.n_basis, "defect": h.hermitian_defect,
            "max_rise": max_rise, "drift_per_1e3": drift / (steps / 1000.0)}


def branch_problems(rec: dict) -> list[str]:
    problems = []
    if rec["max_rise"] > 0.0:
        problems.append(f"dim {rec['dim']}: unentangled occupation rose by "
                        f"{rec['max_rise']:.2e}")
    if rec["defect"] <= 1e-6:
        problems.append(f"dim {rec['dim']}: generator Hermitian "
                        f"(defect {rec['defect']:.1e})")
    if rec["drift_per_1e3"] > 1e-8:
        problems.append(f"dim {rec['dim']}: norm drift "
                        f"{rec['drift_per_1e3']:.1e} per 10^3 steps")
    return problems


def branches_op(seed: int, index: int, workdir: Path) -> Outcome:
    rng = _rng(seed, index)
    records = [branch_record(family_lattice(rng, *shape), BRANCH_T)
               for shape in BRANCH_SHAPES]
    run = _cli(workdir, "exact", ["exact"], BRANCHES_EXACT)
    problems = [p for rec in records for p in branch_problems(rec)]
    cli_problems = _cli_problems(run, "exact")
    problems += cli_problems
    if not cli_problems:
        drift = run.read_json("summary.json")["norm_drift"]
        if drift > 1e-8:
            problems.append(f"exact: norm_drift {drift:.1e} above 1e-8")
    return Outcome(_digest(records, run.payload_hashes()), problems,
                   _file_counters(run))


# ------------------------------------------------------------- registry

WORKLOADS = {
    w.name: w
    for w in (
        Workload("born", born_op, lambda t: t["engine.run_s"],
                 born_martingale),
        # wave + engine + runner: the run_experiment span without plotting
        Workload("fronts", fronts_op,
                 lambda t: t["runner.run_experiment_s"] - t["plotting.emit_s"]),
        Workload("diffusion", diffusion_op,
                 lambda t: t["fokker_planck.total_s"]),
        Workload("branches", branches_op, lambda t: t["exact.total_s"]),
    )
}
