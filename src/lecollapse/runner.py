"""Experiment orchestration: dispatch, persistence, and the run manifest.

Each mode writes its own set of payload files into the output directory,
then ``manifest.json`` is written last as the commit marker: a manifest
that exists names every payload with its size and sha256, so a directory
whose manifest is missing or flagged partial is known to be incomplete.

Determinism contract: for a fixed (config, seed) the payload bytes are
identical across runs and machines. Floats are written with ``repr``,
which round-trips exactly and never exceeds 17 significant digits; JSON
is sorted and indented the same way everywhere; the only nondeterministic
manifest entries are the wall-clock fields.

File conventions: channels are numbered 1..K in every output (columns
p_1..p_K, winner 1..K or null), matching the math's subscripts rather
than the code's 0-based arrays.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import lecollapse
from lecollapse.config import ExperimentConfig
from lecollapse.engine import (
    RunResult,
    born_statistics,
    run_collapse,
    run_ensemble,
)
from lecollapse.exact import (
    BranchState,
    # the config builds the generator; this binding stays only because
    # perfbench/tracing.py patches it by this name
    build_branch_hamiltonian,
    evolve,
    le_occupation,
    local_probabilities,
    reconstruct_standard,
)
from lecollapse.fokker_planck import (
    boundary_current,
    compare_histogram,
    edge_mass,
    ensemble_histogram,
    fp_step,
)
from lecollapse.plotting import emit_plot
from lecollapse.wave import (
    FrontUndefinedError,
    front_position,
    front_speed,
    front_width,
    kpp_step,
)

__all__ = [
    "RunManifest",
    "run_experiment",
    "format_csv",
    "write_json",
]


@dataclass(frozen=True)
class RunManifest:
    """What a finished experiment left behind, written last.

    ``outputs`` lists every payload file relative to the output directory
    with byte count and sha256. Two runs of one config agree on
    everything here except ``wall_clock``.
    """

    config_hash: str
    tool_version: str
    mode: str
    seeds: tuple[int, ...]
    status: str  # success | timeout | error
    partial: bool
    error: str | None
    wall_clock: dict
    outputs: tuple[dict, ...]

    def to_json(self) -> dict:
        return asdict(self)


# ------------------------------------------------------------ text layer

def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def format_csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        try:  # a row of floats, the common case, joins without _cell
            lines.append(",".join(map(float.__repr__, row)))
        except TypeError:
            lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(_json_text(obj), encoding="utf-8")


class _Job:
    """One experiment's output directory plus format gating.

    Each helper builds its file's text only when that format is requested;
    the SVG emitter takes the same header and rows as the CSV helper.
    """

    def __init__(self, config: ExperimentConfig, out: Path):
        self.config = config
        self.out = out
        self.files: list[Path] = []
        self.clocks: dict[str, float] = {}

    def _record(self, name: str, text: str) -> None:
        path = self.out / name
        path.write_text(text, encoding="utf-8")
        self.files.append(path)

    def csv(self, name: str, header, rows) -> None:
        if "csv" in self.config.formats:
            self._record(name, format_csv(header, rows))

    def json(self, name: str, obj) -> None:
        if "json" in self.config.formats:
            self._record(name, _json_text(obj))

    def svg(self, name: str, header, rows, kind: str) -> None:
        if "svg" in self.config.formats:
            self._record(name, emit_plot(header, rows, kind))


# ---------------------------------------------------------------- drivers

def _run_exact(job: _Job) -> str:
    p = job.config.params
    h, dt, n_steps = job.config.setup
    basis, model = h.basis, h.basis.model
    state = BranchState.from_standard(basis)
    cell = p["cell"] if p["cell"] is not None else tuple(range(model.sites))

    occ_names = [f"occupation_{r}" for r in range(model.channels + 1)]
    header = ["time", "norm", "hermitian_defect"] + occ_names + ["cross_term"]

    def row(s: BranchState):
        occ = le_occupation(s, range(model.channels + 1))
        cross = local_probabilities(s, cell)[1]
        norm = float(np.linalg.norm(reconstruct_standard(s)))
        return [s.time, norm, h.hermitian_defect, *occ, cross]

    started = time.perf_counter()
    rows = [row(state)]
    done = 0
    while done < n_steps:
        chunk = min(p["record_every"], n_steps - done)
        state = evolve(state, h, dt, steps=chunk)
        done += chunk
        rows.append(row(state))
    mark = time.perf_counter()
    job.clocks["solve"] = mark - started

    job.csv("scalars.csv", header, rows)
    job.json("summary.json", {
        "sites": model.sites,
        "atoms": model.atoms,
        "channels": model.channels,
        "basis_size": basis.n_basis,
        "dt": dt,
        "n_steps": n_steps,
        "t_final": state.time,
        "hermitian_defect": h.hermitian_defect,
        "norm_initial": rows[0][1],
        "norm_final": rows[-1][1],
        "norm_drift": abs(rows[-1][1] - rows[0][1]),
        "occupations_final": rows[-1][3:3 + model.channels + 1],
        "cross_term_final": rows[-1][-1],
    })
    job.clocks["write"] = time.perf_counter() - mark
    return "success"


def _run_wave(job: _Job) -> str:
    p = job.config.params
    kin, grid, f, dt, n_steps = job.config.setup

    times, rows = [], []
    tracking = True

    def sample(step: int) -> None:
        nonlocal tracking
        if not tracking:
            return
        t = step * dt
        try:
            pos = front_position(f, grid)
            width = front_width(f, grid)
        except FrontUndefinedError:
            tracking = False  # saturated or empty; nothing left to track
            return
        speed = math.nan
        if times:
            speed = (pos - rows[-1][1]) / (t - times[-1])
        times.append(t)
        rows.append([t, pos, width, speed])

    started = time.perf_counter()
    sample(0)
    done = 0
    while done < n_steps:
        chunk = min(p["record_every"], n_steps - done)
        f = kpp_step(f, grid, kin, dt, steps=chunk)
        done += chunk
        sample(done)
    mark = time.perf_counter()
    job.clocks["solve"] = mark - started

    front_header = ["time", "position", "width", "speed_estimate"]
    job.csv("front.csv", front_header, rows)

    coords = grid.axis_coords(0)
    profile = f
    if grid.dims > 1:
        center = tuple(s // 2 for s in grid.shape[1:])
        profile = f[(slice(None),) + center]
    profile_rows = np.column_stack([coords, profile]).tolist()
    job.csv("profile.csv", ["position", "f"], profile_rows)

    summary = {
        "dt": dt,
        "n_steps": n_steps,
        "t_final": n_steps * dt,
        "kpp_speed": kin.kpp_speed,
        "transport_speed": kin.sound_speed,
        "front_samples": len(rows),
        "width_final": rows[-1][2] if rows else None,
        "speed": None,
        "speed_residual": None,
        "ratio_to_kpp": None,
        "ratio_to_transport": None,
        "fit_note": None,
    }
    try:
        fit = front_speed(times, [r[1] for r in rows], kin,
                          transient=p["transient"])
        summary.update({
            "speed": fit.speed,
            "speed_residual": fit.residual,
            "ratio_to_kpp": fit.speed / fit.kpp_speed,
            "ratio_to_transport": fit.speed / fit.transport_speed,
        })
    except ValueError as exc:
        summary["fit_note"] = str(exc)
    job.json("speed.json", summary)

    job.svg("front.svg", front_header, rows, "front-trajectory")
    job.svg("profile.svg", ["position", "f"], profile_rows, "field-profile")
    job.clocks["write"] = time.perf_counter() - mark
    return "success"


def _result_json(result: RunResult) -> dict:
    return {
        "winner": None if result.winner is None else int(result.winner) + 1,
        "collapse_time": result.collapse_time,
        "slip_count": int(result.slip_count),
        "seed": int(result.seed),
        "p0": list(result.p0),
        "status": result.status,
    }


def _write_run(job: _Job, result: RunResult, suffix: str = "") -> None:
    job.json(f"run{suffix}.json", _result_json(result))
    if result.trajectory is not None:
        channels = len(result.p0)
        header = ["time"] + [f"p_{k}" for k in range(1, channels + 1)]
        rows = result.trajectory.tolist()
        job.csv(f"trajectory{suffix}.csv", header, rows)
        job.svg(f"trajectory{suffix}.svg", header, rows, "p-trajectory")


def _run_collapse(job: _Job) -> str:
    started = time.perf_counter()
    result = run_collapse(job.config.setup, job.config.seed)
    mark = time.perf_counter()
    job.clocks["solve"] = mark - started
    _write_run(job, result)
    job.clocks["write"] = time.perf_counter() - mark
    return "success" if result.status == "collapsed" else "timeout"


def _run_sweep(job: _Job) -> str:
    seeds = job.config.seeds
    started = time.perf_counter()
    # one batch, one stream per seed: each run equals its collapse run
    results = run_ensemble(job.config.setup, seeds, len(seeds)).results
    mark = time.perf_counter()
    job.clocks["solve"] = mark - started
    for seed, result in zip(seeds, results):
        _write_run(job, result, suffix=f"_{seed:05d}")

    p0 = job.config.params["p0"]
    channels = len(p0)
    counts = [sum(r.winner == k for r in results) for k in range(channels)]
    resolved = sum(counts)
    aggregate = {
        "n_results": len(results),
        "n_resolved": resolved,
        "n_timeout": len(results) - resolved,
        "expected": list(p0),
        "counts": counts,
        "frequencies": [
            c / resolved if resolved else None for c in counts
        ],
        "wilson_low": None,
        "wilson_high": None,
        "chi_square": None,
        "p_value": None,
    }
    # the full interval-and-test block needs the aggregator's 100-run
    # floor; small sweeps still get honest counts
    if len(results) >= 100 and resolved:
        stats = born_statistics(results)
        aggregate.update({
            "wilson_low": list(stats.wilson_low),
            "wilson_high": list(stats.wilson_high),
            "chi_square": stats.chi_square,
            "p_value": stats.p_value,
        })
    job.json("born.json", aggregate)
    job.clocks["write"] = time.perf_counter() - mark
    if any(r.status == "timeout" for r in results):
        return "timeout"
    return "success"


def _cell_table(grid, **values):
    """Header and rows over the valid cells of a simplex grid, i-major.

    Each row holds the cell's center coordinates p_1 (and p_2), then the
    value of each named array at that cell.
    """
    x = grid.centers()
    if grid.dims == 1:
        coords = [x]
    else:
        i, j = np.nonzero(grid.valid())
        coords = [x[i], x[j]]
        values = {name: v[i, j] for name, v in values.items()}
    header = [f"p_{k}" for k in range(1, grid.dims + 1)] + list(values)
    return header, np.column_stack(coords + list(values.values())).tolist()


def _run_fp(job: _Job) -> str:
    p = job.config.params
    grid, density, summary, scheme = job.config.setup

    def current_row(d):
        return [d.time, boundary_current(d, scheme), d.mass, d.clamped]

    started = time.perf_counter()
    writing = 0.0  # snapshot writes inside the loop count as "write"
    n_steps = p["n_steps"]
    every, snap = p["current_every"], p["snapshot_every"]
    currents = [current_row(density)]
    step = 0
    while step < n_steps:
        # run up to the next current row, snapshot or the end
        stop = min(n_steps, (step // every + 1) * every)
        if snap:
            stop = min(stop, (step // snap + 1) * snap)
        density = fp_step(density, scheme, steps=stop - step)
        step = stop
        if step % every == 0 or step == n_steps:
            currents.append(current_row(density))
        if snap and step % snap == 0 and step != n_steps:
            mark = time.perf_counter()
            header, rows = _cell_table(grid, density=density.phi)
            job.csv(f"density_{step:06d}.csv", header, rows)
            writing += time.perf_counter() - mark
    mark = time.perf_counter()
    job.clocks["solve"] = mark - started - writing

    header, rows = _cell_table(grid, density=density.phi)
    job.csv("density.csv", header, rows)
    job.csv(
        "current.csv",
        ["time", "boundary_current", "mass", "clamped"],
        currents,
    )
    edge = edge_mass(density)
    job.json("summary.json", {
        "channels": grid.channels,
        "resolution": grid.resolution,
        "dt": scheme.dt,
        "n_steps": p["n_steps"],
        "t_final": density.time,
        "overlap": list(summary.overlap),
        "mass": density.mass,
        "clamped": density.clamped,
        "edge_mass": edge,
        "interior_mass": 1.0 - edge,
        "boundary_current_final": currents[-1][1],
    })
    if grid.dims == 1:
        job.svg("density.svg", header, rows, "histogram-vs-density")
    job.clocks["write"] = writing + time.perf_counter() - mark
    return "success"


def _run_compare(job: _Job) -> str:
    p = job.config.params
    setup, sgrid, density, scheme, n_fp = job.config.setup

    started = time.perf_counter()
    density = fp_step(density, scheme, steps=n_fp)
    job.clocks["fp"] = time.perf_counter() - started

    started = time.perf_counter()
    ensemble = run_ensemble(
        setup, job.config.seed, p["n_runs"],
        checkpoint_steps=(setup.max_steps,),
    )
    job.clocks["ensemble"] = time.perf_counter() - started

    probs = ensemble.checkpoint_p[-1]
    comparison = compare_histogram(
        density, probs, boundary_cells=p["boundary_cells"]
    )
    absorbed = sum(1 for r in ensemble.results if r.status == "collapsed")

    hist = ensemble_histogram(probs, sgrid)
    header, rows = _cell_table(sgrid, density=density.phi, histogram=hist)
    job.csv("histogram.csv", header, rows)

    job.json("comparison.json", {
        "total_variation": comparison.total_variation,
        "fp_boundary_mass": comparison.fp_boundary_mass,
        "mc_boundary_mass": comparison.mc_boundary_mass,
        "n_runs": comparison.n_runs,
        "n_absorbed": absorbed,
        "absorbed_fraction": absorbed / p["n_runs"],
        "fp_interior_mass": 1.0 - comparison.fp_boundary_mass,
        "t_final": p["t_final"],
        "fp_steps": n_fp,
        "fp_dt": scheme.dt,
        "mc_steps": setup.max_steps,
        "fp_mass": density.mass,
        "fp_clamped": density.clamped,
    })
    if sgrid.dims == 1:
        job.svg("histogram.svg", header, rows, "histogram-vs-density")
    return "success"


_DRIVERS = {
    "exact": _run_exact,
    "wave": _run_wave,
    "collapse": _run_collapse,
    "fp": _run_fp,
    "sweep": _run_sweep,
    "compare": _run_compare,
}


# ------------------------------------------------------------- manifest

def _inventory(out: Path, files) -> tuple[dict, ...]:
    entries = []
    for path in sorted(set(files)):
        blob = path.read_bytes()
        entries.append({
            "path": path.relative_to(out).as_posix(),
            "bytes": len(blob),
            "sha256": hashlib.sha256(blob).hexdigest(),
        })
    return tuple(entries)


def _finish(
    config: ExperimentConfig,
    out: Path,
    job: _Job,
    status: str,
    error: str | None,
    partial: bool,
    total: float,
) -> RunManifest:
    manifest = RunManifest(
        config_hash=config.config_hash(),
        tool_version=lecollapse.__version__,
        mode=config.mode,
        seeds=config.seeds,
        status=status,
        partial=partial,
        error=error,
        wall_clock={"total": total, **job.clocks},
        outputs=_inventory(out, job.files),
    )
    write_json(out / "manifest.json", manifest.to_json())
    return manifest


def run_experiment(config: ExperimentConfig) -> RunManifest:
    """Dispatch a validated config and commit the results.

    Payload files are written as the run progresses; ``manifest.json``
    lands last. A module failure still writes the manifest, flagged
    partial with the error message, before the exception propagates.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    job = _Job(config, out)
    started = time.perf_counter()
    try:
        status = _DRIVERS[config.mode](job)
    except Exception as exc:
        _finish(
            config, out, job,
            status="error",
            error=f"{type(exc).__name__}: {exc}",
            partial=True,
            total=time.perf_counter() - started,
        )
        raise
    return _finish(
        config, out, job,
        status=status,
        error=None,
        partial=False,
        total=time.perf_counter() - started,
    )
