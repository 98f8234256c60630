"""Experiment orchestration: dispatch, persistence, and the run manifest.

Each mode writes its own set of payload files into the output directory,
then ``manifest.json`` is written last as the commit marker: a manifest
that exists names every payload with its size and sha256, taken from the
bytes as they were written, so a directory whose manifest is missing or
flagged partial is known to be incomplete. One clock per run starts with
``wall_clock.total``; each driver laps it into its phases.

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
        self.outputs: dict[str, dict] = {}  # manifest entry per file name
        self.clocks: dict[str, float] = {}
        self.started = self._lapped = time.perf_counter()

    def lap(self, phase: str) -> None:
        """Add the seconds since the last lap, or the start, to ``phase``."""
        now = time.perf_counter()
        self.clocks[phase] = self.clocks.get(phase, 0.0) + now - self._lapped
        self._lapped = now

    def _record(self, name: str, text: str) -> None:
        blob = text.encode("utf-8")
        (self.out / name).write_bytes(blob)
        self.outputs[name] = {"path": name, "bytes": len(blob),
                              "sha256": hashlib.sha256(blob).hexdigest()}

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

    rows = [row(state)]
    done = 0
    while done < n_steps:
        chunk = min(p["record_every"], n_steps - done)
        state = evolve(state, h, dt, steps=chunk)
        done += chunk
        rows.append(row(state))
    job.lap("solve")

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
    job.lap("write")
    return "success"


# front tracking takes the sampled fields in batches of at most this many
# fields and about this many bytes, but at least one field: a 3D field at
# the 2^20-cell cap (8 MiB) is tracked alone
_TRACK_FIELDS = 64
_TRACK_BYTES = 4 * 2**20


def _run_wave(job: _Job) -> str:
    p = job.config.params
    kin, grid, f, dt, n_steps = job.config.setup

    times, rows = [], []
    samples = 1 + -(-n_steps // p["record_every"])
    batch = np.empty((min(samples, _TRACK_FIELDS,
                          max(1, _TRACK_BYTES // f.nbytes)),) + f.shape)
    batch[0] = f
    steps = [0]  # the step of each field held in batch

    def track() -> bool:
        """Front rows of the batch's fields; False once the front is gone."""
        fields = batch[:len(steps)]
        while True:  # cut the stack before its first field without a front
            try:
                found = zip(front_position(fields, grid).tolist(),
                            front_width(fields, grid).tolist())
                break
            except FrontUndefinedError as exc:
                fields = fields[:exc.index]
        defined = len(fields) == len(steps)
        for step, (pos, width) in zip(steps, found):
            t = step * dt
            speed = math.nan
            if times:
                speed = (pos - rows[-1][1]) / (t - times[-1])
            times.append(t)
            rows.append([t, pos, width, speed])
        steps.clear()
        return defined

    # fill each batch in one call of whole record_every chunks, and one
    # more for a short last chunk; once the front is gone, step to the end
    tracking, done = len(batch) > 1 or track(), 0
    while tracking and done < n_steps:
        chunk = min(p["record_every"], n_steps - done)
        held = len(steps)
        m = min(len(batch) - held, (n_steps - done) // chunk)
        f = kpp_step(f, grid, kin, dt, chunk, out=batch[held:held + m])[-1]
        steps += range(done + chunk, done + m * chunk + 1, chunk)
        done += m * chunk
        tracking = len(steps) < len(batch) and done < n_steps or track()
    if done < n_steps:
        f = kpp_step(f, grid, kin, dt, n_steps - done)
    job.lap("solve")

    front_header = ["time", "position", "width", "speed_estimate"]
    job.csv("front.csv", front_header, rows)

    # the line the fronts were tracked on
    profile_rows = np.column_stack(
        [grid.axis_coords(0), f[grid.front_line]]).tolist()
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
    job.lap("write")
    return "success"


def _result_json(result: RunResult) -> dict:
    return {
        "winner": None if result.winner is None else int(result.winner) + 1,
        "collapse_time": result.collapse_time,
        "slip_count": int(result.slip_count),
        "seed": int(result.seed),
        "p0": list(result.p0),
        "status": result.status,
        "p_final": result.p_final.tolist(),  # channels 1..K, as p0
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
    result = run_collapse(job.config.setup, job.config.seed)
    job.lap("solve")
    _write_run(job, result)
    job.lap("write")
    return "success" if result.status == "collapsed" else "timeout"


def _run_sweep(job: _Job) -> str:
    seeds = job.config.seeds
    # one batch, one stream per seed: each run equals its collapse run
    results = run_ensemble(job.config.setup, seeds, len(seeds)).results
    stats = born_statistics(results)
    job.lap("solve")
    for seed, result in zip(seeds, results):
        _write_run(job, result, suffix=f"_{seed:05d}")
    job.json("born.json", {**asdict(stats),
                           "n_timeout": stats.n_results - stats.n_resolved})
    job.lap("write")
    return "timeout" if stats.n_resolved < stats.n_results else "success"


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
            job.lap("solve")
            header, rows = _cell_table(grid, density=density.phi)
            job.csv(f"density_{step:06d}.csv", header, rows)
            job.lap("write")
    job.lap("solve")

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
    job.lap("write")
    return "success"


def _run_compare(job: _Job) -> str:
    p = job.config.params
    setup, sgrid, density, scheme, n_fp = job.config.setup

    density = fp_step(density, scheme, steps=n_fp)
    job.lap("fp")
    results = run_ensemble(setup, job.config.seed, p["n_runs"]).results
    comparison = compare_histogram(
        density, np.array([r.p_final for r in results]),
        boundary_cells=p["boundary_cells"]
    )
    absorbed = sum(1 for r in results if r.status == "collapsed")
    job.lap("ensemble")

    header, rows = _cell_table(sgrid, density=density.phi,
                               histogram=comparison.histogram)
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
    job.lap("write")
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

def _finish(job: _Job, status: str, error: str | None) -> RunManifest:
    config = job.config
    manifest = RunManifest(
        config_hash=config.config_hash(),
        tool_version=lecollapse.__version__,
        mode=config.mode,
        seeds=config.seeds,
        status=status,
        partial=error is not None,
        error=error,
        wall_clock={"total": time.perf_counter() - job.started, **job.clocks},
        outputs=tuple(job.outputs[name] for name in sorted(job.outputs)),
    )
    write_json(job.out / "manifest.json", manifest.to_json())
    return manifest


def run_experiment(config: ExperimentConfig) -> RunManifest:
    """Dispatch a validated config and commit the results.

    Payload files are written as the run progresses; ``manifest.json``
    lands last. A module failure still writes the manifest, flagged
    partial with the error message and listing the payloads written so
    far, before the exception propagates.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    job = _Job(config, out)
    try:
        status = _DRIVERS[config.mode](job)
    except Exception as exc:
        _finish(job, "error", f"{type(exc).__name__}: {exc}")
        raise
    return _finish(job, status, None)
