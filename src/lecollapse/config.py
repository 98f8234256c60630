"""Flat key=value experiment configuration.

One ``key = value`` assignment per line, ``#`` to end of line is comment,
no sections and no nesting. The format stays this dumb on purpose: files
diff cleanly, and the resolved configuration serializes to a canonical
text whose hash identifies the experiment.

Each mode's key table holds every key the mode accepts with its default,
the common ``out``, ``formats`` and ``seed`` (``seeds`` for sweep) and
collapse's and sweep's ``trajectory`` included, so ``mode = collapse``
alone is a complete runnable config. load_config parses every key in one
loop over the table: an error names the line and key, and a key of another
mode fails as unknown, with a hint. Validation happens at load time, and
each check lives in one place. The domain constructors (KineticParams,
SlipParams, Grid, CollapseSetup, SimplexGrid, LatticeModel and the like)
own every check on a single value; CollapseSetup, for one, caps the
channels at engine.MAX_CHANNELS. A key's parser checks the range of a key
only the run loops read. Each mode has one builder, which first checks the
rules that relate two or more keys and then builds every object and
operator the run needs, once: exact's generator with its dt and step
count, the wave step operator, the Fokker-Planck scheme. load_config turns
the constructors' ValueErrors into ConfigErrors and keeps the objects on
the config as ``setup``; the run only steps and writes, so nothing is
constructed twice or fails construction mid-run. Derived values
(D = lam^2/(6*tau), N_c = n_a*lam^3) are never keys: the builder copies
them from KineticParams and SlipParams into the canonical text.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field, replace
from typing import Callable

from lecollapse import exact
from lecollapse.engine import CollapseSetup, SlipParams
from lecollapse.fokker_planck import (
    FPDensity,
    SimplexGrid,
    field_summary,
    fp_scheme,
    stable_step,
)
from lecollapse.wave import Grid, KineticParams, seed_field, step_operator

import numpy as np

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "MODES",
    "load_config",
]

FORMATS = ("csv", "json", "svg")

# The longest run a config may ask for: ten times the 10^5 steps of
# criterion 9's diffusion solve, the longest gate or benchmark run.
MAX_STEPS = 10**6
# The most runs a sweep or compare may ask for: ten times the gate's
# 10^4-run Born ensembles (criteria 7 and 8).
MAX_RUNS = 10**5
# The most density snapshots an fp run may write, each a CSV of up to half
# a million cells: twenty times the 5 of the largest test run.
MAX_SNAPSHOTS = 100


class ConfigError(ValueError):
    """Unreadable, unparsable, or inconsistent configuration."""


# ---------------------------------------------------------------- parsing

def _int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ValueError(f"expected an integer, got {s!r}") from None


def _float(s: str) -> float:
    try:
        v = float(s)
    except ValueError:
        raise ValueError(f"expected a number, got {s!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"{v} is not a valid parameter value")
    return v


def _bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected true or false, got {s!r}")


def _list(item: Callable[[str], object]) -> Callable[[str], tuple]:
    def parse(s: str) -> tuple:
        parts = [p.strip() for p in s.split(",")]
        if not all(parts):
            raise ValueError(f"expected a comma-separated list, got {s!r}")
        return tuple(item(p) for p in parts)

    return parse


def _checked(parse: Callable[[str], object], ok: Callable[[object], bool],
             what: str) -> Callable[[str], object]:
    """``parse``, then reject a value for which ``ok`` is false."""
    def checked(s: str):
        v = parse(s)
        if not ok(v):
            raise ValueError(f"{what}, got {s}")
        return v

    return checked


# Philox keys are 64-bit words
_seed = _checked(_int, lambda v: 0 <= v < 2**64, "must lie in 0..2^64-1")
_positive = _checked(_float, lambda v: v > 0, "must be positive")
_fraction = _checked(_float, lambda v: 0 < v <= 1.0, "must lie in (0, 1]")
_open_unit = _checked(_float, lambda v: 0.0 < v < 1.0,
                      "must lie strictly in (0, 1)")
_count = _checked(_int, lambda v: v >= 1, "must be at least 1")
_steps = _checked(_int, lambda v: 1 <= v <= MAX_STEPS,
                  f"must lie in 1..{MAX_STEPS}")
# fp and compare start their density strictly inside the simplex
_interior = _checked(_list(_float), lambda p: all(0.0 < x < 1.0 for x in p),
                     "must lie strictly inside the simplex")


def _seed_range(s: str) -> tuple[int, ...]:
    m = re.fullmatch(r"(-?\d+)\s*\.\.\s*(-?\d+)", s)
    if m is None:
        raise ValueError(f"expected a seed range like 0..9, got {s!r}")
    lo, hi = _seed(m.group(1)), _seed(m.group(2))
    if hi < lo:
        raise ValueError(f"seed range {s!r} runs backwards")
    if hi - lo >= MAX_RUNS:
        raise ValueError(f"seed range {s!r} holds {hi - lo + 1} seeds, more "
                         f"than the {MAX_RUNS} a sweep may run")
    return tuple(range(lo, hi + 1))


def _formats(s: str) -> tuple[str, ...]:
    names = tuple(p.strip() for p in s.split(","))
    for name in names:
        if name not in FORMATS:
            raise ValueError(
                f"unknown format {name!r}: choose from {', '.join(FORMATS)}"
            )
    # keep the canonical order regardless of how the user wrote them
    return tuple(f for f in FORMATS if f in names)


def _choice(*options: str) -> Callable[[str], str]:
    def parse(s: str) -> str:
        if s not in options:
            raise ValueError(f"expected one of {options}, got {s!r}")
        return s

    return parse


@dataclass(frozen=True)
class _Key:
    parse: Callable[[str], object]
    default: object


# Key tables. Shared fragments first; each mode's table is the complete
# set of keys it accepts, the common ones included, with their defaults.

_COMMON = {
    "out": _Key(str, "runs"),
    "formats": _Key(_formats, ("csv", "json")),
    "seed": _Key(_seed, 0),
}

_KINETIC = {
    "lam": _Key(_float, 1.0),
    "tau": _Key(_float, 1.0),
}

_SLIPS = {
    **_KINETIC,
    "w": _Key(_float, 0.4),
    "n_a": _Key(_float, 100.0),
    "rate_calibration": _Key(_float, 1.0),
    "absorb_floor": _Key(_float, 1e-9),
}

_EXACT_KEYS = {
    **_COMMON,
    "sites": _Key(_int, 3),
    "atoms": _Key(_int, 2),
    "channels": _Key(_int, 1),
    "hop_amplitude": _Key(_float, 1.0),
    "u_strength": _Key(_float, 0.8),
    "v_strength": _Key(_float, 0.5),
    "cross_channel_coupling": _Key(_choice("diagonal", "none"), "diagonal"),
    "bosonic": _Key(_bool, True),
    "t_final": _Key(_positive, 20.0),
    "dt": _Key(_positive, None),
    "record_every": _Key(_count, 1),
    "cell": _Key(_list(_int), None),
}

_WAVE_KEYS = {
    **_COMMON,
    **_KINETIC,
    "extent": _Key(_list(_float), (400.0,)),
    "spacing": _Key(_float, 0.125),
    "seed_region": _Key(_list(_float), (0.0, 2.0)),
    "inside": _Key(_float, 1.0),
    "dt_fraction": _Key(_fraction, 0.2),
    "t_final": _Key(_positive, 60.0),
    "record_every": _Key(_count, 10),
    "transient": _Key(_checked(_float, lambda v: v >= 0,
                               "must be nonnegative"), None),
}

_COLLAPSE_KEYS = {
    **_COMMON,
    **_SLIPS,
    # desk-scale default: strong enough slip statistics to absorb well
    # inside the step budget; individual slips are aggregated, not resolved
    "rate_calibration": _Key(_float, 5000.0),
    "absorb_floor": _Key(_float, 1e-5),
    "extent": _Key(_list(_float), (32.0,)),
    "spacing": _Key(_float, 0.25),
    "p0": _Key(_list(_float), (0.3, 0.7)),
    "dt": _Key(_float, 0.04),
    "max_steps": _Key(_steps, 20000),
    "f_init": _Key(_float, None),
    # None means auto: fronts advance when seeded, a uniform background
    # stays frozen (growth would saturate f -> 1 and starve the slips)
    "advance_fields": _Key(_bool, None),
    "record_every": _Key(_int, 0),
    "trajectory": _Key(_bool, False),
}

_SWEEP_KEYS = {
    **{k: v for k, v in _COLLAPSE_KEYS.items() if k != "seed"},
    "seeds": _Key(_seed_range, tuple(range(10))),
}

# the density side of fp and compare: a simplex grid started near p0 on
# a uniform f_init background
_DENSITY = {
    **_COMMON,
    **_SLIPS,
    "p0": _Key(_interior, (0.5, 0.5)),
    "width_cells": _Key(_float, 2.0),
    "f_init": _Key(_open_unit, 0.4),
    "extent": _Key(_list(_float), (16.0,)),
    "spacing": _Key(_float, 0.25),
    "dt_fraction": _Key(_fraction, 0.5),
    "resolution": _Key(_int, 100),
}

_FP_KEYS = {
    **_DENSITY,
    "channels": _Key(_int, 2),
    "n_steps": _Key(_steps, 2000),
    "snapshot_every": _Key(_checked(_int, lambda v: v >= 0,
                                    "must be nonnegative"), 0),
    "current_every": _Key(_count, 10),
}

_COMPARE_KEYS = {
    **_DENSITY,
    "dt": _Key(_float, 0.005),
    "advance_fields": _Key(_bool, False),
    "t_final": _Key(_float, 5.0),
    "n_runs": _Key(_checked(_int, lambda v: 100 <= v <= MAX_RUNS,
                            f"must lie in 100..{MAX_RUNS}: compare needs at "
                            "least 100 runs for a meaningful histogram"),
                   1000),
    "boundary_cells": _Key(_count, 1),
}

# why a key of another mode is unknown in this one
_HINTS = {
    "seed": "; sweep takes a seed range (seeds = A..B), not a single seed",
    "seeds": "; a seed range only makes sense for sweep; {mode} takes "
             "seed = N",
    "trajectory": "; trajectory logging applies to collapse and sweep, "
                  "not {mode}",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment: mode, seeds, outputs, parameters.

    ``params`` holds plain values only (defaults resolved, derived
    quantities filled in); ``setup`` holds the domain objects load_config
    built from them, which the run uses as they are. ``source`` is the
    canonical serialization whose sha256 identifies the experiment; the
    output directory is deliberately excluded so moving results does not
    change their identity.
    """

    mode: str
    seeds: tuple[int, ...]
    out_dir: str
    formats: tuple[str, ...]
    params: dict
    source: str
    setup: object = field(compare=False, repr=False)

    @property
    def seed(self) -> int:
        return self.seeds[0]

    def config_hash(self) -> str:
        return hashlib.sha256(self.source.encode()).hexdigest()


# ------------------------------------------------------------- file layer

def _parse_text(text: str) -> dict[str, tuple[str, str]]:
    """Raw key -> (value, location) with comments stripped."""
    entries: dict[str, tuple[str, str]] = {}
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key:
            raise ConfigError(f"line {n}: expected 'key = value', got {raw!r}")
        if not value:
            raise ConfigError(f"line {n}: empty value for key {key!r}")
        if key in entries:
            raise ConfigError(
                f"line {n}: duplicate key {key!r} (already set at "
                f"{entries[key][1]})"
            )
        entries[key] = (value, f"line {n}")
    return entries


def _value_text(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):
        return ",".join(_value_text(x) for x in v)
    return str(v)


def _canonical(mode, seeds, formats, params) -> str:
    lines = [f"mode = {mode}"]
    if len(seeds) == 1:
        lines.append(f"seed = {seeds[0]}")
    else:
        lines.append(f"seeds = {seeds[0]}..{seeds[-1]}")
    lines.append(f"formats = {','.join(formats)}")
    for key in sorted(params):
        if params[key] is not None:
            lines.append(f"{key} = {_value_text(params[key])}")
    return "\n".join(lines) + "\n"


def load_config(path=None, overrides=None) -> ExperimentConfig:
    """Load, override, validate, and build the mode's objects.

    Any failure is a ConfigError. The objects land on the returned
    config's ``setup``, and the run uses them as they are.

    ``overrides`` maps key names to raw value strings exactly as they
    would appear in the file; they replace file entries and are reported
    as coming from the command line. ``path`` may be None for an
    all-defaults config driven purely by overrides.
    """
    if path is None:
        text = ""
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
    entries = _parse_text(text)
    overrides = dict(overrides or {})
    if "mode" in overrides and "mode" in entries \
            and entries["mode"][0] != overrides["mode"]:
        raise ConfigError(
            f"{entries['mode'][1]}: config file says mode = "
            f"{entries['mode'][0]} but the command asked for "
            f"{overrides['mode']}"
        )
    for key, value in overrides.items():
        entries[key] = (str(value), "command line")

    mode, mode_loc = entries.pop("mode", (None, None))
    if mode is None:
        raise ConfigError(f"mode is required ({', '.join(MODES[:-1])}, "
                          f"or {MODES[-1]})")
    if mode not in MODES:
        raise ConfigError(f"{mode_loc}: unknown mode {mode!r}")

    table, per_channel, build = _MODES[mode]
    params: dict = {}
    for key, (value, loc) in entries.items():
        if key in table:
            parse = table[key].parse
        elif per_channel is not None and per_channel[0].fullmatch(key):
            parse = per_channel[1]
        else:
            hint = _HINTS.get(key, "").format(mode=mode)
            raise ConfigError(
                f"{loc}: unknown key {key!r} for mode {mode}{hint}")
        try:
            params[key] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"{loc}: {key}: {exc}") from None
    for key, spec in table.items():
        params.setdefault(key, spec.default)

    # out, formats, seed(s) and trajectory leave params; the canonical
    # text gives seeds and formats lines of their own
    out_dir, formats = params.pop("out"), params.pop("formats")
    seeds = params.pop("seeds") if mode == "sweep" else (params.pop("seed"),)
    if params.pop("trajectory", False) and params["record_every"] == 0:
        params["record_every"] = 1

    try:
        setup = build(params)
    except ConfigError:
        raise
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"invalid {mode} parameters: {exc}") from None
    return ExperimentConfig(
        mode=mode,
        seeds=seeds,
        out_dir=out_dir,
        formats=formats,
        params=params,
        source=_canonical(mode, seeds, formats, params),
        setup=setup,
    )


# -------------------------------------------------------------- builders
#
# One per mode. Each takes the mode's parsed params, first checks the
# rules that relate two or more keys (raising ConfigError, which
# load_config passes on as it is) and then builds the run's objects,
# whose constructors raise ValueError on a bad value; load_config turns
# that into a ConfigError and stores the result on ExperimentConfig.setup.
# A builder writes the defaults that depend on other keys, and the
# derived d_coeff and n_c, back into params, so they are in the canonical
# text; no derived value is a key.

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _numbered_keys(params: dict, prefix: str) -> list[str]:
    """``prefix_1``, ``prefix_2``, ... present in params, in numeric order."""
    return sorted(
        (k for k in params if re.fullmatch(rf"{prefix}_\d+", k)),
        key=lambda k: int(k.rsplit("_", 1)[1]),
    )


def _box_pairs(key: str, box: tuple, extent: tuple) -> tuple:
    """(lo, hi) per axis from the flat lo,hi,lo,hi,... of a seed box.

    Each interval must lie inside its axis, 0 <= lo and hi <= extent.
    """
    # pairing the numbers per axis would silently drop an unpaired one
    if len(box) != 2 * len(extent):
        raise ConfigError(
            f"{key} needs {2 * len(extent)} numbers "
            f"(lo,hi per extent axis), got {len(box)}"
        )
    pairs = tuple(zip(box[0::2], box[1::2]))
    for axis, (lo, hi) in enumerate(pairs):
        if not (0.0 <= lo and hi <= extent[axis]):
            raise ConfigError(
                f"{key}: interval ({lo}, {hi}) does not fit in "
                f"axis {axis} extent {extent[axis]}"
            )
    return pairs


def _check_regions(params: dict) -> tuple | None:
    """Seed-region bookkeeping for collapse and sweep; the seed boxes.

    With neither seed regions nor f_init given the run falls back to a
    uniform f_init = 0.4 background; CollapseSetup rejects both together.
    An advance_fields of None resolves here: seeded fronts advance, a
    uniform background stays frozen. Letting growth run on a uniform
    background would saturate f at 1 in a few tau, drive f0 to zero and
    freeze the walk mid-flight, so that combination must be opted into.
    Returns one box of (lo, hi) pairs per channel, or None.
    """
    channels = len(params["p0"])
    region_keys = _numbered_keys(params, "seed_region")
    if params["f_init"] is None and not region_keys:
        params["f_init"] = 0.4
    if params["advance_fields"] is None:
        params["advance_fields"] = bool(region_keys)
    if not region_keys:
        return None
    expected = [f"seed_region_{k}" for k in range(1, channels + 1)]
    if region_keys != expected:
        raise ConfigError(
            f"need exactly seed_region_1..seed_region_{channels}, "
            f"got {', '.join(region_keys)}"
        )
    return tuple(_box_pairs(key, params[key], params["extent"])
                 for key in region_keys)


def _check_steps(t_final: float, dt: float) -> None:
    """Reject a t_final that takes more than MAX_STEPS steps of dt."""
    if not t_final / dt <= MAX_STEPS:
        raise ValueError(
            f"t_final = {t_final} takes {t_final / dt:.3g} steps of "
            f"dt = {dt}, more than the {MAX_STEPS} a run may take"
        )


def _kinetics_grid(params: dict) -> tuple[KineticParams, Grid]:
    """The kinetic scales and a grid that resolves them; writes d_coeff."""
    kin = KineticParams(lam=params["lam"], tau=params["tau"])
    grid = Grid(extent=params["extent"], spacing=params["spacing"])
    grid.check_resolution(kin)
    params["d_coeff"] = kin.d_coeff
    return kin, grid


def _exact_setup(p: dict):
    """(branch generator, dt, step count) for exact.

    A given dt takes n = ceil(t_final / dt) steps of dt. Without one, n
    counts default steps of the generator's own row-sum norm, which the
    step cap sees, and the run takes n steps of t_final / n, ending on
    t_final. The build goes through the module attribute, where the
    benchmark's tracer counts it.
    """
    _require(p["channels"] == 1 or p["cross_channel_coupling"] == "diagonal",
             "cross_channel_coupling = none breaks the branch-sum identity "
             "for channels >= 2; use diagonal")
    track_keys = _numbered_keys(p, "track")
    expected = [f"track_{k}" for k in range(1, p["channels"] + 1)]
    if not track_keys and p["channels"] == 1:
        p["track_1"] = (0,)
    elif track_keys != expected:
        raise ConfigError(
            f"need exactly track_1..track_{p['channels']}, "
            f"got {', '.join(track_keys) or 'none'}"
        )
    for s in p["cell"] or ():
        _require(0 <= s < p["sites"],
                 f"cell site {s} outside 0..{p['sites'] - 1}")
    h = exact.build_branch_hamiltonian(exact.LatticeModel(
        sites=p["sites"],
        atoms=p["atoms"],
        channels=p["channels"],
        hop_amplitude=p["hop_amplitude"],
        u_strength=p["u_strength"],
        v_strength=p["v_strength"],
        a_tracks=tuple(p[f"track_{k}"] for k in range(1, p["channels"] + 1)),
        bosonic=p["bosonic"],
        cross_channel_coupling=p["cross_channel_coupling"],
    ))
    dt = p["dt"] if p["dt"] is not None else exact.default_timestep(h)
    _check_steps(p["t_final"], dt)
    n = max(1, math.ceil(p["t_final"] / dt))
    return h, (dt if p["dt"] is not None else p["t_final"] / n), n


def _wave_setup(p: dict):
    """(KineticParams, Grid, initial field, dt, step count) for wave."""
    box = _box_pairs("seed_region", p["seed_region"], p["extent"])
    kin, grid = _kinetics_grid(p)
    f = seed_field(grid, box, inside=p["inside"])
    dt = p["dt_fraction"] * grid.monotone_limit(kin)
    _check_steps(p["t_final"], dt)
    step_operator(grid, kin, dt)  # built here; kpp_step finds it cached
    return kin, grid, f, dt, max(1, math.ceil(p["t_final"] / dt))


def _slip_params(params: dict) -> SlipParams:
    """The slip parameters; writes their derived n_c into params."""
    slips = SlipParams(
        w=params["w"],
        tau=params["tau"],
        lam=params["lam"],
        n_a=params["n_a"],
        rate_calibration=params["rate_calibration"],
        absorb_floor=params["absorb_floor"],
    )
    params["n_c"] = slips.n_c
    return slips


def _collapse_setup(p: dict) -> CollapseSetup:
    regions = _check_regions(p)
    kin, grid = _kinetics_grid(p)
    setup = CollapseSetup(
        kinetics=kin,
        slips=_slip_params(p),
        grid=grid,
        p0=p["p0"],
        dt=p["dt"],
        max_steps=p["max_steps"],
        seed_regions=regions,
        f_init=p["f_init"],
        advance_fields=p["advance_fields"],
        record_every=p["record_every"],
    )
    if setup.advance_fields:  # built now, so no run clock loads scipy.sparse
        step_operator(setup.grid, setup.kinetics, setup.dt)
    return setup


def _simplex_start(p: dict, channels: int, grid: Grid, slips: SlipParams):
    """(simplex grid, summary, step bound) for fp and compare.

    The summary is the overlap of a uniform f_init background on ``grid``.
    There f0 = 1 - f_init whatever p0 is. A one-hot p_ref gives exactly
    that value, where p0 itself would move it by rounding, so runs that
    differ only in p0 share one overlap and so one cached scheme.
    """
    sgrid = SimplexGrid(channels=channels, resolution=p["resolution"])
    f = np.full((channels,) + grid.shape, float(p["f_init"]))
    summary = field_summary(grid, f, np.eye(channels)[0], slips)
    return sgrid, summary, stable_step(sgrid, summary, slips)


def _start_density(p: dict, scheme) -> FPDensity:
    # on the scheme's own grid object, which fp_step tests for first: a
    # cached scheme may hold an earlier, equal grid
    return FPDensity.near_delta(scheme.grid, np.asarray(p["p0"]),
                                width_cells=p["width_cells"])


def _fp_setup(p: dict):
    """(simplex grid, initial density, summary, scheme) for fp."""
    every = p["snapshot_every"]
    if every:
        count = p["n_steps"] // every
        _require(count <= MAX_SNAPSHOTS,
                 f"snapshot_every = {every} writes {count} density "
                 f"snapshots over {p['n_steps']} steps, more than the "
                 f"{MAX_SNAPSHOTS} an fp run may write")
    _, grid = _kinetics_grid(p)
    slips = _slip_params(p)
    sgrid, summary, bound = _simplex_start(p, p["channels"], grid, slips)
    dt = p["dt_fraction"] * bound if np.isfinite(bound) else p["tau"]
    scheme = fp_scheme(sgrid, summary, slips, dt)
    return scheme.grid, _start_density(p, scheme), summary, scheme


def _compare_setup(p: dict):
    """(CollapseSetup, simplex grid, density, scheme, fp steps) for compare.

    Both sides run to the same t_final: the engine in n_mc steps of the
    configured dt, the density in however many stability-bounded steps
    cover the interval exactly.
    """
    _require(not _numbered_keys(p, "seed_region"), "compare requires the "
             "uniform f_init background, not seed regions")
    _require(not p["advance_fields"], "compare requires advance_fields = "
             "false: the diffusion solver assumes the frozen uniform "
             "background")
    _require(p["t_final"] >= p["dt"], "t_final must cover at least one step")
    # built from a copy (compare has no max_steps or record_every key), so
    # the derived values are copied back into its canonical text
    setup = _collapse_setup({**p, "max_steps": 1, "record_every": 0})
    p["d_coeff"], p["n_c"] = setup.kinetics.d_coeff, setup.slips.n_c
    # dt is known positive only once CollapseSetup has checked it
    _check_steps(p["t_final"], p["dt"])
    setup = replace(setup, max_steps=max(1, round(p["t_final"] / p["dt"])))
    sgrid, summary, bound = _simplex_start(
        p, setup.channels, setup.grid, setup.slips)
    n_fp = 1
    if np.isfinite(bound):
        _check_steps(p["t_final"], p["dt_fraction"] * bound)
        n_fp = max(1, math.ceil(p["t_final"] / (p["dt_fraction"] * bound)))
    scheme = fp_scheme(sgrid, summary, setup.slips, p["t_final"] / n_fp)
    return setup, scheme.grid, _start_density(p, scheme), scheme, n_fp


# mode: (key table, per-channel key pattern and its parser, builder)
_SEED_REGIONS = (re.compile(r"seed_region_\d+"), _list(_float))
_MODES = {
    "exact": (_EXACT_KEYS, (re.compile(r"track_\d+"), _list(_int)),
              _exact_setup),
    "wave": (_WAVE_KEYS, None, _wave_setup),
    "collapse": (_COLLAPSE_KEYS, _SEED_REGIONS, _collapse_setup),
    "fp": (_FP_KEYS, None, _fp_setup),
    "sweep": (_SWEEP_KEYS, _SEED_REGIONS, _collapse_setup),
    "compare": (_COMPARE_KEYS, _SEED_REGIONS, _compare_setup),
}
MODES = tuple(_MODES)
