"""Stochastic slips in coherence and the collapse random walk.

Incoherent collisions between channel-entangled atoms and untouched atoms
transfer tiny amounts of probability between measurement channels. Each
slip moves the channel probabilities by a zero-sum delta of order
W f_j f_0 / (2 N_c); slips arrive as rare Poisson events per sampling cell,
channel and sign, with equal rates for the two signs so that means cancel
while second moments add. The resulting random walk is a martingale on the
simplex. When it reaches the boundary, one channel ends at probability 1
with frequency equal to its initial probability, which is the Born rule.
Reaching it is not assured: the slip rates scale with the unentangled
fraction f0, and with advancing fields f0 -> 0 as the fronts fill the
box, so a run can stall for good with p inside the simplex and time out
(189 of 200 seeded two-channel runs at rate_calibration 500 did).

The per-collision slip rate is not fixed by first principles beyond the
amplitude; ``rate_calibration`` scales it, and
``variance_matched_rate_scale`` returns the value that makes the process
variance agree with the quoted per-step moment formulas at a reference
point, which is what the diffusion-limit comparison uses.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from lecollapse._csr import bind_dia_matvec
from lecollapse.wave import Grid, KineticParams, cell_averages, cell_counts
# the benchmark tracer times the field step through this binding's name
from lecollapse.wave import reaction_diffusion as _laplacian
from lecollapse.wave import seed_field, step_operator

__all__ = [
    "W_CEILING",
    "MAX_CHANNELS",
    "DegenerateStateError",
    "AggregationError",
    "SmallNumbersWarning",
    "philox_stream",
    "probability_vector",
    "SlipParams",
    "slip_delta",
    "variance_matched_rate_scale",
    "CollapseSetup",
    "RunResult",
    "EnsembleResult",
    "run_collapse",
    "run_ensemble",
    "BornStatistics",
    "born_statistics",
    "estimate_collapse_time",
]

# largest incoherence strength in the random-matrix limit
W_CEILING = 4.0 / (3.0 * np.pi)
# the slip step closes a row to an exact zero sum only for K < 8
# (_slip_step), so CollapseSetup and slip_delta refuse more channels
MAX_CHANNELS = 7

# a frozen background draws about _DRAW_BUDGET Poisson counts per shard
# and call, in blocks of at most _BLOCK_MAX steps; an int seed splits its
# runs into shards of _SHARD_RUNS, each on its own stream
_DRAW_BUDGET, _BLOCK_MAX, _SHARD_RUNS = 2**15, 128, 256


class DegenerateStateError(RuntimeError):
    """Every channel was absorbed in the same update."""


class AggregationError(ValueError):
    """Run results cannot be aggregated into one statistic."""


class SmallNumbersWarning(RuntimeWarning):
    """A per-cell Poisson mean left the rare-event regime (mu > 0.1)."""


def philox_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for (seed, stream).

    All randomness in the package flows from one 64-bit seed; independent
    streams (one per shard of an ensemble, or per subsystem) are obtained
    by putting the stream index in the second Philox key word, so any
    subset of streams can be drawn in parallel and reproduced bit for bit.
    """
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_channels(k: int) -> None:
    if k > MAX_CHANNELS:
        raise ValueError(f"got {k} channels; the slip step takes at most "
                         f"{MAX_CHANNELS} channels (exact zero sums need K < 8)")


def probability_vector(p, name: str = "probabilities") -> np.ndarray:
    """Validate and return a channel probability vector as float64.

    ``name`` is how error messages refer to the vector, e.g. ``"p0"``.
    """
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must form a nonempty 1d vector")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    if (arr < 0.0).any():
        raise ValueError(f"{name} must be nonnegative")
    if abs(arr.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} must sum to 1, got {float(arr.sum())!r}")
    return arr


@dataclass(frozen=True)
class SlipParams:
    """Slip strength and coherent-cell geometry.

    w is the incoherence strength (bounded by 4/(3 pi) unless the ceiling
    is overridden), n_a the atom density, lam and tau the mean free path
    and time. n_c, the atoms per coherent cell, is derived as n_a lam^3
    and is not a constructor argument.
    rate_calibration scales the slip rate per cell (an order-of-magnitude
    knob, see the module docstring) and absorb_floor is the probability
    below which a channel is treated as reaching exactly zero: jumps are
    multiplicative near the boundary, so a literal zero is unreachable, the
    floor must be positive, and it sets the resolution of the final jump.
    The Born bias this introduces is at most the floor itself.
    """

    w: float
    tau: float
    lam: float
    n_a: float
    n_c: float = field(init=False)
    rate_calibration: float = 1.0
    absorb_floor: float = 1e-9
    w_ceiling: float = W_CEILING

    def __post_init__(self):
        # range checks are written so that NaN fails them too
        if not all(0.0 < x < math.inf for x in (self.tau, self.lam, self.n_a)):
            raise ValueError("tau, lam and n_a must be positive and finite")
        if not 0.0 < self.w <= self.w_ceiling + 1e-12:
            raise ValueError(
                f"w = {self.w} outside (0, {self.w_ceiling}]; the ceiling "
                f"4/(3 pi) can be overridden via w_ceiling"
            )
        object.__setattr__(self, "n_c", self.n_a * self.lam**3)
        if not self.n_c >= 1.0:
            raise ValueError(f"n_c = {self.n_c} must be at least 1")
        if not 0.0 < self.rate_calibration < math.inf:
            raise ValueError("rate_calibration must be positive and finite")
        if not 0.0 < self.absorb_floor < 1.0:
            raise ValueError("absorb_floor must lie strictly between 0 and 1")


def slip_delta(p, j: int, f_j: float, f_0: float, params: SlipParams,
               sign: int) -> np.ndarray:
    """Probability transfer of a single slip on channel ``j``.

    delta_j = sign * W p_j (1 - p_j) f_j f_0 / (2 N_c) and every other
    channel loses sign * W p_j p_k f_j f_0 / (2 N_c). This is the
    trajectory update ``_slip_step`` for one slip: the components sum to
    exactly 0.0, and channels at probability 0 stay untouched. At most
    MAX_CHANNELS channels.
    """
    p = probability_vector(p)
    _check_channels(p.size)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not (0.0 <= f_j <= 1.0 and 0.0 <= f_0 <= 1.0):
        raise ValueError("fractions must lie in [0, 1]")
    if not 0 <= j < p.size:
        raise ValueError(f"channel {j} outside 0..{p.size - 1}")
    g = np.zeros((1, p.size))
    g[0, j] = sign * params.w * f_j * f_0 / (2.0 * params.n_c)
    return _slip_step(p[None], g, params.absorb_floor)[1][0]


def _slip_rates(f_cells, f0_cells, params: SlipParams, dt: float):
    """Poisson mean per sign and per-slip kick of every cell.

    ``f_cells`` is (..., K, cells) and ``f0_cells`` (..., cells). The mean
    is the pair-collision rate per cell, n_a lam^3 / (2 tau), times
    rate_calibration * dt * f_j f_0 * W/2; one slip of sign s on channel j
    adds s * W f_j f_0 / (2 N_c) to the kick g_j that ``_slip_step``
    applies.
    """
    collisions = params.n_a * params.lam**3 / (2.0 * params.tau)
    rate = params.rate_calibration * collisions * dt * (params.w / 2.0)
    f0 = f0_cells[..., None, :]
    return rate * f_cells * f0, params.w * f_cells * f0 / (2.0 * params.n_c)


def _grouped_rates(f_cells, f0_cells, params: SlipParams, dt: float):
    """Poisson means and per-slip kicks per group of identical cells.

    Cells with equal (f_cells[:, c], f0_cells[c]) columns slip with equal
    amplitudes, and a sum of independent Poisson counts is Poisson with the
    summed mean, so a group takes one draw of the per-cell mean times its
    multiplicity, exact in law (the superposition step of tau-leaping).
    Returns (mu, amp, multiplicity), mu and amp of shape (K, groups).
    """
    cols, mult = np.unique(
        np.vstack([f_cells, f0_cells]), axis=1, return_counts=True
    )
    mu, amp = _slip_rates(cols[:-1], cols[-1], params, dt)
    return mu * mult, amp, mult


def _draw_kicks(shards, mu, amp, steps: int):
    """Poisson slip counts of ``steps`` steps at one step's means ``mu``.

    ``mu`` is (rows, K, cells or groups) and ``amp`` broadcasts against it.
    ``shards`` lists (generator, a, b): rows a to b - 1 take one draw of
    shape (steps, 2, b - a, ...) from that generator, and the shards are
    joined on the row axis, so a shard's numbers depend only on its own
    rows. Plus counts come before minus counts within a step, and a
    one-step block draws what a single step does. Returns each channel's
    slips and its net kick g for ``_slip_step``, both (steps, rows, K).
    """
    counts = np.concatenate([
        rng.poisson(mu[a:b], (steps, 2, b - a) + mu.shape[1:])
        for rng, a, b in shards
    ], axis=2)
    # one reduction over all rows; each row keeps its own axis and order
    slips = counts.sum(axis=(1, -1))
    g = ((counts[:, 0] - counts[:, 1]) * amp).sum(axis=-1)
    return slips, g


def _live_channels(p):
    """Live mask, flat index of each row's last live channel, live count."""
    live = p > 0.0
    last = p.shape[1] - 1 - np.argmax(live[:, ::-1], axis=1)
    return live, last + p.shape[1] * np.arange(len(p)), np.count_nonzero(live)


def _slip_step(p, g, floor: float, live=None):
    """Apply one step of slips to every row of ``p``; returns (q, delta).

    ``g[r, j]`` is row r's net kick on channel j: signed slip counts times
    their per-slip kicks, summed over cells. delta = p * (g - sum_k g_k p_k)
    sums the single-slip transfers (``slip_delta``) at the incoming p.
    Closed on its last live channel, a row sums to exactly 0.0: numpy sums
    rows of K < 8 left to right (callers keep K within MAX_CHANNELS). But
    q = p + delta rounds: sum q is 1 only to about one unit roundoff per
    step. Channels at 0 stay at 0; a live channel driven to or below
    ``floor`` becomes 0 and its row is renormalized (delta is the increment
    before that). ``live`` is ``_live_channels(p)``, which a caller can
    keep until a channel absorbs.
    """
    live, last, n_live = _live_channels(p) if live is None else live
    delta = np.multiply(g, p)
    np.subtract(g, delta.sum(axis=1, keepdims=True), out=delta)
    delta *= p
    closing = delta.reshape(-1)  # a view: delta is fresh and contiguous
    closing[last] = 0.0
    closing[last] -= delta.sum(axis=1)
    q = p + delta
    # fewer live channels above the floor than live ones: some absorbed
    if np.count_nonzero(q > floor) < n_live:
        hit = (q <= floor) & live
        q[hit] = 0.0
        hit_rows = hit.any(axis=1)
        totals = q[hit_rows].sum(axis=1)
        if (totals <= 0.0).any():
            raise DegenerateStateError("every channel was absorbed in one update")
        q[hit_rows] /= totals[:, None]
    return q, delta


def variance_matched_rate_scale(params: SlipParams, channels: int) -> float:
    """rate_calibration that equates process and formula variances.

    The compound-Poisson walk has per-time variance proportional to
    (W f f0)^3 p^2 (...) while the quoted formula is linear in W f f0 and
    p(1 - p); the two agree at the uniform reference point p = 1/K with
    fields f = 0.4, f0 = 0.6 when the rate carries the factor returned
    here, 8 K / (W^2 (f f0)^2).
    """
    if channels < 2:
        raise ValueError("need at least two channels")
    return 8.0 * channels / (params.w**2 * (0.4 * 0.6) ** 2)


@dataclass(frozen=True)
class CollapseSetup:
    """Everything one collapse trajectory needs except the seed.

    Channel fields start either from per-channel seed regions (fronts then
    grow and compete) or, with ``f_init``, from a uniform level on every
    channel. ``advance_fields`` selects the operator-split evolution
    (fields first, slips second); switching it off freezes the fields and
    the unentangled fraction at their initial values, which is the
    time-independent background the diffusion-limit comparison assumes.
    """

    kinetics: KineticParams
    slips: SlipParams
    grid: Grid
    p0: tuple[float, ...]
    dt: float
    max_steps: int
    seed_regions: tuple | None = None
    f_init: float | None = None
    advance_fields: bool = True
    record_every: int = 0

    def __post_init__(self):
        p0 = probability_vector(self.p0, "p0")
        if p0.size < 2:
            raise ValueError("p0 needs at least two channels")
        _check_channels(p0.size)
        object.__setattr__(self, "p0", tuple(float(x) for x in p0))
        if abs(self.kinetics.lam - self.slips.lam) > 1e-12 * self.kinetics.lam:
            raise ValueError("kinetics and slips disagree on lam")
        if abs(self.kinetics.tau - self.slips.tau) > 1e-12 * self.kinetics.tau:
            raise ValueError("kinetics and slips disagree on tau")
        self.grid.check_resolution(self.kinetics)
        cell_counts(self.grid, self.slips.lam)  # the slips sample lam cells
        if (self.seed_regions is None) == (self.f_init is None):
            raise ValueError("give either seed_regions or f_init, not both")
        if self.seed_regions is not None:
            if len(self.seed_regions) != p0.size:
                raise ValueError("need one seed region per channel")
            # seed_field rejects a region that covers no cell, now, not mid-run
            self.initial_fields()
        if self.f_init is not None and not 0.0 <= self.f_init <= 1.0:
            raise ValueError("f_init must lie in [0, 1]")
        if not self.max_steps >= 1:
            raise ValueError("max_steps must be at least 1")
        if not 0.0 < self.dt <= self.slips.tau:
            raise ValueError("dt must lie in (0, tau]")
        if self.advance_fields and self.dt > self.grid.monotone_limit(
            self.kinetics
        ) * (1.0 + 1e-12):
            raise ValueError(
                "dt exceeds the monotone field-step bound "
                f"{self.grid.monotone_limit(self.kinetics)}"
            )
        if not self.record_every >= 0:
            raise ValueError("record_every must be nonnegative")

    @property
    def channels(self) -> int:
        return len(self.p0)

    def initial_fields(self) -> np.ndarray:
        if self.f_init is not None:
            return np.full((self.channels,) + self.grid.shape, float(self.f_init))
        return np.stack(
            [seed_field(self.grid, region) for region in self.seed_regions]
        )


@dataclass
class RunResult:
    """Outcome of one collapse trajectory.

    ``p_final`` is p after the run's last step: the winner's vertex for a
    collapsed run, where p stopped for one that timed out. The engine
    always sets it. ``trajectory`` holds (t, p_1, .., p_K) rows every
    ``record_every`` steps, at absorption and at a timeout, if the setup
    records, so its last row is always p_final.
    """

    winner: int | None
    collapse_time: float | None
    slip_count: int
    seed: int
    p0: tuple[float, ...]
    status: str
    p_final: np.ndarray | None = None
    trajectory: np.ndarray | None = None


@dataclass
class EnsembleResult:
    """Batch of trajectories plus optional ensemble snapshots."""

    results: list[RunResult]
    checkpoint_steps: tuple[int, ...] = ()
    checkpoint_p: np.ndarray | None = None  # (len(steps), runs, channels)


def _cell_means(f, p, grid: Grid, lam: float):
    """Cell means of the channel fields and of the unentangled fraction.

    ``f`` is (runs, K) + grid.shape and ``p`` is (runs, K); returns
    f_cells of shape (runs, K, cells) and f0_cells of shape (runs, cells),
    with f0 = 1 - sum_k p_k f_k averaged per cell and clamped to [0, 1] in
    place (np.clip's bytes: 1 - x is never -0.0). The slip rates and the
    Fokker-Planck overlaps get their cell means only from here.
    """
    f0 = 1.0 - np.einsum("rk,rk...->r...", p, f)
    f_cells, f0_cells = cell_averages(f, grid, lam), cell_averages(f0, grid, lam)
    np.maximum(f0_cells, 0.0, out=f0_cells)
    np.minimum(f0_cells, 1.0, out=f0_cells)
    return f_cells, f0_cells


def _field_step(f, p, rate: float, stencil):
    """One explicit step of every run's coupled channel fields.

    ``f`` is (runs, K) + grid.shape and ``p`` is (runs, K); ``rate`` is
    dt / tau and ``stencil`` the DIA kernel bound to the wave's
    ``step_operator`` for at least runs * K blocks (``bind_dia_matvec``),
    so one kernel call steps every run and channel, each field with the
    bytes of ``kpp_step``'s one-field call. Each f_k diffuses and grows at
    f_k f0 / tau into its run's unentangled fraction
    f0 = 1 - sum_k p_k f_k, so channels compete for the same untouched
    atoms: ``wave.reaction_diffusion`` with partner f0, floored at 0 so
    that rounding in the sum cannot pull a saturated field below 1.
    Channels at p_k = 0 (absorbed) keep their fields. The caller keeps dt
    within the monotone bound.
    """
    f0 = 1.0 - np.einsum("rk,rk...->r...", p, f)
    np.maximum(f0, 0.0, out=f0)
    new_f = _laplacian(f, f0[:, None], rate, stencil, np.empty(f.shape))
    frozen = p == 0.0
    if frozen.any():
        new_f[frozen] = f[frozen]
    return new_f


def _evolve_batch(setup: CollapseSetup, seed, n_runs: int,
                  checkpoint_steps: tuple[int, ...]) -> EnsembleResult:
    """Shared trajectory loop; active runs are compacted as they absorb.

    The runs form a row of shards, each on one stream (``run_ensemble``).
    Each step advances the fields (``_field_step`` on the wave's step
    operator, bound once per call for every run and channel), works out
    the slip rates from their cell means (``_cell_means``,
    ``_slip_rates``), draws per-cell Poisson counts of both signs, one
    call per shard (``_draw_kicks``), and updates p (``_slip_step``). On a frozen background the rates are worked out
    once, cells with equal (f_cell, f0_cell) share one draw
    (``_grouped_rates``) and a call draws a block of B steps:
    ``_DRAW_BUDGET`` over the counts a full shard takes per step, at most
    ``_BLOCK_MAX``, set once per run and cut only by the steps left.
    Advancing fields draw one step per call. Poisson counts are
    independent, so both are exact in law. A channel absorbed before a
    block gets a zero mean; one that absorbs in it, and a run that ends in
    it, take none of the block's remaining slips and kicks.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    if isinstance(seed, (int, np.integer)):
        seeds, width = [seed] * n_runs, min(_SHARD_RUNS, n_runs)
        streams = [philox_stream(seed, s) for s in range(-(-n_runs // width))]
    else:
        seeds, width = list(seed), 1
        if len(seeds) != n_runs:
            raise ValueError(
                f"got {len(seeds)} seeds for {n_runs} runs; need one per run"
            )
        streams = [philox_stream(s, 0) for s in seeds]
    shard_of = np.arange(n_runs) // width
    kin, slips, grid = setup.kinetics, setup.slips, setup.grid
    base = setup.initial_fields()
    p = np.tile(np.asarray(setup.p0), (n_runs, 1))
    gids = np.arange(n_runs)  # original run id of each active row
    p_store = p.copy()  # latest known p of every run, absorbed or not
    winner = np.full(n_runs, -1, dtype=np.int64)
    t_abs = np.full(n_runs, np.nan)
    slip_counts = np.zeros(n_runs, dtype=np.int64)
    if setup.advance_fields:
        f = np.broadcast_to(base[None], (n_runs,) + base.shape).copy()
        rate, stencil = np.array(setup.dt / kin.tau), bind_dia_matvec(
            step_operator(grid, kin, setup.dt), p.size)
        mult = 1
    else:
        f_cells, f0_cells = _cell_means(base[None], p[:1], grid, slips.lam)
        mu_base, amp, mult = _grouped_rates(
            f_cells[0], f0_cells[0], slips, setup.dt
        )
        block_max = max(1, min(_BLOCK_MAX,
                               _DRAW_BUDGET // (2 * mu_base.size * width)))
    checkpoints = sorted(set(int(s) for s in checkpoint_steps))
    snaps = [] if checkpoints else None
    cp_iter = iter(checkpoints)
    next_cp = next(cp_iter, None)
    every = setup.record_every
    # trajectory frames: (time, run ids, their p), one per recording step
    frames = [(0.0, gids, p.copy())] if every else None
    warned = False
    live = None  # _live_channels(p), kept until a channel absorbs
    shards = None  # _draw_kicks' (stream, a, b) rows, kept until a run ends

    step = 0
    while step < setup.max_steps and p.shape[0]:
        if setup.advance_fields:
            f = _field_step(f, p, rate, stencil)
            f_cells, f0_cells = _cell_means(f, p, grid, slips.lam)
            mu_base, amp = _slip_rates(f_cells, f0_cells, slips, setup.dt)
            block = 1
        else:
            block = min(block_max, setup.max_steps - step)
        live = live or _live_channels(p)  # none absorbed: mu_base as it is
        mu = (mu_base if setup.advance_fields and live[2] == p.size
              else np.where((p == 0.0)[:, :, None], 0.0, mu_base))
        # the rare-event threshold applies per cell, not per merged group
        if not warned and (mu > 0.1 * mult).any():
            warnings.warn(
                f"Poisson mean {(mu / mult).max():.3g} per cell at step "
                f"{step + 1}: slips are aggregated per step, not individually "
                f"resolved (each step's update stays exactly zero-sum)",
                SmallNumbersWarning, stacklevel=3,
            )
            warned = True
        if shards is None:  # rows stay in run order, so shards contiguous
            owner, first = np.unique(shard_of[gids], return_index=True)
            shards = list(zip([streams[s] for s in owner], first,
                              np.append(first[1:], len(gids))))
        n_slips, kicks = _draw_kicks(shards, mu, amp, block)
        taken, drawn_for = np.arange(len(p)), gids  # block row of each row
        for b in range(block):
            step += 1
            live = live or _live_channels(p)
            g = kicks[b] if taken.size == kicks.shape[1] else kicks[b, taken]
            try:
                p, _ = _slip_step(p, g, slips.absorb_floor, live)
            except DegenerateStateError as exc:
                raise DegenerateStateError(f"{exc} at step {step}") from None
            done = None
            if np.count_nonzero(p) < live[2]:  # a channel absorbed
                ended = np.count_nonzero(p, axis=1) == 1
                # absorbed channels and ended runs take no more of the block
                rows, cols = np.nonzero((live[0] & (p == 0.0)) | ended[:, None])
                kicks[b + 1:, taken[rows], cols] = 0.0
                n_slips[b + 1:, taken[rows], cols] = 0
                live = None
                if ended.any():
                    done, ids = ended, gids[ended]
                    winner[ids] = np.argmax(p[done], axis=1)
                    t_abs[ids] = step * setup.dt
                    p_store[ids] = p[done]
            if every and (step % every == 0 or done is not None):
                rec = done if step % every else slice(None)
                frames.append((step * setup.dt, gids[rec], p[rec].copy()))
            if next_cp is not None and step >= next_cp:
                p_store[gids] = p
                while next_cp is not None and step >= next_cp:
                    snaps.append(p_store.copy())
                    next_cp = next(cp_iter, None)
            if done is not None:
                keep = ~done
                p, gids, taken = p[keep], gids[keep], taken[keep]
                shards = None
                if setup.advance_fields:
                    f = f[keep]
                if not len(p):
                    break
        slip_counts[drawn_for] += n_slips.sum(axis=(0, 2))
    if p.shape[0]:
        p_store[gids] = p
        if every and step % every:  # the budget ran out between frames
            frames.append((step * setup.dt, gids, p.copy()))
    while next_cp is not None:
        snaps.append(p_store.copy())
        next_cp = next(cp_iter, None)

    trajectories = [None] * n_runs
    if every:
        runs = np.concatenate([ids for _, ids, _ in frames])
        rows = np.column_stack([
            np.concatenate([np.full(ids.size, t) for t, ids, _ in frames]),
            np.concatenate([pv for _, _, pv in frames]),
        ])
        order = np.argsort(runs, kind="stable")  # each run's rows in time order
        bounds = np.searchsorted(runs[order], np.arange(n_runs + 1))
        trajectories = [rows[order[a:b]] for a, b in zip(bounds, bounds[1:])]
    results = [
        RunResult(winner=int(winner[r]) if winner[r] >= 0 else None,
                  collapse_time=float(t_abs[r]) if winner[r] >= 0 else None,
                  slip_count=int(slip_counts[r]), seed=seeds[r], p0=setup.p0,
                  status="collapsed" if winner[r] >= 0 else "timeout",
                  p_final=p_store[r], trajectory=trajectories[r])
        for r in range(n_runs)
    ]
    return EnsembleResult(
        results=results,
        checkpoint_steps=tuple(checkpoints),
        checkpoint_p=np.array(snaps) if snaps is not None else None,
    )


def run_collapse(setup: CollapseSetup, seed: int) -> RunResult:
    """One trajectory: advance fields, sample slips, apply, repeat.

    Deterministic given (setup, seed), and equal bit for bit to
    ``run_ensemble(setup, (seed,), 1).results[0]``. If the step budget
    runs out first the result carries status "timeout" and the partial
    trajectory, which is recorded every ``setup.record_every`` steps and
    after the last one.
    """
    return _evolve_batch(setup, (seed,), 1, ()).results[0]


def run_ensemble(
    setup: CollapseSetup,
    seed,
    n_runs: int,
    checkpoint_steps: tuple[int, ...] = (),
) -> EnsembleResult:
    """Vectorized batch of independent trajectories.

    The runs form shards, contiguous run ranges on one Philox stream each.
    An int ``seed`` gives shards of 256 runs, shard s on
    ``philox_stream(seed, s)``, so a complete shard's runs depend on
    neither ``n_runs`` nor any other shard. A sequence of ``n_runs`` seeds
    gives one-run shards on ``philox_stream(seed[r], 0)``, so run r equals
    ``run_collapse(setup, seed[r])`` bit for bit (a sweep is one such
    batch). On a frozen background (``advance_fields=False``) cells with
    equal field values share one draw, and a Poisson call per shard serves
    a block of up to 128 steps, set once per run by the shard width; the
    law of every trajectory is the same either way. Each step's increment
    sums to exactly 0.0, but sum p is 1 only to rounding.
    Each result's ``p_final`` is its p after its last step, so no
    checkpoint is needed for where the runs ended. ``checkpoint_steps``
    asks for snapshots of p after the given steps (absorbed runs hold
    their last value). Every run records its trajectory if
    ``setup.record_every`` > 0.
    """
    return _evolve_batch(setup, seed, n_runs, tuple(checkpoint_steps))


@dataclass(frozen=True)
class BornStatistics:
    """Winner frequencies and Born tests, plus all-run means of the final p.

    The frequencies, Wilson intervals and chi-square count only collapsed
    runs (``n_resolved``), so with any timeout they are conditional on
    collapse (``conditional_on_collapse``). ``p_final_mean`` and its
    standard error average the final p over every run, collapsed or not.
    """

    n_results: int
    n_resolved: int
    expected: tuple[float, ...]
    counts: tuple[int, ...]
    frequencies: tuple[float | None, ...]  # each None if none collapsed
    wilson_low: tuple[float, ...] | None
    wilson_high: tuple[float, ...] | None
    chi_square: float | None
    p_value: float | None
    collapsed_fraction: float
    conditional_on_collapse: bool
    p_final_mean: tuple[float, ...]
    p_final_se: tuple[float, ...] | None  # None for a single run


def _wilson_chi_square(counts: np.ndarray, p0: np.ndarray) -> tuple:
    """95% Wilson intervals and the chi-square test of counts against p0."""
    resolved = int(counts.sum())
    freq = counts / resolved
    z = 1.959963984540054  # 95%
    denom = 1.0 + z**2 / resolved
    center = (freq + z**2 / (2 * resolved)) / denom
    half = (
        z * np.sqrt(freq * (1.0 - freq) / resolved + z**2 / (4.0 * resolved**2))
        / denom
    )
    expected_counts = p0 * resolved
    live = expected_counts > 0.0
    if (counts[~live] > 0).any():
        stat, pval = float("inf"), 0.0
    else:
        stat = float(
            (((counts[live] - expected_counts[live]) ** 2)
             / expected_counts[live]).sum()
        )
        dof = int(live.sum()) - 1
        if dof >= 1:
            from scipy.special import chdtrc  # chi-square survival function

            pval = float(chdtrc(dof, stat))
        else:
            pval = 1.0 if stat == 0.0 else 0.0
    return (tuple(np.clip(center - half, 0.0, 1.0).tolist()),
            tuple(np.clip(center + half, 0.0, 1.0).tolist()), stat, pval)


def born_statistics(results) -> BornStatistics:
    """Aggregate a non-empty ensemble of runs that share one p0.

    Counts, frequencies and the all-run means of ``p_final`` come for any
    size. Runs that timed out count in n_results but not in the
    frequencies, which are None if no run collapsed. The 95% Wilson
    intervals and the chi-square test of the counts against
    p0 * n_resolved need 100 results and a collapsed run, and are None
    otherwise. The p-value comes from ``scipy.special.chdtrc``, imported
    at the first test: the engine itself runs on numpy alone. No results,
    mixed p0 or a result without ``p_final`` raise AggregationError.
    """
    results = list(results)
    if not results:
        raise AggregationError("no results to aggregate")
    first = results[0].p0
    for r in results:
        if r.p0 != first:
            raise AggregationError("results mix different initial conditions")
        if r.p_final is None:
            raise AggregationError("a result carries no p_final")
    p0, n = probability_vector(first), len(results)
    counts = np.bincount([r.winner for r in results if r.status == "collapsed"],
                         minlength=p0.size)
    resolved = int(counts.sum())
    final = np.array([r.p_final for r in results], dtype=np.float64)
    se = final.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else None
    low, high, chi_square, p_value = (
        _wilson_chi_square(counts, p0) if n >= 100 and resolved
        else (None,) * 4)
    return BornStatistics(
        n_results=n, n_resolved=resolved, expected=tuple(p0.tolist()),
        counts=tuple(counts.tolist()),
        frequencies=tuple(c / resolved if resolved else None
                          for c in counts.tolist()),
        wilson_low=low, wilson_high=high, chi_square=chi_square,
        p_value=p_value, collapsed_fraction=resolved / n,
        conditional_on_collapse=resolved < n,
        p_final_mean=tuple(final.mean(axis=0).tolist()),
        p_final_se=None if se is None else tuple(se.tolist()),
    )


def estimate_collapse_time(
    params: SlipParams, l_system: float, electron_cloud: float | None = None
) -> float:
    """Closed-form collapse time scale tau n_a lam^5 / (L^2 W).

    ``electron_cloud`` (a size Delta) applies the refinement factor
    lam / Delta for detectors sensitive at the electron-cloud scale.
    """
    if not 0.0 < l_system < math.inf:
        raise ValueError("l_system must be positive and finite")
    tau_c = params.tau * params.n_a * params.lam**5 / (l_system**2 * params.w)
    if electron_cloud is not None:
        if not 0.0 < electron_cloud < math.inf:
            raise ValueError("electron_cloud must be positive and finite")
        tau_c *= params.lam / electron_cloud
    return tau_c
