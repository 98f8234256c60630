"""Slip mechanics, Poisson sampling and the collapse random walk."""

import dataclasses
import hashlib
import warnings
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lecollapse.engine as engine
from lecollapse.engine import (
    AggregationError,
    CollapseSetup,
    RunResult,
    SlipParams,
    SmallNumbersWarning,
    W_CEILING,
    _cell_means,
    _draw_kicks,
    _grouped_rates,
    _slip_rates,
    _slip_step,
    born_statistics,
    estimate_collapse_time,
    philox_stream,
    probability_vector,
    run_collapse,
    run_ensemble,
    slip_delta,
    variance_matched_rate_scale,
)
from lecollapse.fokker_planck import diffusion_coefficients, field_summary
from lecollapse.wave import Grid, KineticParams


def desk_params(**kw):
    kw.setdefault("w", 0.4)
    kw.setdefault("tau", 1.0)
    kw.setdefault("lam", 1.0)
    kw.setdefault("n_a", 100.0)
    return SlipParams(**kw)


# field_summary's first three arguments, in its order
Fields = namedtuple("Fields", "grid f p_ref")


def uniform_fields(p_ref, level=0.4, extent=8.0, spacing=0.25):
    grid = Grid(extent=(extent,), spacing=spacing)
    p_ref = np.asarray(p_ref, dtype=float)
    return Fields(grid, np.full((p_ref.size,) + grid.shape, level), p_ref)


# --- slip deltas ---


def test_slip_delta_matches_the_worked_example():
    # W = 0.4, f_j = f_0 = 0.5, N_c = 100, p = (1/2, 1/2):
    # delta_1 = 0.4 * 0.25 * 0.25 / 100 = 1.25e-4
    params = desk_params()
    delta = slip_delta((0.5, 0.5), 0, 0.5, 0.5, params, +1)
    assert abs(delta[0] - 1.25e-4) < 1e-12
    assert abs(delta[1] + 1.25e-4) < 1e-12


def test_slip_delta_sums_to_exactly_zero():
    params = desk_params(n_a=7.0)
    rng = np.random.default_rng(3)
    for _ in range(200):
        raw = rng.random(4)
        p = raw / raw.sum()
        j = int(rng.integers(4))
        delta = slip_delta(p, j, rng.random(), rng.random(), params, 1)
        assert delta.sum() == 0.0


def test_slip_delta_reverses_with_the_sign():
    params = desk_params()
    p = (0.2, 0.3, 0.5)
    up = slip_delta(p, 2, 0.6, 0.3, params, +1)
    down = slip_delta(p, 2, 0.6, 0.3, params, -1)
    assert np.array_equal(up, -down)


def test_slip_delta_vanishes_on_absorbed_and_certain_channels():
    params = desk_params()
    assert np.array_equal(slip_delta((1.0, 0.0), 0, 0.5, 0.5, params, 1),
                          np.zeros(2))
    assert np.array_equal(slip_delta((1.0, 0.0), 1, 0.5, 0.5, params, 1),
                          np.zeros(2))


def test_slip_delta_rejects_bad_arguments():
    params = desk_params()
    with pytest.raises(ValueError):
        slip_delta((0.5, 0.5), 0, 1.5, 0.5, params, +1)
    with pytest.raises(ValueError):
        slip_delta((0.5, 0.5), 0, 0.5, 0.5, params, 2)
    with pytest.raises(ValueError):
        slip_delta((0.5, 0.5), 5, 0.5, 0.5, params, 1)
    with pytest.raises(ValueError):
        slip_delta((0.5, 0.6), 0, 0.5, 0.5, params, 1)


NAN = float("nan")

NON_FINITE = {
    "tau=nan": lambda: desk_params(tau=NAN),
    "lam=nan": lambda: desk_params(lam=NAN),
    "n_a=nan": lambda: desk_params(n_a=NAN),
    "n_c=nan": lambda: desk_params(n_c=NAN),
    "rate_calibration=nan": lambda: desk_params(rate_calibration=NAN),
    "rate_calibration=inf": lambda: desk_params(rate_calibration=np.inf),
    "tau=inf": lambda: desk_params(tau=np.inf),
    "kinetic lam=nan": lambda: KineticParams(lam=NAN, tau=1.0),
    "kinetic tau=inf": lambda: KineticParams(lam=1.0, tau=np.inf),
    "spacing=nan": lambda: Grid(extent=(8.0,), spacing=NAN),
    "extent=inf": lambda: Grid(extent=(np.inf,), spacing=0.25),
    "p0=nan,1": lambda: frozen_setup(p0=(NAN, 1.0)),
    "max_steps=nan": lambda: frozen_setup(max_steps=NAN),
    "record_every=nan": lambda: frozen_setup(record_every=NAN),
    "p_ref=nan,1": lambda: field_summary(*uniform_fields((NAN, 1.0)),
                                         desk_params()),
    "f=nan": lambda: field_summary(*uniform_fields((0.5, 0.5), level=NAN),
                                   desk_params()),
}


@pytest.mark.parametrize("build", NON_FINITE.values(), ids=NON_FINITE)
def test_constructors_reject_non_finite_values(build):
    with pytest.raises(ValueError):
        build()


def test_params_validation():
    with pytest.raises(ValueError):
        desk_params(w=0.9)  # above the 4/(3 pi) ceiling
    desk_params(w=0.9, w_ceiling=1.0)
    with pytest.raises(ValueError):
        desk_params(n_c=5.0)  # inconsistent with n_a * lam^3
    assert desk_params(n_c=100.0).n_c == 100.0
    with pytest.raises(ValueError):
        desk_params(n_a=0.1)  # n_c below one atom per cell
    assert 0.42 < W_CEILING < 0.425


def test_a_given_n_c_is_stored_as_n_a_lam_cubed():
    # a given n_c only cross-checks N_c = n_a lam^3; the value kept is the
    # derived one, so a config's objects match whether n_c was given or not
    n_a, lam = 100.0, 1.3
    given = n_a * lam**3 * (1 + 1e-12)
    assert given != n_a * lam**3
    assert desk_params(lam=lam, n_c=given).n_c == n_a * lam**3


# --- slip counts ---


def cell_rates(fields, params, dt):
    """Per-cell Poisson means and per-slip kicks, each of shape (K, cells)."""
    f_cells, f0_cells = _cell_means(fields.f[None], fields.p_ref[None],
                                    fields.grid, params.lam)
    return _slip_rates(f_cells[0], f0_cells[0], params, dt)


def test_sampled_rates_match_the_poisson_mean():
    # pooled over all (row, channel, cell) streams of each sign, the
    # empirical mean must sit within 3 standard errors of the formula
    params = desk_params(rate_calibration=2.0)
    fields = uniform_fields((0.5, 0.5))
    dt = 0.01
    mu_formula = (
        params.rate_calibration
        * (params.n_a * params.lam**3 / (2 * params.tau))
        * dt
        * (params.w / 2)
        * 0.4
        * 0.6
    )
    assert 0.01 < mu_formula < 0.1
    mu, amp = cell_rates(fields, params, dt)
    assert mu.shape == (2, 8)
    assert np.allclose(mu, mu_formula, rtol=1e-12, atol=0)
    rows, steps = 5_000, 4
    slips, g = _draw_kicks([(philox_stream(12, 0), 0, rows)],
                           np.broadcast_to(mu, (rows,) + mu.shape), amp, steps)
    assert slips.shape == g.shape == (steps, rows, 2)
    # each (step, row, channel) pools 2 signs times 8 cells
    n = slips.size * 16
    assert abs(slips.sum() / n - mu_formula) < 3 * np.sqrt(mu_formula / n)
    # equal rates for the two signs: the net kick has mean 0
    se = amp[0, 0] * np.sqrt(16 * mu_formula / g.size)
    assert abs(g.mean()) < 3 * se


def test_saturated_or_empty_fields_give_no_events():
    params = desk_params(rate_calibration=2000.0)
    # f_k identically zero: no entangled atoms to collide
    mu, amp = cell_rates(uniform_fields((0.5, 0.5), level=0.0), params, 0.5)
    assert not mu.any() and not amp.any()
    # f0 identically zero: no untouched atoms left
    mu, amp = cell_rates(uniform_fields((0.5, 0.5), level=1.0), params, 0.5)
    assert not mu.any() and not amp.any()


# --- applying slips ---


def test_slip_step_is_the_count_weighted_sum_of_slip_deltas():
    # hand-built counts (3 plus slips on channel 0 in cell 0, 2 minus slips
    # on channel 1 in cell 1, 1 plus slip on channel 2 in cell 5), all
    # taken at the incoming p: the trajectory update is the sum of
    # criterion 5's single-slip transfers
    params = desk_params()
    p = np.array([0.2, 0.3, 0.5])
    _, amp = cell_rates(uniform_fields(p), params, dt=0.0)
    counts = np.zeros((2, 1) + amp.shape, dtype=np.int64)
    counts[0, 0, 0, 0] = 3
    counts[1, 0, 1, 1] = 2
    counts[0, 0, 2, 5] = 1
    g = ((counts[0] - counts[1]) * amp).sum(axis=-1)
    q, delta = _slip_step(p[None], g, params.absorb_floor)
    expected = (
        p
        + 3 * slip_delta(p, 0, 0.4, 0.6, params, +1)
        + 2 * slip_delta(p, 1, 0.4, 0.6, params, -1)
        + slip_delta(p, 2, 0.4, 0.6, params, +1)
    )
    assert np.allclose(q[0], expected, rtol=0, atol=1e-15)
    assert delta.sum() == 0.0


def test_slip_steps_keep_p_on_the_simplex():
    params = desk_params(rate_calibration=500.0)
    fields = uniform_fields((0.25, 0.35, 0.4))
    mu, amp = cell_rates(fields, params, 5e-5)
    rng = philox_stream(21, 0)
    p = np.tile([0.25, 0.35, 0.4], (50, 1))
    for _ in range(200):
        _, g = _draw_kicks([(rng, 0, len(p))],
                           np.where((p == 0.0)[:, :, None], 0.0, mu), amp, 1)
        p, _ = _slip_step(p, g[0], params.absorb_floor)
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-14
        assert (p >= 0).all()


def test_absorption_is_permanent():
    params = desk_params(absorb_floor=1e-3)
    p = np.array([[0.3, 0.3, 0.4]])
    _, amp = cell_rates(uniform_fields(p[0]), params, dt=0.0)
    # a huge negative batch drives channel 0 through the floor
    g = np.array([[-100_000 * amp[0, 0], 0.0, 0.0]])
    p, _ = _slip_step(p, g, params.absorb_floor)
    assert p[0, 0] == 0.0 and abs(p.sum() - 1.0) < 1e-15
    rng = np.random.default_rng(2)
    for _ in range(50):
        p, _ = _slip_step(p, rng.normal(scale=0.05, size=p.shape),
                          params.absorb_floor)
        assert p[0, 0] == 0.0 and (p[0, 1:] > 0.0).all()


def test_slip_step_rows_sum_to_exactly_zero():
    rng = np.random.default_rng(17)
    for k in (2, 3, 9):
        p = rng.dirichlet(np.ones(k), size=2000)
        p[::7, 1] = 0.0  # some rows carry an absorbed channel
        p /= p.sum(axis=1, keepdims=True)
        g = rng.normal(scale=0.5, size=p.shape)
        q, delta = _slip_step(p, g, 1e-9)
        assert (delta.sum(axis=1) == 0.0).all()
        unclosed = p * (g - (g * p).sum(axis=1, keepdims=True))
        assert (unclosed.sum(axis=1) != 0.0).any()  # the closure is needed
        assert np.allclose(delta, unclosed, rtol=0, atol=1e-15)
        assert (q[p == 0.0] == 0.0).all() and (q >= 0.0).all()
        assert np.allclose(q.sum(axis=1), 1.0, rtol=0, atol=1e-14)


@st.composite
def _slip_cases(draw):
    """(p, g, floor): rows on the simplex with zeros, kicks of any scale."""
    rows, k = draw(st.integers(1, 4)), draw(st.integers(2, 7))
    weight = st.sampled_from([0.0, 1e-13, 1.0]) | st.floats(0.0, 1.0)
    w = draw(arrays(np.float64, (rows, k), elements=weight))
    w[w.sum(axis=1) == 0.0, 0] = 1.0
    scale = 10.0 ** draw(st.floats(-12.0, 1.0))
    g = scale * draw(arrays(np.float64, (rows, k), elements=st.floats(-1, 1)))
    floor = draw(st.floats(1e-12, 0.1, exclude_min=True, exclude_max=True))
    return w / w.sum(axis=1, keepdims=True), g, floor


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_slip_cases())
# no kick leaves a live channel exactly at the floor
@example(case=(np.array([[0.05, 0.95]]), np.zeros((1, 2)), 0.05))
def test_slip_step_keeps_rows_zero_sum_and_on_the_simplex(case):
    p, g, floor = case
    before = p.copy()
    q, delta = _slip_step(p, g, floor)
    assert p.tobytes() == before.tobytes()
    assert (delta.sum(axis=1) == 0.0).all()
    dead, live = p == 0.0, p > 0.0
    assert (q[dead] == 0.0).all() and (delta[dead] == 0.0).all()
    assert (q >= 0.0).all()
    # delta is the increment before absorption: at or below the floor a
    # live channel ends at 0, above it it stays live
    raw = p + delta
    assert (q[live & (raw <= floor)] == 0.0).all()
    assert (q[live & (raw > floor)] > 0.0).all()
    # the input's sum, q's rounding and a renormalization each take a
    # fraction of an ulp per channel; a row stays within K ulps of 1
    k = p.shape[1]
    assert (np.abs(q.sum(axis=1) - 1.0) <= k * np.finfo(float).eps).all()


def test_no_events_is_the_identity():
    rng = np.random.default_rng(8)
    p = rng.dirichlet(np.ones(3), size=500)
    p[::5, 0] = 0.0
    p /= p.sum(axis=1, keepdims=True)
    q, delta = _slip_step(p, np.zeros_like(p), 1e-9)
    assert np.array_equal(q, p) and q is not p
    assert not delta.any()


# --- moments ---


def step_moments(p, fields, params, dt):
    """Per-step covariance of the increments, face-value pair sums."""
    return dt * diffusion_coefficients(p, field_summary(*fields, params),
                                       params, pair_combination="sum")


def test_step_moments_against_a_hand_sum():
    # uniform fields make the overlap sum N_c * n_cells * f * f0
    params = desk_params()
    fields = uniform_fields((0.3, 0.7))
    dt = 1e-3
    s = 100.0 * 8 * 0.4 * 0.6
    cov = step_moments((0.3, 0.7), fields, params, dt)
    expect_var0 = 0.4 * 0.3 * 0.7 * dt * s / 100.0**2
    assert abs(cov[0, 0] - expect_var0) < 1e-15
    assert abs(cov[1, 1] - expect_var0) < 1e-15
    expect_cov = -0.4 * 0.3 * 0.7 * dt * (s + s) / 100.0**2
    assert abs(cov[0, 1] - expect_cov) < 1e-15
    cov_mean = dt * diffusion_coefficients(
        (0.3, 0.7), field_summary(*fields, params), params)
    assert abs(cov_mean[0, 1] - expect_cov / 2) < 1e-15


def test_variance_matched_rate_reproduces_the_formula_variance():
    # Monte Carlo second moments of one microstep, drawn and applied as
    # the trajectory loop does, against the formula. With the matched
    # rate the two agree at the reference point up to sampling error;
    # 2e4 steps put the standard error near 1%.
    params = desk_params(rate_calibration=1.0)
    scale = variance_matched_rate_scale(params, 2)
    assert abs(scale - 8 * 2 / (0.4**2 * 0.24**2)) < 1e-9
    params = desk_params(rate_calibration=scale)
    fields = uniform_fields((0.5, 0.5))
    dt = 1.2e-5
    p0 = np.array([0.5, 0.5])
    mu, amp = cell_rates(fields, params, dt)
    n = 20_000
    _, g = _draw_kicks([(philox_stream(17, 0), 0, n)],
                       np.broadcast_to(mu, (n,) + mu.shape), amp, 1)
    q, _ = _slip_step(np.tile(p0, (n, 1)), g[0], params.absorb_floor)
    deltas = q[:, 0] - 0.5
    var_mc = float((deltas**2).mean())
    cov_th = step_moments(p0, fields, params, dt)
    assert abs(var_mc / cov_th[0, 0] - 1.0) < 0.05
    assert abs(deltas.mean()) < 3 * np.sqrt(var_mc / n)
    assert cov_th[0, 1] < 0


# --- trajectories ---


def frozen_setup(**kw):
    kw.setdefault("kinetics", KineticParams(lam=1.0, tau=1.0))
    kw.setdefault(
        "slips",
        SlipParams(w=0.4, tau=1.0, lam=1.0, n_a=4.0, absorb_floor=1e-3,
                   rate_calibration=variance_matched_rate_scale(
                       SlipParams(w=0.4, tau=1.0, lam=1.0, n_a=4.0), 2)),
    )
    kw.setdefault("grid", Grid(extent=(32.0,), spacing=0.25))
    kw.setdefault("p0", (0.5, 0.5))
    kw.setdefault("dt", 5e-4)
    kw.setdefault("max_steps", 200_000)
    kw.setdefault("f_init", 0.4)
    kw.setdefault("advance_fields", False)
    return CollapseSetup(**kw)


def test_run_collapse_reaches_a_boundary_and_is_deterministic():
    setup = frozen_setup(record_every=200)
    a = run_collapse(setup, seed=5)
    b = run_collapse(setup, seed=5)
    assert a.status == "collapsed"
    assert a.winner in (0, 1)
    assert a.winner == b.winner
    assert a.collapse_time == b.collapse_time
    assert a.slip_count == b.slip_count
    assert np.array_equal(a.trajectory, b.trajectory)
    # trajectory rows are (t, p_1, .., p_K), truncated at absorption
    assert a.trajectory.shape[1] == 3
    assert a.trajectory[0, 0] == 0.0
    assert abs(a.trajectory[-1, 0] - a.collapse_time) < 1e-12
    assert set(np.round(a.trajectory[-1, 1:], 12)) == {0.0, 1.0}


def test_single_run_matches_the_ensemble_batch():
    # frozen runs draw blocks of steps; a lone run gets the same blocks
    # whether its seed comes as an int or as a one-seed sequence
    for p0 in ((0.5, 0.5), (0.2, 0.3, 0.5)):
        setup = frozen_setup(p0=p0, record_every=40)
        single = run_collapse(setup, seed=9)
        assert single.status == "collapsed"
        for seed in (9, (9,)):
            batch = run_ensemble(setup, seed, 1).results[0]
            assert (single.winner, single.collapse_time,
                    single.slip_count) == (batch.winner, batch.collapse_time,
                                           batch.slip_count)
            assert single.trajectory.tobytes() == batch.trajectory.tobytes()


def seeded_setup(p0=(0.3, 0.7), **kw):
    """Advancing fronts from one end region per channel, as in a sweep."""
    ends = [(0.0, 2.0), (30.0, 32.0), (15.0, 17.0)]
    kw.setdefault("slips", SlipParams(w=0.4, tau=1.0, lam=1.0, n_a=100.0,
                                      rate_calibration=2e4,
                                      absorb_floor=1e-5))
    kw.setdefault("dt", 0.02)
    kw.setdefault("max_steps", 20000)
    return frozen_setup(p0=p0, f_init=None, advance_fields=True,
                        seed_regions=tuple(ends[:len(p0)]), **kw)


@pytest.mark.parametrize("setup", [
    seeded_setup(record_every=3),
    # a short budget: some runs time out, the others absorb mid-batch
    seeded_setup(p0=(0.2, 0.3, 0.5), max_steps=270, record_every=7),
    frozen_setup(p0=(0.3, 0.7), record_every=50, dt=0.04, max_steps=20000,
                 slips=SlipParams(w=0.4, tau=1.0, lam=1.0, n_a=100.0,
                                  rate_calibration=5e3, absorb_floor=1e-5)),
], ids=["seeded", "k3-timeouts", "frozen"])
def test_seed_sequence_runs_equal_their_single_runs(setup):
    seeds = (4, 11, 0, 7)
    batch = run_ensemble(setup, seeds, len(seeds)).results
    statuses = set()
    for seed, got in zip(seeds, batch):
        want = run_collapse(setup, seed)
        assert got.seed == seed
        assert (got.winner, got.collapse_time, got.slip_count, got.status) \
            == (want.winner, want.collapse_time, want.slip_count,
                want.status)
        assert got.trajectory.tobytes() == want.trajectory.tobytes()
        statuses.add(got.status)
    if setup.channels == 3:
        assert statuses == {"collapsed", "timeout"}
    with pytest.raises(ValueError, match="one per run"):
        run_ensemble(setup, seeds, len(seeds) + 1)


def test_ensemble_mean_stays_at_the_initial_probabilities():
    setup = frozen_setup(p0=(0.3, 0.7), max_steps=1500)
    out = run_ensemble(setup, seed=31, n_runs=300,
                       checkpoint_steps=(500, 1000, 1500))
    assert out.checkpoint_p.shape == (3, 300, 2)
    eps = np.finfo(float).eps
    for step, snap in zip(out.checkpoint_steps, out.checkpoint_p):
        mean = snap[:, 0].mean()
        se = snap[:, 0].std(ddof=1) / np.sqrt(300)
        assert abs(mean - 0.3) < max(3 * se, 1e-3)
        # increments sum to exactly 0.0, but p + delta rounds: sum p may
        # drift from 1 by about one unit roundoff per step
        assert np.abs(snap.sum(axis=1) - 1.0).max() <= (step + 4) * eps


def test_timeout_reports_partial_state():
    setup = frozen_setup(max_steps=10, record_every=5)
    out = run_collapse(setup, seed=1)
    assert out.status == "timeout"
    assert out.winner is None and out.collapse_time is None
    assert out.trajectory is not None


def test_frozen_cells_are_grouped_exactly():
    setup = frozen_setup(f_init=None, seed_regions=((0, 2), (30, 32)),
                         p0=(0.3, 0.7))
    f_cells, f0_cells = _cell_means(
        setup.initial_fields()[None], np.array(setup.p0)[None], setup.grid,
        setup.slips.lam,
    )
    f_cells, f0_cells = f_cells[0], f0_cells[0]
    mu_cell, amp_cell = _slip_rates(f_cells, f0_cells, setup.slips, setup.dt)
    mu, amp, mult = _grouped_rates(f_cells, f0_cells, setup.slips, setup.dt)
    _, member = np.unique(np.vstack([f_cells, f0_cells]), axis=1,
                          return_inverse=True)
    assert 1 < mult.size < f0_cells.size
    assert np.array_equal(mult, np.bincount(member))
    # every cell of a group slips with the group's amplitude
    assert np.array_equal(amp[:, member], amp_cell)
    # the group means add up to the per-cell means, group by group and in
    # total for each channel
    summed = np.zeros_like(mu)
    np.add.at(summed, (slice(None), member), mu_cell)
    assert np.allclose(mu, summed, rtol=1e-12, atol=0)
    assert np.allclose(mu.sum(axis=1), mu_cell.sum(axis=1), rtol=1e-12,
                       atol=0)

    uniform = frozen_setup()
    f_cells, f0_cells = _cell_means(
        uniform.initial_fields()[None], np.array(uniform.p0)[None],
        uniform.grid, uniform.slips.lam,
    )
    mu, amp, mult = _grouped_rates(f_cells[0], f0_cells[0], uniform.slips,
                                   uniform.dt)
    assert mu.shape == (2, 1) and mult.tolist() == [f0_cells.size]


@pytest.mark.parametrize("advance_fields", [False, True])
def test_small_numbers_warning_tests_the_per_cell_mean(advance_fields):
    # the default box has a per-cell mean of 0.083 (0.087 at most once
    # fields advance); on the frozen background its 32 cells merge into
    # one draw of mean 2.7, which is no reason to warn
    setup = frozen_setup(max_steps=20, advance_fields=advance_fields)
    with warnings.catch_warnings():
        warnings.simplefilter("error", SmallNumbersWarning)
        run_ensemble(setup, seed=3, n_runs=4)
    hot = dataclasses.replace(setup, slips=dataclasses.replace(
        setup.slips, rate_calibration=2 * setup.slips.rate_calibration))
    with pytest.warns(SmallNumbersWarning, match="mean 0.167 per cell"):
        run_ensemble(hot, seed=3, n_runs=4)


def born_box(**kw):
    """The criterion 7/8 box: a frozen uniform background at 960 slips per
    cell, channel and sign per step, K = 3 unless p0 says otherwise."""
    kw.setdefault("p0", (0.2, 0.3, 0.5))
    kw.setdefault("slips", SlipParams(w=0.4, tau=1.0, lam=1.0, n_a=100.0,
                                      rate_calibration=1e4,
                                      absorb_floor=1e-5))
    kw.setdefault("dt", 0.04)
    kw.setdefault("max_steps", 20000)
    return frozen_setup(**kw)


def record_blocks(monkeypatch):
    """Record every block drawn, as drawn, and every step's (p, g)."""
    blocks, steps = [], []
    draw, step = engine._draw_kicks, engine._slip_step

    def drawing(shards, mu, amp, n):
        slips, g = draw(shards, mu, amp, n)
        blocks.append((slips.copy(), g.copy()))
        return slips, g

    def stepping(p, g, floor, live=None):
        steps.append((p.copy(), g.copy()))
        return step(p, g, floor, live)

    monkeypatch.setattr(engine, "_draw_kicks", drawing)
    monkeypatch.setattr(engine, "_slip_step", stepping)
    return blocks, steps


def ensemble_digest(out):
    h = hashlib.sha256()
    for r in out.results:
        h.update(repr((r.winner, r.collapse_time, r.slip_count,
                       r.status)).encode())
        if r.trajectory is not None:
            h.update(r.trajectory.tobytes())
    if out.checkpoint_p is not None:
        h.update(out.checkpoint_p.tobytes())
    return h.hexdigest()


def test_one_step_blocks_reproduce_the_per_step_draws(monkeypatch):
    # digests taken when every frozen step made its own Poisson call; a
    # budget of one draw makes every block one step long
    monkeypatch.setattr(engine, "_DRAW_BUDGET", 1)
    shared = run_ensemble(born_box(), 2027, 40,
                          checkpoint_steps=(25, 100, 400))
    assert ensemble_digest(shared) == (
        "8d296e02f12e18aec15388b38c958a705bc010d6ce58b08c72956bdff5b122d3")
    own = run_ensemble(born_box(record_every=50), (4, 11, 0, 7), 4)
    assert ensemble_digest(own) == (
        "48a639e66a01bef548340f5a44eb1f71d6820ac51b7d9297628cc4ffae218b4a")


def test_a_complete_shard_does_not_depend_on_the_ensemble_size(monkeypatch):
    # 300-run shards draw blocks of 2^15 // (2 * 3 * 300) = 18 steps, so
    # a block length sized from all active rows would differ between the
    # three ensembles below
    monkeypatch.setattr(engine, "_SHARD_RUNS", 300)
    first = None
    for n_runs in (300, 350, 900):
        out = run_ensemble(born_box(), 2027, n_runs,
                           checkpoint_steps=(25, 100, 400))
        head = ([(r.winner, r.collapse_time, r.slip_count, r.status)
                 for r in out.results[:300]], out.checkpoint_p[:, :300])
        if first is None:
            first = head
            assert {r.status for r in out.results} == {"collapsed"}
        else:
            assert head[0] == first[0]
            assert np.array_equal(head[1], first[1])
    # the second shard draws from its own stream, not a copy of the first
    assert out.checkpoint_p[0, 300:600].tobytes() != first[1][0].tobytes()


def test_frozen_blocks_keep_one_length_as_runs_absorb(monkeypatch):
    blocks, _ = record_blocks(monkeypatch)
    setup = born_box(max_steps=1000)
    out = run_ensemble(setup, 2027, 50)
    assert {r.status for r in out.results} == {"collapsed", "timeout"}
    # K = 3 channels on one group of identical cells, 50 runs in one shard
    block = min(engine._BLOCK_MAX, engine._DRAW_BUDGET // (2 * 3 * 1 * 50))
    assert block == 109
    # the runs that end inside a block leave the later blocks shorter in
    # rows, never in steps; only max_steps cuts the last block
    assert [b[0].shape[0] for b in blocks] == [block] * 9 + [19]
    assert blocks[0][0].shape[1] == 50 > blocks[-1][0].shape[1]


@pytest.mark.parametrize("seed", [4, (4,)], ids=["int", "sequence"])
def test_a_frozen_run_times_out_at_exactly_max_steps(monkeypatch, seed):
    blocks, steps = record_blocks(monkeypatch)
    # one run draws 6 counts per step, so blocks are 128 steps long and
    # the last one is cut to the 44 steps left
    setup = born_box(p0=(0.5, 0.5), max_steps=300, record_every=100)
    out = run_ensemble(setup, seed, 1, checkpoint_steps=(300, 400))
    run = out.results[0]
    assert run.status == "timeout" and run.collapse_time is None
    assert [b[0].shape[0] for b in blocks] == [128, 128, 44]
    assert len(steps) == 300
    assert run.slip_count == sum(int(b[0].sum()) for b in blocks)
    assert run.trajectory[-1, 0] == 300 * setup.dt
    # the budget ran out at step 300: the snapshot after it is the last p
    assert np.array_equal(out.checkpoint_p[0], out.checkpoint_p[1])
    assert np.array_equal(out.checkpoint_p[0, 0], run.trajectory[-1, 1:])


def check_dead_channels(blocks, steps, out):
    """Dead channels take no kick and add no slips; returns the count of
    drawn slips the loop dropped on dead channels."""
    drawn = [(s, g) for slips, kicks in blocks for s, g in zip(slips, kicks)]
    assert len(drawn) >= len(steps)
    expected = dropped = 0
    for (p, g), (slips, kicks) in zip(steps, drawn):
        dead = p == 0.0
        assert dead[:, 0].all()
        assert (g[dead] == 0.0).all()
        assert np.array_equal(g[~dead], kicks[~dead])
        expected += int(slips[~dead].sum())
        dropped += int(slips[dead].sum())
    assert sum(r.slip_count for r in out.results) == expected > 0
    return dropped


def test_absorbed_channels_draw_no_events(monkeypatch):
    blocks, steps = record_blocks(monkeypatch)
    # one run at a time, so each block's rows are that run's; a channel
    # that absorbs inside a block has counts left in it
    setup = born_box(p0=(0.0, 0.3, 0.2, 0.5))
    dropped = 0
    for seed in (1, 2, 3):
        blocks.clear()
        steps.clear()
        out = run_ensemble(setup, seed, 1)
        assert out.results[0].status == "collapsed"
        dropped += check_dead_channels(blocks, steps, out)
    assert dropped > 0
    # advancing fields draw one step per block, for every run at once
    blocks.clear()
    steps.clear()
    setup = frozen_setup(p0=(0.0, 0.4, 0.6), max_steps=300,
                         advance_fields=True)
    out = run_ensemble(setup, seed=4, n_runs=6, checkpoint_steps=(300,))
    check_dead_channels(blocks, steps, out)
    assert len(blocks) == len(steps) == 300
    assert (out.checkpoint_p[..., 0] == 0.0).all()


def test_setup_validation():
    with pytest.raises(ValueError):
        frozen_setup(p0=(1.0,))
    with pytest.raises(ValueError):
        frozen_setup(dt=2.0)  # beyond tau
    with pytest.raises(ValueError):
        frozen_setup(dt=0.0)
    with pytest.raises(ValueError):
        frozen_setup(f_init=None)  # neither seeding choice
    with pytest.raises(ValueError):
        frozen_setup(kinetics=KineticParams(lam=2.0, tau=1.0))  # lam clash
    with pytest.raises(ValueError):
        # fields advancing: dt must respect the monotone bound
        frozen_setup(advance_fields=True, dt=0.5)
    with pytest.raises(ValueError, match="extent 32.5"):
        # the slips sample whole lam-sized cells
        frozen_setup(grid=Grid(extent=(32.5,), spacing=0.25))


# --- aggregation ---


def fake_results(winners, p0=(0.3, 0.7), timeouts=0):
    out = [
        RunResult(winner=w, collapse_time=1.0, slip_count=10, seed=i,
                  p0=p0, status="collapsed")
        for i, w in enumerate(winners)
    ]
    out += [
        RunResult(winner=None, collapse_time=None, slip_count=10,
                  seed=len(out) + i, p0=p0, status="timeout")
        for i in range(timeouts)
    ]
    return out


def test_born_statistics_counts_and_intervals():
    stats = born_statistics(fake_results([0] * 60 + [1] * 140))
    assert stats.n_results == 200 and stats.n_resolved == 200
    assert stats.counts == (60, 140)
    assert stats.frequencies == (0.3, 0.7)
    assert stats.wilson_low[0] < 0.3 < stats.wilson_high[0]
    assert stats.wilson_low[1] < 0.7 < stats.wilson_high[1]
    assert stats.chi_square == pytest.approx(0.0, abs=1e-12)
    assert stats.p_value == pytest.approx(1.0)


def test_born_statistics_flags_a_wrong_hypothesis():
    stats = born_statistics(fake_results([0] * 140 + [1] * 60))
    assert stats.chi_square > 50
    assert stats.p_value < 1e-6


def test_born_statistics_excludes_timeouts():
    stats = born_statistics(fake_results([0] * 50 + [1] * 100, timeouts=50))
    assert stats.n_results == 200 and stats.n_resolved == 150
    assert stats.counts == (50, 100)


def test_born_statistics_handles_a_certain_channel():
    stats = born_statistics(fake_results([0] * 150, p0=(1.0, 0.0)))
    assert stats.chi_square == 0.0 and stats.p_value == 1.0


def test_born_statistics_input_guards():
    with pytest.raises(AggregationError):
        born_statistics(fake_results([0] * 50))
    mixed = fake_results([0] * 60) + fake_results([1] * 60, p0=(0.5, 0.5))
    with pytest.raises(AggregationError):
        born_statistics(mixed)
    with pytest.raises(AggregationError):
        born_statistics(fake_results([], timeouts=150))


def test_born_p_value_is_the_chi_square_survival_bit_for_bit():
    from scipy.stats import chi2

    for winners, p0 in (([0] * 60 + [1] * 140, (0.3, 0.7)),
                        ([0] * 75 + [1] * 125, (0.3, 0.7)),
                        ([0] * 50 + [1] * 50 + [2] * 100, (0.2, 0.3, 0.5))):
        stats = born_statistics(fake_results(winners, p0=p0))
        assert stats.p_value == float(chi2.sf(stats.chi_square, len(p0) - 1))


# --- the closed-form time scale ---


def test_collapse_time_unit_evaluation_and_scaling():
    params = SlipParams(w=0.4, tau=1.0, lam=1.0, n_a=1.0)
    base = estimate_collapse_time(params, l_system=1.0)
    assert base == pytest.approx(1.0 / 0.4, rel=1e-15)
    assert estimate_collapse_time(params, 2.0) == pytest.approx(base / 4)
    assert estimate_collapse_time(params, 1.0, electron_cloud=0.1) == (
        pytest.approx(base * 10.0)
    )
    with pytest.raises(ValueError):
        estimate_collapse_time(params, 0.0)
    with pytest.raises(ValueError):
        estimate_collapse_time(params, 1.0, electron_cloud=-1.0)


def test_probability_vector_guards():
    with pytest.raises(ValueError):
        probability_vector([0.5, 0.6])
    with pytest.raises(ValueError):
        probability_vector([-0.1, 1.1])
    for bad in ([np.nan, 1.0], [np.inf, 0.5], [0.5, 0.5, np.nan]):
        with pytest.raises(ValueError, match="finite"):
            probability_vector(bad)
    assert probability_vector([0.25, 0.75]).dtype == np.float64
