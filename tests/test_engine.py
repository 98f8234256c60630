"""Slip mechanics, Poisson sampling and the collapse random walk."""

import dataclasses
import warnings

import numpy as np
import pytest

from lecollapse.engine import (
    AggregationError,
    CollapseSetup,
    RunResult,
    SlipEvent,
    SlipParams,
    SmallNumbersWarning,
    W_CEILING,
    _cell_means,
    _grouped_rates,
    _slip_rates,
    _slip_step,
    apply_slips,
    born_statistics,
    estimate_collapse_time,
    philox_stream,
    probability_vector,
    run_collapse,
    run_ensemble,
    sample_slips,
    slip_delta,
    theoretical_moments,
    variance_matched_rate_scale,
)
from lecollapse.wave import Grid, KineticParams, ScalarFieldSet


def desk_params(**kw):
    kw.setdefault("w", 0.4)
    kw.setdefault("tau", 1.0)
    kw.setdefault("lam", 1.0)
    kw.setdefault("n_a", 100.0)
    return SlipParams(**kw)


def uniform_fields(p_ref, level=0.4, extent=8.0, spacing=0.25):
    grid = Grid(extent=(extent,), spacing=spacing)
    p_ref = np.asarray(p_ref, dtype=float)
    f = np.full((p_ref.size,) + grid.shape, level)
    return ScalarFieldSet(grid, f, p_ref)


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


# --- sampling ---


def test_sampled_rates_match_the_poisson_mean():
    # pooled over all (cell, channel, sign) streams the empirical mean
    # must sit within 3 standard errors of the formula
    params = desk_params(rate_calibration=2.0)
    fields = uniform_fields((0.5, 0.5))
    dt = 0.01
    mu = (
        params.rate_calibration
        * (params.n_a * params.lam**3 / (2 * params.tau))
        * dt
        * (params.w / 2)
        * 0.4
        * 0.6
    )
    assert 0.01 < mu < 0.1
    rng = philox_stream(12, 0)
    n_calls = 20_000
    total = 0
    for _ in range(n_calls):
        for ev in sample_slips(fields, (0.5, 0.5), params, dt, rng):
            total += ev.count
    n_streams = 8 * 2 * 2
    mean = total / (n_calls * n_streams)
    se = np.sqrt(mu / (n_calls * n_streams))
    assert abs(mean - mu) < 3 * se


def test_events_arrive_sorted_and_positive():
    params = desk_params(rate_calibration=2000.0)
    fields = uniform_fields((0.5, 0.5))
    rng = philox_stream(4, 0)
    with pytest.warns(SmallNumbersWarning):
        events = sample_slips(fields, (0.5, 0.5), params, 0.5, rng)
    assert events
    keys = [(e.cell, e.channel, 0 if e.sign == 1 else 1) for e in events]
    assert keys == sorted(keys)
    assert all(e.count >= 1 for e in events)


def test_absorbed_channels_draw_no_events():
    params = desk_params(rate_calibration=2000.0)
    fields = uniform_fields((0.0, 1.0))
    rng = philox_stream(4, 0)
    with pytest.warns(SmallNumbersWarning):
        events = sample_slips(fields, (0.0, 1.0), params, 0.5, rng)
    assert all(e.channel == 1 for e in events)


def test_saturated_or_empty_fields_give_no_events():
    params = desk_params(rate_calibration=2000.0)
    rng = philox_stream(9, 0)
    # f_k identically zero: no entangled atoms to collide
    empty = uniform_fields((0.5, 0.5), level=0.0)
    assert sample_slips(empty, (0.5, 0.5), params, 0.5, rng) == []
    # f0 identically zero: no untouched atoms left
    full = uniform_fields((0.5, 0.5), level=1.0)
    assert sample_slips(full, (0.5, 0.5), params, 0.5, rng) == []


def test_sample_slips_rejects_dt_outside_tau():
    params = desk_params()
    fields = uniform_fields((0.5, 0.5))
    rng = philox_stream(0, 0)
    with pytest.raises(ValueError):
        sample_slips(fields, (0.5, 0.5), params, 1.5, rng)
    with pytest.raises(ValueError):
        sample_slips(fields, (0.5, 0.5), params, 0.0, rng)


# --- applying slips ---


def test_apply_slips_preserves_the_simplex():
    params = desk_params(rate_calibration=500.0)
    fields = uniform_fields((0.25, 0.35, 0.4))
    rng = philox_stream(21, 0)
    p = np.array([0.25, 0.35, 0.4])
    for _ in range(200):
        events = sample_slips(fields, p, params, 5e-5, rng)
        p = apply_slips(p, events, fields, params)
        assert abs(p.sum() - 1.0) < 1e-14
        assert (p >= 0).all()


def test_apply_slips_uses_the_incoming_state_for_every_event():
    params = desk_params()
    fields = uniform_fields((0.5, 0.5))
    p = np.array([0.5, 0.5])
    events = [
        SlipEvent(cell=0, channel=0, sign=1, count=3),
        SlipEvent(cell=1, channel=1, sign=-1, count=2),
    ]
    expected = (
        p
        + 3 * slip_delta(p, 0, 0.4, 0.6, params, +1)
        + 2 * slip_delta(p, 1, 0.4, 0.6, params, -1)
    )
    assert np.allclose(apply_slips(p, events, fields, params), expected,
                       rtol=0, atol=1e-15)


def test_absorption_is_permanent():
    params = desk_params(absorb_floor=1e-3, rate_calibration=500.0)
    fields = uniform_fields((0.5, 0.5))
    # huge negative batch drives channel 0 through the floor
    events = [SlipEvent(cell=0, channel=0, sign=-1, count=100_000)]
    p = apply_slips(np.array([0.5, 0.5]), events, fields, params)
    assert p[0] == 0.0 and p[1] == 1.0
    rng = philox_stream(2, 0)
    for _ in range(50):
        more = sample_slips(fields, p, params, 5e-5, rng)
        p = apply_slips(p, more, fields, params)
    assert p[0] == 0.0 and p[1] == 1.0


def test_slip_step_rows_sum_to_exactly_zero():
    rng = np.random.default_rng(17)
    p = rng.dirichlet(np.ones(3), size=2000)
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


def test_no_events_is_the_identity():
    params = desk_params()
    fields = uniform_fields((0.5, 0.5))
    p = np.array([0.3, 0.7])
    q = apply_slips(p, [], fields, params)
    assert np.array_equal(q, p) and q is not p


# --- moments ---


def test_theoretical_moments_are_linear_in_dt():
    params = desk_params()
    fields = uniform_fields((0.3, 0.7))
    var1, cov1 = theoretical_moments((0.3, 0.7), fields, params, 1e-4)
    var2, cov2 = theoretical_moments((0.3, 0.7), fields, params, 2e-4)
    assert np.allclose(var2, 2 * var1, rtol=1e-12)
    assert np.allclose(cov2, 2 * cov1, rtol=1e-12)


def test_theoretical_moments_against_a_hand_sum():
    # uniform fields make the overlap sum N_c * n_cells * f * f0
    params = desk_params()
    fields = uniform_fields((0.3, 0.7))
    dt = 1e-3
    s = 100.0 * 8 * 0.4 * 0.6
    var, cov = theoretical_moments((0.3, 0.7), fields, params, dt)
    expect_var0 = 0.4 * 0.3 * 0.7 * dt * s / 100.0**2
    assert abs(var[0] - expect_var0) < 1e-15
    assert abs(var[1] - expect_var0) < 1e-15
    expect_cov = -0.4 * 0.3 * 0.7 * dt * (s + s) / 100.0**2
    assert abs(cov[0, 1] - expect_cov) < 1e-15
    assert cov[0, 0] == var[0] and cov[1, 1] == var[1]
    _, cov_mean = theoretical_moments((0.3, 0.7), fields, params, dt,
                                      pair_combination="mean")
    assert abs(cov_mean[0, 1] - expect_cov / 2) < 1e-15


def test_variance_matched_rate_reproduces_the_formula_variance():
    # Monte Carlo second moments of one microstep against the formula.
    # With the matched rate the two agree at the reference point up to
    # sampling error; 2e4 steps put the standard error near 1%.
    params = desk_params(rate_calibration=1.0)
    scale = variance_matched_rate_scale(params, 2)
    assert abs(scale - 8 * 2 / (0.4**2 * 0.24**2)) < 1e-9
    params = desk_params(rate_calibration=scale)
    fields = uniform_fields((0.5, 0.5))
    dt = 1.2e-5
    p0 = np.array([0.5, 0.5])
    rng = philox_stream(17, 0)
    n = 20_000
    deltas = np.empty(n)
    for i in range(n):
        events = sample_slips(fields, p0, params, dt, rng)
        deltas[i] = apply_slips(p0, events, fields, params)[0] - 0.5
    var_mc = float((deltas**2).mean())
    var_th, cov_th = theoretical_moments(p0, fields, params, dt)
    assert abs(var_mc / var_th[0] - 1.0) < 0.05
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
    setup = frozen_setup()
    single = run_collapse(setup, seed=9)
    batch = run_ensemble(setup, seed=9, n_runs=1).results[0]
    assert single.winner == batch.winner
    assert single.collapse_time == batch.collapse_time
    assert single.slip_count == batch.slip_count


def test_ensemble_mean_stays_at_the_initial_probabilities():
    setup = frozen_setup(p0=(0.3, 0.7), max_steps=1500)
    out = run_ensemble(setup, seed=31, n_runs=300,
                       checkpoint_steps=(500, 1000, 1500))
    assert out.checkpoint_p.shape == (3, 300, 2)
    for snap in out.checkpoint_p:
        mean = snap[:, 0].mean()
        se = snap[:, 0].std(ddof=1) / np.sqrt(300)
        assert abs(mean - 0.3) < max(3 * se, 1e-3)


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


def test_setup_validation():
    with pytest.raises(ValueError):
        frozen_setup(p0=(1.0,))
    with pytest.raises(ValueError):
        frozen_setup(dt=2.0)  # beyond tau
    with pytest.raises(ValueError):
        frozen_setup(f_init=None)  # neither seeding choice
    with pytest.raises(ValueError):
        frozen_setup(kinetics=KineticParams(lam=2.0, tau=1.0))  # lam clash
    with pytest.raises(ValueError):
        # fields advancing: dt must respect the monotone bound
        frozen_setup(advance_fields=True, dt=0.5)


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
    assert probability_vector([0.25, 0.75]).dtype == np.float64
