"""Simplex diffusion coefficients and the Fokker-Planck solver."""

import dataclasses

import numpy as np
import pytest

from lecollapse._csr import bind_matvec
from lecollapse.engine import SlipParams
from lecollapse.exact import (
    LatticeModel,
    build_branch_hamiltonian,
    default_timestep,
)
from lecollapse.fokker_planck import (
    ComparisonError,
    FPDensity,
    FieldSummary,
    SimplexGrid,
    boundary_current,
    compare_histogram,
    diffusion_coefficients,
    edge_mass,
    ensemble_histogram,
    field_summary,
    fp_scheme,
    fp_step,
    stable_step,
)
from lecollapse.fokker_planck import _generator, _reduced_coefficients, _scheme
from lecollapse.wave import (
    Grid,
    KineticParams,
    StabilityError,
    kpp_step,
)


def desk_params(**kw):
    kw.setdefault("w", 0.4)
    kw.setdefault("tau", 1.0)
    kw.setdefault("lam", 1.0)
    kw.setdefault("n_a", 100.0)
    return SlipParams(**kw)


def uniform_summary(channels, level=0.4, p_ref=None, n_cells=8):
    # equal overlaps: s_j = N_c * n_cells * f * f0
    if p_ref is None:
        p_ref = np.full(channels, 1.0 / channels)
    f0 = 1.0 - float(np.dot(p_ref, np.full(channels, level)))
    return FieldSummary(np.full(channels, 100.0 * n_cells * level * f0))


def reduced_form(m):
    """Independent-coordinate quadratic form, eliminating the last channel."""
    k = m.shape[0]
    q = np.empty((k - 1, k - 1))
    for a in range(k - 1):
        for b in range(k - 1):
            q[a, b] = m[a, b] - m[a, k - 1] - m[b, k - 1] + m[k - 1, k - 1]
    return q


# --- coefficients ---


def test_field_summary_matches_the_hand_sum():
    params = desk_params()
    grid = Grid(extent=(8.0,), spacing=0.25)
    s = field_summary(grid, np.full((2,) + grid.shape, 0.4), (0.5, 0.5),
                      params)
    assert np.allclose(s.overlap, 100.0 * 8 * 0.4 * 0.6, rtol=1e-14)


@pytest.mark.parametrize("f,p_ref,match", [
    (np.full((3, 32), 0.4), (0.5, 0.5), "shape"),
    (np.full((2, 31), 0.4), (0.5, 0.5), "shape"),
    (np.full((2, 32), 0.4), (0.5, 0.6), "sum to 1"),
    (np.full((2, 32), 0.4), (1.5, -0.5), "nonnegative"),
    (np.full((2, 32), 1.0 + 2e-12), (0.5, 0.5), r"\[0, 1\]"),
    (np.full((2, 32), -2e-12), (0.5, 0.5), r"\[0, 1\]"),
], ids=["channels", "cells", "p_ref-sum", "p_ref-negative", "f-above-1",
        "f-below-0"])
def test_field_summary_refuses_what_is_not_a_field_set(f, p_ref, match):
    # the NaN cases sit in test_engine.py's NON_FINITE table
    grid = Grid(extent=(8.0,), spacing=0.25)
    with pytest.raises(ValueError, match=match):
        field_summary(grid, f, p_ref, desk_params())


def test_field_summary_admits_rounding_at_the_field_bounds():
    grid = Grid(extent=(8.0,), spacing=0.25)
    f = np.full((2,) + grid.shape, 1.0 + 1e-12)
    s = field_summary(grid, f, (0.5, 0.5), desk_params())
    assert not s.overlap.any()  # f0 clamps to 0 on a saturated field


def test_coefficients_vanish_at_the_vertices():
    params = desk_params()
    s = uniform_summary(3)
    for vertex in np.eye(3):
        m = diffusion_coefficients(vertex, s, params)
        assert np.array_equal(m, np.zeros((3, 3)))


def test_midpoint_diagonal_matches_the_formula():
    params = desk_params()
    s = uniform_summary(2, p_ref=np.array([0.5, 0.5]))
    m = diffusion_coefficients((0.5, 0.5), s, params)
    expected = 0.4 * 0.25 * s.overlap[0] / (1.0 * 100.0**2)
    assert m[0, 0] == pytest.approx(expected, rel=1e-14)
    assert m[1, 1] == pytest.approx(expected, rel=1e-14)
    m_sum = diffusion_coefficients((0.5, 0.5), s, params,
                                   pair_combination="sum")
    assert m_sum[0, 1] == pytest.approx(2 * m[0, 1], rel=1e-14)
    assert m_sum[0, 0] == m[0, 0]


def test_two_channel_tangent_form_is_positive_for_any_overlaps():
    # on the zero-sum direction (1, -1): v' M v = p1 p2 (s1 + s2) scale
    params = desk_params()
    rng = np.random.default_rng(5)
    for _ in range(200):
        s = FieldSummary(rng.uniform(0.0, 500.0, size=2))
        p1 = rng.uniform(0.0, 1.0)
        m = diffusion_coefficients((p1, 1.0 - p1), s, params)
        assert m[0, 0] + m[1, 1] - 2 * m[0, 1] >= -1e-18


def test_mean_combination_is_psd_on_the_simplex_tangent():
    # equal overlaps give exactly scale * s * (diag(p) - p p'), whose
    # reduced two-by-two form must have nonnegative eigenvalues everywhere
    params = desk_params()
    s = uniform_summary(3)
    rng = np.random.default_rng(11)
    worst = np.inf
    for _ in range(1000):
        raw = rng.random(3)
        p = raw / raw.sum()
        m = diffusion_coefficients(p, s, params)
        q = reduced_form(m)
        worst = min(worst, float(np.linalg.eigvalsh(q).min()))
    assert worst > -1e-15


def test_sum_combination_loses_positivity():
    # face-value pair sums double the mixed entries; near an edge midpoint
    # the reduced form then has a negative eigenvalue, which is why the
    # solver defaults to the mean combination
    params = desk_params()
    s = uniform_summary(3)
    m = diffusion_coefficients((0.49, 0.49, 0.02), s, params,
                               pair_combination="sum")
    q = reduced_form(m)
    assert np.linalg.eigvalsh(q).min() < -1e-8


def test_coefficient_guards():
    params = desk_params()
    with pytest.raises(ValueError):
        diffusion_coefficients((0.5, 0.5), uniform_summary(3), params)
    with pytest.raises(ValueError):
        diffusion_coefficients((0.5, 0.5), uniform_summary(2), params,
                               pair_combination="median")
    with pytest.raises(ValueError):
        FieldSummary(np.array([-1.0, 2.0]))


# --- grids and densities ---


def test_valid_mask_is_read_only():
    grid = SimplexGrid(channels=3, resolution=8)
    mask = grid.valid()
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0, 0] = False
    assert grid.valid()[0, 0]
    assert not SimplexGrid(channels=2, resolution=8).valid().flags.writeable


def test_triangle_mask_counts_cells():
    grid = SimplexGrid(channels=3, resolution=8)
    assert grid.valid().sum() == 8 * 7 // 2
    assert SimplexGrid(channels=2, resolution=8).valid().all()
    with pytest.raises(ValueError):
        SimplexGrid(channels=4, resolution=8)
    with pytest.raises(ValueError):
        SimplexGrid(channels=2, resolution=2)


def test_near_delta_is_normalized_and_centered():
    grid = SimplexGrid(channels=2, resolution=100)
    density = FPDensity.near_delta(grid, (0.3, 0.7))
    assert density.mass == pytest.approx(1.0, abs=1e-12)
    peak = int(np.argmax(density.phi))
    assert abs(grid.centers()[peak] - 0.3) <= grid.spacing
    tri = SimplexGrid(channels=3, resolution=32)
    bump = FPDensity.near_delta(tri, (0.2, 0.3, 0.5))
    assert bump.mass == pytest.approx(1.0, abs=1e-12)
    assert not bump.phi[~tri.valid()].any()


def test_density_validation():
    grid = SimplexGrid(channels=2, resolution=10)
    with pytest.raises(ValueError):
        FPDensity(grid, -np.ones(10))
    with pytest.raises(ValueError):
        FPDensity(grid, np.ones(12))
    tri = SimplexGrid(channels=3, resolution=8)
    phi = np.ones((8, 8))
    with pytest.raises(ValueError):
        FPDensity(tri, phi)  # mass outside the triangle


# --- stepping ---


def test_two_channel_step_conserves_mass_and_mean():
    params = desk_params()
    s = uniform_summary(2, p_ref=np.array([0.37, 0.63]))
    grid = SimplexGrid(channels=2, resolution=100)
    density = FPDensity.near_delta(grid, (0.37, 0.63))
    scheme = fp_scheme(grid, s, params, 0.01)
    for _ in range(100):
        density = fp_step(density, scheme)
    assert density.mass == pytest.approx(1.0, abs=1e-12)
    assert density.clamped <= 1e-12
    assert (density.phi >= 0).all()
    assert abs(density.mean()[0] - 0.37) < 1e-4


def test_early_variance_grows_at_twice_the_coefficient():
    params = desk_params()
    p0 = 0.5
    s = uniform_summary(2, p_ref=np.array([p0, 1 - p0]))
    grid = SimplexGrid(channels=2, resolution=100)
    density = FPDensity.near_delta(grid, (p0, 1 - p0))
    x = grid.centers()

    def variance(d):
        w = d.phi / d.phi.sum()
        mu = (w * x).sum()
        return float((w * (x - mu) ** 2).sum())

    scheme = fp_scheme(grid, s, params, 0.01)
    times, variances = [0.0], [variance(density)]
    for _ in range(100):
        density = fp_step(density, scheme)
        times.append(density.time)
        variances.append(variance(density))
    slope = np.polyfit(times, variances, 1)[0]
    scale = params.w / (params.tau * params.n_c**2)
    expected = 2.0 * scale * s.overlap[0] * p0 * (1 - p0)
    assert abs(slope / expected - 1.0) < 0.05


def test_zero_coefficients_leave_the_density_unchanged():
    params = desk_params()
    s = FieldSummary(np.zeros(2))
    grid = SimplexGrid(channels=2, resolution=50)
    density = FPDensity.near_delta(grid, (0.5, 0.5))
    stepped = fp_step(density, fp_scheme(grid, s, params, 1e30))
    assert np.array_equal(stepped.phi, density.phi)


def test_step_rejects_unstable_dt():
    params = desk_params()
    s = uniform_summary(2)
    grid = SimplexGrid(channels=2, resolution=50)
    a_max = params.w * 0.25 * s.overlap[0] / (params.tau * params.n_c**2)
    bound = grid.spacing**2 / (2 * a_max)
    with pytest.raises(StabilityError):
        fp_scheme(grid, s, params, 2 * bound)
    fp_scheme(grid, s, params, 0.9 * bound)
    # NaN slips past the bound comparison, so the sign check must catch it
    with pytest.raises(ValueError, match="dt"):
        fp_scheme(grid, s, params, float("nan"))


def test_three_channel_step_conserves_mass_inside_the_triangle():
    params = desk_params()
    s = uniform_summary(3, p_ref=np.array([0.2, 0.3, 0.5]))
    grid = SimplexGrid(channels=3, resolution=32)
    density = FPDensity.near_delta(grid, (0.2, 0.3, 0.5), width_cells=3.0)
    density = fp_step(density, fp_scheme(grid, s, params, 0.002), steps=300)
    assert density.mass == pytest.approx(1.0, abs=1e-12)
    assert density.clamped < 1e-3
    assert (density.phi >= 0).all()
    assert not density.phi[~grid.valid()].any()


def test_boundary_current_decays_as_the_density_piles_up():
    params = desk_params()
    s = uniform_summary(2, p_ref=np.array([0.5, 0.5]))
    grid = SimplexGrid(channels=2, resolution=100)
    density = FPDensity.near_delta(grid, (0.5, 0.5))
    scheme = fp_scheme(grid, s, params, 0.02)
    currents = {}
    for step in (1500, 3000, 4500):
        density = fp_step(density, scheme, steps=1500)
        currents[step] = boundary_current(density, scheme)
    # mass approaches the edges, then the current dies away while the
    # interior mass stays put: diffusion alone never absorbs
    assert currents[1500] > 0
    assert currents[4500] < currents[1500]
    assert density.mass == pytest.approx(1.0, abs=1e-12)


def test_three_channel_boundary_current_is_finite():
    params = desk_params()
    s = uniform_summary(3, p_ref=np.array([0.2, 0.3, 0.5]))
    grid = SimplexGrid(channels=3, resolution=24)
    density = FPDensity.near_delta(grid, (0.2, 0.3, 0.5))
    scheme = fp_scheme(grid, s, params, 0.002)
    j = boundary_current(fp_step(density, scheme, steps=200), scheme)
    assert np.isfinite(j)


def boundary_current_loop(density, summary, params):
    """Per-cell loop definition of boundary_current, kept as the reference.

    Returns the current and the sum of the absolute values of its face
    terms, on the same scale, which bounds the rounding of any summation
    order.
    """
    grid = density.grid
    coeffs = _reduced_coefficients(grid, summary, params)
    h = grid.spacing
    phi = density.phi
    if grid.dims == 1:
        (a11,) = coeffs
        g = a11 * phi
        left = (g[1] - g[0]) / h
        right = (g[-2] - g[-1]) / h
        return float(left + right), abs(left) + abs(right)
    q11, q22, q12 = coeffs
    g1 = q11 * phi
    g2 = q22 * phi
    valid = grid.valid()
    g1[~valid] = 0.0
    g2[~valid] = 0.0
    r = grid.resolution
    rows = valid[0, :] & valid[1, :]
    cols = valid[:, 0] & valid[:, 1]
    terms = list((g1[1, rows] - g1[0, rows]) / h)
    terms += list((g2[cols, 1] - g2[cols, 0]) / h)
    for i, j in np.argwhere(valid):
        if (i + 1 == r or not valid[i + 1, j]) and i >= 1 and valid[i - 1, j]:
            terms.append((g1[i - 1, j] - g1[i, j]) / h)
        if (j + 1 == r or not valid[i, j + 1]) and j >= 1 and valid[i, j - 1]:
            terms.append((g2[i, j - 1] - g2[i, j]) / h)
    scale = h ** (grid.dims - 1)
    return (float(sum(terms) * scale),
            float(sum(abs(t) for t in terms) * scale))


@pytest.mark.parametrize("channels", [2, 3])
@pytest.mark.parametrize("resolution", [4, 7, 24, 60, 61])
def test_boundary_current_matches_the_loop_to_rounding(channels, resolution):
    params = desk_params()
    grid = SimplexGrid(channels=channels, resolution=resolution)
    rng = np.random.default_rng(resolution)
    s = FieldSummary(rng.uniform(100.0, 500.0, size=channels))
    # an irregular density makes every face term nonzero, so a term taken
    # from the wrong cell or with the wrong sign moves the sum far beyond
    # the rounding of its terms
    phi = rng.random(grid.shape)
    phi[~grid.valid()] = 0.0
    density = FPDensity(grid, phi)
    scheme = fp_scheme(grid, s, params, 0.5 * stable_step(grid, s, params))
    for _ in range(3):
        expected, magnitude = boundary_current_loop(density, s, params)
        assert abs(boundary_current(density, scheme) - expected) \
            <= 1e-13 * magnitude
        density = fp_step(density, scheme)


def fp_step_stencil(density, summary, params, dt):
    """The hand-written flux-form stencil fp_step was assembled from.

    Kept as the reference: faces along each axis and corners of the mixed
    term carry flux only where all their cells lie in the triangle.
    """
    grid = density.grid
    h = grid.spacing
    phi = density.phi
    coeffs = _reduced_coefficients(grid, summary, params)
    if grid.dims == 1:
        g = coeffs[0] * phi
        flux = (g[1:] - g[:-1]) / h
        dphi = np.zeros(phi.shape)
        dphi[:-1] += flux
        dphi[1:] -= flux
        new = phi + dt * dphi / h
    else:
        valid = grid.valid()
        g1, g2, g12 = (np.where(valid, q, 0.0) * phi for q in coeffs)
        faces = (valid[1:, :] & valid[:-1, :], valid[:, 1:] & valid[:, :-1])
        corners = faces[0][:, 1:] & faces[0][:, :-1]
        dphi = np.zeros(phi.shape)
        flux = (g1[1:, :] - g1[:-1, :]) / h * faces[0]
        dphi[:-1, :] += flux
        dphi[1:, :] -= flux
        flux = (g2[:, 1:] - g2[:, :-1]) / h * faces[1]
        dphi[:, :-1] += flux
        dphi[:, 1:] -= flux
        corner = 0.25 * (
            g12[1:, 1:] + g12[1:, :-1] + g12[:-1, 1:] + g12[:-1, :-1]
        ) * corners
        mixed = np.zeros(phi.shape)
        mixed[:-1, :-1] += corner
        mixed[1:, 1:] += corner
        mixed[:-1, 1:] -= corner
        mixed[1:, :-1] -= corner
        dphi += 2.0 * mixed / h
        new = phi + dt * dphi / h
        new[~valid] = 0.0
    clamped = density.clamped
    neg = new < 0.0
    if neg.any():
        clamped += float(-new[neg].sum() * h**grid.dims)
        new = np.clip(new, 0.0, None)
        total = new.sum()
        if total > 0.0:
            new *= phi.sum() / total
    return FPDensity(grid, new, density.time + dt, clamped)


def step_like_the_stencil(start, s, params, steps=60):
    """Step fp_step and the stencil side by side; return the stencil's end."""
    dt = 0.9 * stable_step(start.grid, s, params)
    scheme = fp_scheme(start.grid, s, params, dt)
    assembled = stencil = start
    for _ in range(steps):
        assembled = fp_step(assembled, scheme)
        stencil = fp_step_stencil(stencil, s, params, dt)
        bound = 1e-12 * stencil.phi.max()
        assert np.abs(assembled.phi - stencil.phi).max() <= bound
        assert abs(assembled.clamped - stencil.clamped) <= bound
    assert assembled.time == stencil.time
    return stencil


@pytest.mark.parametrize("channels", [2, 3])
@pytest.mark.parametrize("resolution", [4, 7, 24, 61])
def test_fp_step_matches_the_stencil_to_rounding(channels, resolution):
    grid = SimplexGrid(channels=channels, resolution=resolution)
    rng = np.random.default_rng(100 + resolution)
    s = FieldSummary(rng.uniform(100.0, 500.0, size=channels))
    phi = rng.random(grid.shape)
    phi[~grid.valid()] = 0.0
    step_like_the_stencil(FPDensity(grid, phi), s, desk_params())


@pytest.mark.parametrize("resolution", [24, 61])
def test_fp_step_matches_the_stencil_where_the_clamp_fires(resolution):
    # a narrow bump curves sharply enough that the mixed term drives
    # cells negative, so the clamp-and-rescale repair runs on both sides
    grid = SimplexGrid(channels=3, resolution=resolution)
    s = FieldSummary(np.array([150.0, 220.0, 90.0]))
    start = FPDensity.near_delta(grid, (0.2, 0.3, 0.5))
    assert step_like_the_stencil(start, s, desk_params()).clamped > 0.0


# --- many steps per call ---


def stepping_cases():
    # 1D near the boundary; the clamp setup of the stencil test above, so
    # the clamp-and-rescale path runs inside the chunk; a smooth 2D bump
    return [
        (SimplexGrid(2, 100), uniform_summary(2), (0.1, 0.9)),
        (SimplexGrid(3, 24), FieldSummary(np.array([150.0, 220.0, 90.0])),
         (0.2, 0.3, 0.5)),
        (SimplexGrid(3, 61), uniform_summary(3), (0.3, 0.3, 0.4)),
    ]


@pytest.mark.parametrize("case", range(3))
def test_steps_equal_single_calls_bit_for_bit(case):
    grid, s, p0 = stepping_cases()[case]
    params = desk_params()
    start = FPDensity.near_delta(grid, p0)
    scheme = fp_scheme(grid, s, params, 0.9 * stable_step(grid, s, params))
    single = start
    for _ in range(40):
        single = fp_step(single, scheme)
    chunked = start
    for n in (1, 12, 27):
        chunked = fp_step(chunked, scheme, steps=n)
    assert chunked.phi.tobytes() == single.phi.tobytes()
    assert chunked.time == single.time
    assert chunked.clamped == single.clamped
    if case == 1:
        assert chunked.clamped > 0.0
    # the caller's density is left as it was
    assert start.time == 0.0 and start.clamped == 0.0
    assert np.array_equal(start.phi, FPDensity.near_delta(grid, p0).phi)


def test_repaired_steps_leave_a_valid_density():
    # fp_step builds its result without FPDensity's checks: the repair
    # keeps the triangle's cells nonnegative and the scatter writes no cell
    # outside it, which the checks would have caught
    grid, s, p0 = stepping_cases()[1]
    params = desk_params()
    scheme = fp_scheme(grid, s, params, stable_step(grid, s, params))
    end = fp_step(FPDensity.near_delta(grid, p0), scheme, steps=40)
    assert end.clamped > 0.0
    assert (end.phi >= 0.0).all()
    assert not end.phi[~grid.valid()].any()
    checked = FPDensity(grid, end.phi)
    assert checked.phi.tobytes() == end.phi.tobytes()


def test_zero_steps_return_an_equal_copy():
    grid, s, p0 = stepping_cases()[1]
    scheme = fp_scheme(grid, s, desk_params(), 0.001)
    start = fp_step(FPDensity.near_delta(grid, p0), scheme, steps=5)
    same = fp_step(start, scheme, steps=0)
    assert same is not start and same.phi is not start.phi
    assert same.phi.tobytes() == start.phi.tobytes()
    assert (same.time, same.clamped) == (start.time, start.clamped)


def test_negative_steps_are_rejected():
    grid, s, p0 = stepping_cases()[0]
    density = FPDensity.near_delta(grid, p0)
    with pytest.raises(ValueError, match="steps"):
        fp_step(density, fp_scheme(grid, s, desk_params(), 0.001), steps=-1)


def test_many_steps_still_check_the_bound():
    # fp_step takes its dt from the scheme, so the bound is checked where
    # the scheme is built; a cached scheme at the bound lets no larger dt
    # through
    grid, s, p0 = stepping_cases()[0]
    params = desk_params()
    bound = stable_step(grid, s, params)
    scheme = fp_scheme(grid, s, params, bound)
    assert fp_step(FPDensity.near_delta(grid, p0), scheme, steps=50).time \
        == pytest.approx(50 * bound)
    with pytest.raises(StabilityError):
        fp_scheme(grid, s, params, 1.01 * bound)


def scheme_of(grid, s):
    """The scheme at 0.9 of the bound."""
    return fp_scheme(grid, s, desk_params(),
                     0.9 * stable_step(grid, s, desk_params()))


def test_a_density_on_another_grid_is_refused():
    # both grids have 100 cells, so no array shape would catch the mix-up
    grid, other = SimplexGrid(2, 100), SimplexGrid(3, 10)
    scheme = scheme_of(grid, uniform_summary(2))
    density = FPDensity.near_delta(other, (0.2, 0.3, 0.5))
    assert density.phi.size == scheme.current.size
    with pytest.raises(ValueError, match="grid"):
        fp_step(density, scheme)
    with pytest.raises(ValueError, match="grid"):
        boundary_current(density, scheme)
    # an equal grid that is another object is the same grid
    twin = FPDensity.near_delta(SimplexGrid(2, 100), (0.3, 0.7))
    assert boundary_current(fp_step(twin, scheme), scheme) > 0
    with pytest.raises(ValueError, match="channel count"):
        fp_scheme(other, uniform_summary(2), desk_params(), 0.001)
    # the wave stepper refuses a field of another shape
    box = Grid((8.0,), 1.0)
    with pytest.raises(ValueError, match="shape"):
        kpp_step(np.zeros(box.shape[0] + 1), box,
                 KineticParams(lam=1.0, tau=1.0), 0.01)


@pytest.mark.parametrize("case", range(3))
def test_bound_kernel_equals_the_sparse_product(case):
    # fp_step and exact.evolve call scipy's CSR kernel directly; a change
    # in that private binding must show here, not as drift in the output
    # of either stepper: the real FP generator, the step I + dt G that
    # fp_step applies, the complex branch generator, and that generator
    # scaled by dt/3 as one of evolve's stage operators
    grid, s, p0 = stepping_cases()[case]
    model = LatticeModel(sites=2 + case % 2, atoms=2 + case // 2,
                         channels=1 + case % 2, hop_amplitude=0.9,
                         u_strength=0.8, v_strength=0.5,
                         a_tracks=((0,), (1,))[:1 + case % 2])
    rng = np.random.default_rng(case)
    scheme = scheme_of(grid, s)
    v = rng.random(scheme.operator.shape[1])  # the triangle's cells
    out = np.zeros(v.size)
    scheme.matvec(v, out)
    assert out.tobytes() == (scheme.operator @ v).tobytes()
    h = build_branch_hamiltonian(model)
    c = default_timestep(h) / 3
    for g, scale in ((_generator(grid, s, desk_params())[0], None),
                     (h.generator, None), (h.generator, c)):
        v = rng.random(g.shape[1]).astype(g.dtype)
        if g.dtype.kind == "c":
            v += 1j * rng.random(g.shape[1])
        out = np.zeros(g.shape[0], dtype=g.dtype)
        bind_matvec(g, scale)(v, out)
        want = g @ v if scale is None else (scale * g) @ v
        assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("channels", [2, 3])
@pytest.mark.parametrize("resolution", [4, 7, 24])
def test_generator_conserves_mass_and_leaves_invalid_cells_empty(
        channels, resolution):
    grid = SimplexGrid(channels=channels, resolution=resolution)
    s = FieldSummary(np.random.default_rng(resolution).uniform(
        100.0, 500.0, size=channels))
    g = _generator(grid, s, desk_params())[0].toarray()
    largest = np.abs(g).max(axis=0)
    assert (np.abs(g.sum(axis=0)) <= 1e-12 * largest).all()
    invalid = ~grid.valid().ravel()
    assert not g[invalid].any() and not g[:, invalid].any()
    assert (largest[~invalid] > 0).all()


def test_interleaved_coefficient_sets_step_as_if_run_alone():
    base = desk_params()
    # (summary, params, share of the common dt)
    pairs = [
        (uniform_summary(3, p_ref=np.array([0.2, 0.3, 0.5])), base, 1.0),
        (FieldSummary(np.array([150.0, 220.0, 90.0])), base, 1.0),
        # same summary, changed w: must never reuse the w = 0.4 scheme
        (uniform_summary(3, p_ref=np.array([0.2, 0.3, 0.5])),
         dataclasses.replace(base, w=0.2), 1.0),
        # the first set at half its dt: must never reuse the first's scheme
        (uniform_summary(3, p_ref=np.array([0.2, 0.3, 0.5])), base, 0.5),
    ]
    grid = SimplexGrid(channels=3, resolution=24)
    start = FPDensity.near_delta(grid, (0.2, 0.3, 0.5))
    dt = 0.5 * min(stable_step(grid, s, p) for s, p, _ in pairs)

    def run(states, order):
        currents = []
        for k in order:
            s, p, share = pairs[k]
            scheme = fp_scheme(grid, s, p, share * dt)
            states[k] = fp_step(states[k], scheme)
            currents.append((k, boundary_current(states[k], scheme)))
        return currents

    # alternating two sets reuses cached schemes; each switch of block
    # evicts one, the third block follows w = 0.4 with w = 0.2 and the
    # last alternates one coefficient set between two dt
    order = [0, 1] * 10 + [1, 2] * 10 + [0, 2] * 10 + [0, 3] * 10
    alone = {}
    currents_alone = []
    for k in range(len(pairs)):
        _scheme.cache_clear()
        states = {k: start}
        currents_alone += run(states, [k] * order.count(k))
        alone[k] = states[k]
    _scheme.cache_clear()
    states = dict.fromkeys(range(len(pairs)), start)
    currents_mixed = run(states, order)
    for k in range(len(pairs)):
        assert states[k].phi.tobytes() == alone[k].phi.tobytes()
        assert [c for i, c in currents_mixed if i == k] == \
            [c for i, c in currents_alone if i == k]
    assert states[0].phi.tobytes() != states[2].phi.tobytes()
    assert stable_step(grid, *pairs[2][:2]) == pytest.approx(
        2.0 * stable_step(grid, *pairs[0][:2]), rel=1e-12)


def test_step_caches_stay_bounded():
    # a script that walks through coefficient sets and step sizes keeps
    # at most two schemes alive
    grid = SimplexGrid(channels=2, resolution=100)
    for k in range(5):
        s = uniform_summary(2, level=0.2 + 0.1 * k)
        fp_scheme(grid, s, desk_params(),
                  (0.5 + 0.1 * k) * stable_step(grid, s, desk_params()))
    assert _scheme.cache_info().currsize <= 2


@pytest.mark.parametrize("case", range(3))
def test_the_repair_runs_only_where_the_step_has_a_negative_entry(case):
    grid, s, p0 = stepping_cases()[case]
    scheme = scheme_of(grid, s)
    end = fp_step(FPDensity.near_delta(grid, p0), scheme, steps=40)
    negative = bool((scheme.operator.data < 0.0).any())
    assert scheme.nonnegative != negative
    if grid.dims == 1:
        # below the bound I + dt G is nonnegative in one dimension, so a
        # nonnegative density stays so exactly and the repair never runs
        assert not negative and end.clamped == 0.0
    elif case == 1:
        assert negative and end.clamped > 0.0


def test_a_long_solve_keeps_its_mass_to_rounding():
    # criterion 9's solve: I + dt G has columns that sum to 1 only to
    # rounding, so the drift may grow by at most an ulp per cell and step
    grid = SimplexGrid(channels=2, resolution=100)
    s = uniform_summary(2, p_ref=np.array([0.3, 0.7]))
    params = desk_params()
    steps = 100_000
    scheme = fp_scheme(grid, s, params, 0.5 * stable_step(grid, s, params))
    end = fp_step(FPDensity.near_delta(grid, (0.3, 0.7)), scheme,
                  steps=steps)
    assert abs(end.mass - 1.0) <= steps * grid.resolution * np.finfo(float).eps
    assert end.clamped == 0.0


# --- histogram comparison ---


def test_histogram_recovers_the_density_it_was_sampled_from():
    params = desk_params()
    s = uniform_summary(2)
    grid = SimplexGrid(channels=2, resolution=50)
    density = FPDensity.near_delta(grid, (0.5, 0.5), width_cells=4.0)
    density = fp_step(density, fp_scheme(grid, s, params, 0.01), steps=200)
    rng = np.random.default_rng(8)
    weights = density.phi / density.phi.sum()
    cells = rng.choice(grid.resolution, size=5000, p=weights)
    p1 = (cells + 0.5) * grid.spacing
    mc = np.stack([p1, 1.0 - p1], axis=1)
    out = compare_histogram(density, mc)
    assert out.total_variation < 0.1
    assert out.n_runs == 5000


def test_absorbed_runs_land_in_the_edge_cells():
    grid = SimplexGrid(channels=2, resolution=10)
    hist = ensemble_histogram(
        [np.array([0.0, 1.0]), np.array([1.0, 0.0])], grid
    )
    assert hist[0] > 0 and hist[-1] > 0
    assert hist[1:-1].sum() == 0


def test_compare_histogram_guards():
    grid = SimplexGrid(channels=2, resolution=10)
    density = FPDensity.near_delta(grid, (0.5, 0.5))
    with pytest.raises(ComparisonError):
        compare_histogram(density, np.random.rand(10, 2))
    with pytest.raises(ComparisonError):
        compare_histogram(density, np.random.rand(2000, 3))


def test_stable_step_is_the_largest_accepted_dt():
    grid = SimplexGrid(channels=2, resolution=50)
    params = desk_params()
    summary = uniform_summary(2)
    bound = stable_step(grid, summary, params)
    assert bound > 0
    fp_scheme(grid, summary, params, 0.999 * bound)
    with pytest.raises(StabilityError):
        fp_scheme(grid, summary, params, 1.01 * bound)


def test_stable_step_shrinks_with_the_cell():
    params = desk_params()
    summary = uniform_summary(2)
    # odd resolutions put a cell center on the coefficient peak at p = 1/2,
    # so the h^2 scaling of the explicit bound is exact
    coarse = stable_step(SimplexGrid(2, 25), summary, params)
    fine = stable_step(SimplexGrid(2, 75), summary, params)
    assert fine == pytest.approx(coarse / 9.0, rel=1e-9)


def test_edge_mass_complements_interior_mass():
    grid = SimplexGrid(channels=2, resolution=40)
    density = FPDensity.near_delta(grid, (0.5, 0.5))
    assert edge_mass(density) == pytest.approx(0.0, abs=1e-12)
    # a uniform density holds 2/40 of its mass in the two edge cells
    phi = np.full(grid.shape, 1.0)
    phi /= phi.sum() * grid.spacing
    uniform = FPDensity(grid, phi)
    assert edge_mass(uniform) == pytest.approx(2.0 / 40.0)
    assert edge_mass(uniform, cells=3) == pytest.approx(6.0 / 40.0)
