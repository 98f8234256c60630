"""Probability-wave properties: bounds, conservation, fronts, speeds."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from lecollapse._csr import bind_dia_matvec, bind_matvec
from lecollapse.engine import _field_step
from lecollapse.wave import (
    FrontUndefinedError,
    Grid,
    KineticParams,
    SeedingError,
    StabilityError,
    cell_averages,
    cell_counts,
    front_position,
    front_speed,
    front_width,
    kpp_step,
    reaction_diffusion,
    seed_field,
    step_operator,
)
from lecollapse.wave import _step_operator

UNIT = KineticParams(lam=1.0, tau=1.0)


def test_derived_kinetic_scales():
    p = KineticParams(lam=2.0, tau=0.5)
    assert p.d_coeff == pytest.approx(4.0 / 3.0)
    assert p.sound_speed == pytest.approx(2.0 / (np.sqrt(3.0) * 0.5))
    # the pulled front runs at sqrt(2) times the transport estimate
    assert p.kpp_speed / p.sound_speed == pytest.approx(np.sqrt(2.0))
    with pytest.raises(ValueError):
        KineticParams(lam=-1.0, tau=1.0)


def test_grid_validation_and_resolution():
    g = Grid(extent=(8.0,), spacing=0.25)
    assert g.shape == (32,)
    assert g.axis_coords()[0] == pytest.approx(0.125)
    g.check_resolution(UNIT)
    with pytest.raises(ValueError):
        Grid(extent=(8.3,), spacing=0.25)  # not an integral multiple
    with pytest.raises(ValueError):
        Grid(extent=(8.0, 8.0, 8.0, 8.0), spacing=0.5)
    for spacing in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            Grid(extent=(8.0,), spacing=spacing)
    coarse = Grid(extent=(8.0,), spacing=0.5)
    with pytest.raises(ValueError):
        coarse.check_resolution(UNIT)
    assert Grid(extent=(4.0, 2.0), spacing=0.25).dims == 2


def test_seed_field_boxes_and_masks():
    g = Grid(extent=(8.0,), spacing=0.25)
    f = seed_field(g, (0.0, 2.0))
    assert f.shape == (32,)
    assert f[:8].min() == 1.0 and f[8:].max() == 0.0
    assert seed_field(g, (0.5, 1.0), inside=0.5)[2:4].tolist() == [0.5, 0.5]
    # a boolean mask is not a box
    mask = np.zeros(g.shape, dtype=bool)
    mask[3] = True
    with pytest.raises(SeedingError, match="one \\(lo, hi\\) pair per axis"):
        seed_field(g, mask)
    with pytest.raises(SeedingError):
        seed_field(g, (9.0, 10.0))
    with pytest.raises(SeedingError):
        seed_field(g, (2.0, 1.0))
    g2 = Grid(extent=(4.0, 4.0), spacing=0.5)
    f2 = seed_field(g2, ((0.0, 1.0), (0.0, 4.0)))
    assert f2.sum() == pytest.approx(2 * 8)


def _diffuse(f, g, params, dt):
    """One pure-diffusion step (I + c L) f on the bound step operator."""
    out = np.zeros(f.size)
    bind_dia_matvec(step_operator(g, params, dt))(f.ravel(), out)
    return out.reshape(f.shape)


def test_pure_diffusion_conserves_mass_exactly():
    g = Grid(extent=(16.0,), spacing=0.25)
    rng = np.random.default_rng(7)
    f = rng.uniform(0.0, 1.0, g.shape)
    dt = 0.9 * g.cfl_limit(UNIT)
    total = f.sum()
    steps = 200
    for _ in range(steps):
        f = _diffuse(f, g, UNIT, dt)
    # rounding only: at most one unit in the last place per cell and step
    assert abs(f.sum() - total) <= steps * f.size * np.finfo(float).eps


def test_fixed_points_are_exact():
    # 0.5 of the diffusion bound gives c = 1/4 in 1d, where any summation
    # order is exact; the other fractions give c with a full mantissa
    for extent in ((8.0,), (3.0, 2.5), (1.5, 1.25, 1.0)):
        g = Grid(extent=extent, spacing=0.25)
        zero = np.zeros(g.shape)
        one = np.ones(g.shape)
        # the wave step up to its bound, diffusion alone up to the CFL one
        for limit, step in ((g.monotone_limit(UNIT), kpp_step),
                            (g.cfl_limit(UNIT), _diffuse)):
            fracs = (0.1, 0.3, 0.7, 0.9, 0.99, 1.0)
            for dt in (0.5 * g.cfl_limit(UNIT), *(x * limit for x in fracs)):
                if dt > limit:
                    continue
                for field in (zero, one):
                    out = field
                    for _ in range(3):
                        out = step(out, g, UNIT, dt)
                    assert out.tobytes() == field.tobytes()


def _pad_laplacian(f, spacing):
    """Reference stencil: edge-pad each axis, then the three-point sum."""
    lap = np.zeros_like(f, dtype=np.float64)
    inv_h2 = 1.0 / spacing**2
    for ax in range(f.ndim):
        pad = [(0, 0)] * f.ndim
        pad[ax] = (1, 1)
        g = np.pad(f, pad, mode="edge")
        lo = [slice(None)] * f.ndim
        hi = [slice(None)] * f.ndim
        lo[ax] = slice(0, -2)
        hi[ax] = slice(2, None)
        lap += (g[tuple(hi)] - 2.0 * f + g[tuple(lo)]) * inv_h2
    return lap


@pytest.mark.parametrize("extent", [(6.0,), (3.0, 2.5), (1.5, 1.25, 1.0)])
def test_diffusion_step_is_the_stencil_step(extent):
    g = Grid(extent=extent, spacing=0.25)
    dt = 0.9 * g.cfl_limit(UNIT)
    c = UNIT.d_coeff * dt / g.spacing**2
    op = _step_operator(g.shape, c)
    # I + c L: each row of a constant field sums, in the kernel's order, to
    # exactly that constant, and the operator is the stencil's
    one = np.ones(op.shape[0])
    y = np.zeros(op.shape[0])
    bind_dia_matvec(op)(one, y)
    assert (y == 1.0).all()
    lap = (op - sparse.eye_array(op.shape[0])).tocsc()
    for col in range(0, op.shape[0], 7):
        e = np.zeros(g.shape)
        e.flat[col] = 1.0
        assert np.allclose(lap[:, [col]].toarray().ravel(),
                           c * g.spacing**2
                           * _pad_laplacian(e, g.spacing).ravel(),
                           rtol=0.0, atol=4 * np.finfo(float).eps)
    rng = np.random.default_rng(len(extent))
    f = rng.uniform(0.0, 1.0, g.shape)
    got = _diffuse(f, g, UNIT, dt)
    want = f + dt * UNIT.d_coeff * _pad_laplacian(f, g.spacing)
    # both sum at most 2 * 3 + 1 terms of size <= 1, each rounding once
    assert np.abs(got - want).max() <= 8 * np.finfo(float).eps


def _kronsum_step_operator(shape, c):
    """The step operator as a Kronecker sum of per-axis path graphs."""
    paths = [sparse.diags_array([np.ones(n - 1)] * 2, offsets=[-1, 1])
             for n in shape]
    adj = functools.reduce(
        lambda a, p: sparse.kronsum(p, a, format="csr"), paths).tocsr()
    neighbours = np.diff(adj.indptr)
    ends = adj.indptr[1:]
    rows = np.arange(adj.shape[0] + 1, dtype=adj.indptr.dtype)
    diag = 1.0 - np.cumsum(np.full(neighbours.max(), c))[neighbours - 1]
    return sparse.csr_array(
        (np.insert(np.full(adj.nnz, c), ends, diag),
         np.insert(adj.indices, ends, rows[:-1]), adj.indptr + rows),
        shape=adj.shape,
    )


_OPERATOR_SHAPES = [(800,), (3200,), (40, 4), (20, 2, 2), (7, 5, 3), (1, 9),
                    (16, 1, 3)]


@pytest.mark.parametrize("shape", _OPERATOR_SHAPES)
@pytest.mark.parametrize("c", [0.1, 1.0 / 3.0, 0.49, 1e-3])
def test_step_operator_equals_the_kronecker_sum_byte_for_byte(shape, c):
    want = _kronsum_step_operator(shape, c)
    got = _step_operator(shape, c)
    assert got.shape == want.shape
    assert not got.data.flags.writeable and not got.offsets.flags.writeable
    # below by falling stride, above by rising stride, the diagonal last
    strides = [int(np.prod(shape[a + 1:])) for a, m in enumerate(shape)
               if m > 1]
    assert got.offsets.tolist() == [-s for s in strides] + strides[::-1] + [0]
    # every entry the kernel reads holds the Kronecker sum's entry, or an
    # explicit +0.0 where a wall cuts the stencil
    n, read = got.shape[0], {}
    for k, diag in zip(got.offsets.tolist(), got.data):
        for j in range(max(0, k), min(n, n + k)):
            read[j - k, j] = diag[j]
    coo = want.tocoo()
    pairs = zip(coo.row.tolist(), coo.col.tolist())
    assert np.array([read.pop(ij) for ij in pairs]).tobytes() == \
        coo.data.tobytes()
    walls = np.array(list(read.values()))
    assert (walls == 0.0).all() and not np.signbit(walls).any()


@pytest.mark.parametrize("shape", _OPERATOR_SHAPES)
@pytest.mark.parametrize("c", [0.1, 1.0 / 3.0, 0.49, 1e-3])
def test_step_kernel_adds_the_csr_kernels_bytes(shape, c):
    # the DIA kernel adds a row's terms in the CSR kernel's order, and a
    # wall's explicit 0 adds +0.0 onto a sum that is >= +0 already
    rng = np.random.default_rng(len(shape))
    n = int(np.prod(shape))
    x = rng.choice([0.0, 1.0, 0.5, 1e-300, *rng.uniform(0.0, 1.0, 4)], n)
    seed = rng.choice([0.0, 0.25, *rng.uniform(0.0, 0.1, 3)], n)
    got, want = seed.copy(), seed.copy()
    bind_dia_matvec(_step_operator(shape, c))(x, got)
    bind_matvec(_kronsum_step_operator(shape, c))(x, want)
    assert got.tobytes() == want.tobytes()


def test_step_rejects_unstable_dt():
    g = Grid(extent=(8.0,), spacing=0.25)
    assert g.monotone_limit(UNIT) < g.cfl_limit(UNIT)
    with pytest.raises(StabilityError):
        kpp_step(np.zeros(g.shape), g, UNIT, 1.01 * g.monotone_limit(UNIT))
    with pytest.raises(ValueError):
        kpp_step(np.zeros(g.shape), g, UNIT, -0.1)
    # NaN slips past the bound comparison, so the sign check must catch it
    with pytest.raises(ValueError):
        kpp_step(np.zeros(g.shape), g, UNIT, float("nan"))


def _written_out_step(f, g, dt):
    """One step in the kernel's order: the reaction, each neighbour's c f
    in increasing flat index, then the diagonal 1 - (those c summed), the
    clamp last."""
    c = UNIT.d_coeff * dt / g.spacing**2
    y = dt / UNIT.tau * (f * (1.0 - f))
    s = np.zeros(f.shape)
    # the row-major lower neighbours run from axis 0 in, the upper ones out
    order = [(ax, -1) for ax in range(f.ndim)]
    order += [(ax, 1) for ax in reversed(range(f.ndim))]
    for ax, step in order:
        neighbour = np.roll(f, -step, axis=ax)
        has = np.ones(f.shape, dtype=bool)
        wall = [slice(None)] * f.ndim
        wall[ax] = 0 if step < 0 else -1
        has[tuple(wall)] = False
        y = np.where(has, y + c * neighbour, y)
        s = np.where(has, s + c, s)
    return np.clip(y + (1.0 - s) * f, 0.0, 1.0)


@pytest.mark.parametrize("extent", [(6.0,), (3.0, 2.5), (1.5, 1.25, 1.0)])
@pytest.mark.parametrize("fixed_points", [True, False])
def test_many_steps_in_one_call_equal_single_steps(extent, fixed_points):
    g = Grid(extent=extent, spacing=0.25)
    dt = 0.9 * g.monotone_limit(UNIT)
    rng = np.random.default_rng(len(extent))
    f = rng.uniform(0.0, 1.0, g.shape)
    if fixed_points:  # cells at exactly 0 and 1 among the others
        f[f < 0.3] = 0.0
        f[f > 0.9] = 1.0
    before = f.copy()
    ref = f
    for _ in range(37):
        ref = _written_out_step(ref, g, dt)
    single = f
    for _ in range(37):
        single = kpp_step(single, g, UNIT, dt)
    many = kpp_step(f, g, UNIT, dt, steps=37)
    assert single.tobytes() == ref.tobytes()
    assert many.tobytes() == ref.tobytes()
    assert f.tobytes() == before.tobytes()


def test_zero_steps_copy_and_negative_steps_fail():
    g = Grid(extent=(8.0,), spacing=0.25)
    f = seed_field(g, (0.0, 2.0))
    dt = g.monotone_limit(UNIT)
    out = kpp_step(f, g, UNIT, dt, steps=0)
    assert out is not f and np.array_equal(out, f)
    out[0] = 0.5
    assert f[0] == 1.0
    with pytest.raises(ValueError, match="steps"):
        kpp_step(f, g, UNIT, dt, steps=-1)


@pytest.mark.parametrize("extent", [(6.0,), (3.0, 2.5), (1.5, 1.25, 1.0)])
@pytest.mark.parametrize("steps", [0, 1, 7])
@pytest.mark.parametrize("m", [1, 3])
def test_a_stacked_call_equals_successive_single_calls(extent, steps, m):
    g = Grid(extent=extent, spacing=0.25)
    dt = 0.9 * g.monotone_limit(UNIT)
    f = np.random.default_rng(len(extent)).uniform(0.0, 1.0, g.shape)
    before = f.copy()
    want, field = [], f
    for _ in range(m):
        field = kpp_step(field, g, UNIT, dt, steps)
        want.append(field.tobytes())
    stack = np.full((m,) + g.shape, np.nan)
    assert kpp_step(f, g, UNIT, dt, steps, out=stack) is stack
    assert [row.tobytes() for row in stack] == want
    assert f.tobytes() == before.tobytes()
    # f is read before any row is written, so the stack may hold it
    stack = np.full((m,) + g.shape, np.nan)
    stack[0] = f
    kpp_step(stack[0], g, UNIT, dt, steps, out=stack)
    assert [row.tobytes() for row in stack] == want


def test_a_stack_of_the_wrong_shape_or_dtype_fails_before_a_step(monkeypatch):
    calls = []
    monkeypatch.setattr("lecollapse.wave.reaction_diffusion",
                        lambda *args: calls.append(args))
    g = Grid(extent=(3.0, 2.5), spacing=0.25)
    f = seed_field(g, [(0.0, 1.0), (0.0, 2.5)])
    dt = g.monotone_limit(UNIT)
    for bad in (np.empty(g.shape), np.empty((2, 12, 9)),
                np.empty((2, 1) + g.shape), np.empty((2, 12)),
                np.empty((2,) + g.shape, dtype=np.float32)):
        with pytest.raises(ValueError, match="out must be"):
            kpp_step(f, g, UNIT, dt, 3, out=bad)
    assert calls == []


def test_axis_coords_are_built_once_and_read_only():
    g = Grid(extent=(4.0, 2.0), spacing=0.25)
    x = g.axis_coords(1)
    assert x is g.axis_coords(1)
    assert np.array_equal(x, (np.arange(8) + 0.5) * 0.25)
    with pytest.raises(ValueError):
        x[0] = 1.0


# the largest step kpp_step and CollapseSetup accept, as a fraction of the
# monotone bound: the step has no lower clamp, so the bound must hold there
_AT_BOUND = 1.0 + 1e-12
_SHAPES = [(64,), (16, 4), (4, 4, 4)]
_RAGGED = np.resize([0.0, 1.0, 0.5, 1e-300, 0.999], 64)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    f=arrays(np.float64, 64, elements=st.floats(0.0, 1.0)),
    frac=st.floats(0.1, 1.0),
    shape=st.sampled_from(_SHAPES),
)
@example(f=_RAGGED, frac=_AT_BOUND, shape=_SHAPES[0])
@example(f=_RAGGED, frac=_AT_BOUND, shape=_SHAPES[1])
@example(f=_RAGGED, frac=_AT_BOUND, shape=_SHAPES[2])
def test_step_preserves_bounds(f, frac, shape):
    g = Grid(extent=tuple(0.25 * n for n in shape), spacing=0.25)
    out = kpp_step(f.reshape(shape), g, UNIT, frac * g.monotone_limit(UNIT))
    assert (out >= 0.0).all() and (out <= 1.0).all()


def test_step_refuses_a_field_outside_the_unit_interval():
    # the step has no lower clamp, so it must not start from a negative
    # cell, and NaN would pass through every step
    g = Grid(extent=(8.0,), spacing=0.25)
    dt = g.monotone_limit(UNIT)
    for bad in (-1e-300, 1.0 + 2**-52, np.nan, -np.inf):
        f = seed_field(g, (0.0, 2.0))
        f[5] = bad
        for steps in (0, 1):
            with pytest.raises(ValueError, match=r"field values .* \[0, 1\]"):
                kpp_step(f, g, UNIT, dt, steps)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    a=arrays(np.float64, 24, elements=st.floats(0.0, 1.0)),
    b=arrays(np.float64, 24, elements=st.floats(0.0, 1.0)),
)
def test_step_is_monotone_in_the_field(a, b):
    # comparison principle: ordered fields stay ordered under one step
    g = Grid(extent=(6.0,), spacing=0.25)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    dt = g.monotone_limit(UNIT)
    out_lo = kpp_step(lo, g, UNIT, dt)
    out_hi = kpp_step(hi, g, UNIT, dt)
    assert (out_lo <= out_hi + 1e-12).all()


def test_front_position_interpolates():
    g = Grid(extent=(8.0,), spacing=0.25)
    x = g.axis_coords()
    f = np.clip(2.0 - 0.5 * x, 0.0, 1.0)  # hits 0.5 at x = 3
    assert front_position(f, g, 0.5) == pytest.approx(3.0, abs=1e-9)
    with pytest.raises(FrontUndefinedError):
        front_position(np.ones(g.shape), g)
    with pytest.raises(FrontUndefinedError):
        front_position(np.zeros(g.shape), g)
    with pytest.raises(ValueError):
        front_position(f, g, level=1.5)


def _scan_front(prof, x, level):
    """Reference locator: walk in from the far end to the first crossing."""
    if (prof >= level).all():
        raise FrontUndefinedError(f"profile saturated above level {level}")
    if (prof < level).all():
        raise FrontUndefinedError(f"profile everywhere below level {level}")
    for i in range(prof.size - 2, -1, -1):
        if prof[i] >= level > prof[i + 1]:
            frac = (prof[i] - level) / (prof[i] - prof[i + 1])
            return float(x[i] + frac * (x[i + 1] - x[i]))
    raise FrontUndefinedError(f"no downward crossing of level {level}")


def _same_front(got, want):
    """Both give the same float, or both raise the same error."""
    results = []
    for call in (got, want):
        try:
            results.append(call())
        except FrontUndefinedError as exc:
            results.append(f"undefined: {exc}")
    assert results[0] == results[1]
    return results[0]


def test_front_position_matches_the_reverse_scan():
    g = Grid(extent=(8.0,), spacing=0.25)
    x = g.axis_coords()
    rng = np.random.default_rng(11)
    profiles = [
        np.ones(g.shape),  # saturated
        np.zeros(g.shape),  # empty
        np.linspace(0.0, 1.0, 32),  # rises only: no downward crossing
        np.linspace(1.0, 0.0, 32),
        np.clip(2.0 - 0.5 * x, 0.0, 1.0),
        # several crossings, values exactly at the levels, plateaus
        np.repeat([1.0, 0.5, 0.2, 0.75, 0.9, 0.1, 0.5, 0.0], 4),
    ]
    profiles += [rng.uniform(size=32) for _ in range(20)]
    steps = [0.0, 0.25, 0.5, 0.75, 1.0]
    profiles += [rng.choice(steps, 32) for _ in range(20)]
    outcomes = set()
    for prof in profiles:
        for level in (0.1, 0.25, 0.5, 0.75, 0.9):
            out = _same_front(lambda: front_position(prof, g, level),
                              lambda: _scan_front(prof, x, level))
            outcomes.add(type(out))
    assert outcomes == {float, str}


_CELLS = st.one_of(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0, np.nan]),
                  st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(prof=arrays(np.float64, 32, elements=_CELLS),
       level=st.sampled_from([0.1, 0.5, 0.9]))
# NaN right after the last cell at the level, and a profile ending above it
@example(prof=np.r_[np.ones(4), np.nan, np.zeros(27)], level=0.5)
@example(prof=np.r_[np.ones(4), np.zeros(27), 1.0], level=0.5)
@example(prof=np.r_[np.full(8, 0.5), np.full(8, 0.1), np.ones(16)], level=0.5)
def test_front_position_equals_the_full_scan(prof, level):
    # plateaus and cells exactly at the level come from the sampled values
    g = Grid(extent=(8.0,), spacing=0.25)
    _same_front(lambda: front_position(prof, g, level),
                lambda: _scan_front(prof, g.axis_coords(), level))


def test_front_position_along_a_line_of_a_2d_field():
    # the line runs along axis 0 through the middle of the other axis
    g = Grid(extent=(6.0, 3.0), spacing=0.25)
    assert g.front_line == (slice(None), 6)
    rng = np.random.default_rng(12)
    f = rng.choice([0.0, 0.3, 0.5, 0.8, 1.0], g.shape)
    for level in (0.3, 0.5):
        _same_front(lambda: front_position(f, g, level),
                    lambda: _scan_front(f[:, 6], g.axis_coords(0), level))
    g3 = Grid(extent=(8.0, 1.25, 1.0), spacing=0.25)
    assert g3.front_line == (slice(None), 2, 2)
    f3 = np.zeros(g3.shape)
    f3[:12, 2, 2] = 1.0
    f3[:20, :2] = 1.0  # off the line
    assert front_position(f3, g3) == 3.0


def test_a_1d_field_takes_no_line_index():
    g = Grid(extent=(8.0,), spacing=0.25)
    assert g.front_line == (slice(None),)
    f = np.clip(2.0 - 0.5 * g.axis_coords(), 0.0, 1.0)
    assert front_position(f, g) == _scan_front(f, g.axis_coords(), 0.5)


def test_front_width_on_a_linear_ramp():
    g = Grid(extent=(8.0,), spacing=0.25)
    x = g.axis_coords()
    f = np.clip(2.0 - 0.5 * x, 0.0, 1.0)
    # levels 0.1 and 0.9 sit at x = 3.8 and x = 2.2
    assert front_width(f, g, 0.1, 0.9) == pytest.approx(1.6, abs=1e-9)


_LEVELS = st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(prof=arrays(np.float64, 32, elements=_CELLS), lo=_LEVELS, hi=_LEVELS)
# the fallback scan: NaN after the last cell above a level, a profile
# ending above it; then each level undefined in turn, and both
@example(prof=np.r_[np.ones(4), np.nan, np.zeros(27)], lo=0.1, hi=0.9)
@example(prof=np.r_[np.ones(4), np.zeros(27), 1.0], lo=0.1, hi=0.9)
@example(prof=np.r_[np.full(16, 0.5), np.zeros(16)], lo=0.1, hi=0.9)
@example(prof=np.r_[np.full(16, 0.95), np.full(16, 0.5)], lo=0.1, hi=0.9)
@example(prof=np.zeros(32), lo=0.1, hi=0.9)
def test_front_width_is_the_distance_of_two_front_positions(prof, lo, hi):
    g = Grid(extent=(8.0,), spacing=0.25)
    if not lo < hi:
        with pytest.raises(ValueError, match="lo < hi"):
            front_width(prof, g, lo, hi)
        return
    _same_front(lambda: front_width(prof, g, lo, hi),
                lambda: abs(front_position(prof, g, lo)
                            - front_position(prof, g, hi)))


# stacks of fields: whole fields saturated, empty, falling ramps (one
# crossing of every level) or free cells (plateaus, NaN, several crossings)
_WHOLE_FIELDS = {
    "cells": None,
    "ones": lambda n: np.ones(n),
    "zeros": lambda n: np.zeros(n),
    "ramp": lambda n: np.linspace(1.0, 0.0, n),
    "rising": lambda n: np.linspace(0.0, 1.0, n),
}


@st.composite
def _front_stacks(draw):
    """(grid, stack): fields with leading batch axes."""
    shape = tuple(draw(st.lists(st.integers(4, 6), min_size=1, max_size=3)))
    lead = draw(st.sampled_from([(), (1,), (3,), (2, 3), (0,), (2, 0)]))
    grid = Grid(tuple(0.25 * n for n in shape), 0.25)
    stack = draw(arrays(np.float64, lead + shape, elements=_CELLS))
    # some stacks draw from fields that have fronts more often, so that
    # many-field stacks with every crossing defined come up too
    kinds = draw(st.sampled_from([sorted(_WHOLE_FIELDS), ["cells", "ramp"],
                                  ["ramp"]]))
    for field in stack.reshape((-1,) + shape):
        make = _WHOLE_FIELDS[draw(st.sampled_from(kinds))]
        if make:
            line = make(shape[0]).reshape((-1,) + (1,) * (grid.dims - 1))
            field[...] = line
    return grid, stack


def _outcome(call):
    """The call's bytes, or the type, message and index of its error."""
    try:
        return np.asarray(call(), dtype=np.float64).tobytes()
    except (FrontUndefinedError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "index", None)


def _one_by_one(stack, grid, call):
    """Single-field calls in C order, up to the first that raises.

    That field's error gets its C-order position as its index.
    """
    lead = stack.shape[:stack.ndim - grid.dims]
    out = np.empty(lead)
    for n, i in enumerate(np.ndindex(lead)):
        try:
            got = call(stack[i])
        except FrontUndefinedError as exc:
            assert exc.index == 0  # a single field is a stack of one
            exc.index = n
            raise
        assert type(got) is float
        out[i] = got
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_front_stacks(), level=_LEVELS,
       lo_hi=st.sampled_from([(0.1, 0.9), (0.25, 0.5), (0.5, 0.75)]))
def test_a_stack_of_fields_equals_its_single_fields_bit_for_bit(
        case, level, lo_hi):
    grid, stack = case
    calls = [
        lambda f: front_position(f, grid, level),
        lambda f: front_width(f, grid, *lo_hi),
    ]
    for call in calls:
        want = _outcome(lambda: _one_by_one(stack, grid, call))
        assert _outcome(lambda: call(stack)) == want


def test_front_speed_fit_recovers_a_line():
    t = np.linspace(0.0, 50.0, 200)
    x = 0.7 * t + 3.0
    fit = front_speed(t, x, UNIT)
    assert fit.speed == pytest.approx(0.7, abs=1e-9)
    assert fit.residual < 1e-9
    assert fit.kpp_speed == pytest.approx(UNIT.kpp_speed)
    assert fit.transport_speed == pytest.approx(UNIT.sound_speed)
    with pytest.raises(ValueError):
        front_speed(t[:20], x[:20], UNIT)  # only 5 time units long


def test_kpp_front_runs_at_the_pulled_speed():
    # pulled fronts creep toward the minimal speed from above in time and
    # feel first-order step error from the explicit reaction, so this needs
    # a small step and a long run to sit inside 5%
    g = Grid(extent=(120.0,), spacing=0.125)
    f = seed_field(g, (0.0, 2.0))
    dt = 0.2 * g.monotone_limit(UNIT)
    times, positions = [], []
    t = 0.0
    for n in range(int(np.ceil(100.0 / dt))):
        f = kpp_step(f, g, UNIT, dt)
        t += dt
        if n % 10 == 0 and 0.1 < f.max() and f[-1] < 0.1:
            try:
                positions.append(front_position(f, g))
                times.append(t)
            except FrontUndefinedError:
                pass
    fit = front_speed(np.asarray(times), np.asarray(positions), UNIT)
    assert fit.speed == pytest.approx(UNIT.kpp_speed, rel=0.05)
    # the settled front stays a couple of mean free paths wide
    assert 0.5 <= front_width(f, g) <= 10.0


# the coupled multi-channel step needs p, so it lives in the engine


def _production_step(grid, f, p, dt):
    stencil = bind_dia_matvec(step_operator(grid, UNIT, dt), p.size)
    return _field_step(f, p, dt / UNIT.tau, stencil)


def test_coupled_fields_compete_for_the_untouched_fraction():
    g = Grid(extent=(16.0,), spacing=0.25)
    f = np.stack([seed_field(g, (0.0, 2.0)), seed_field(g, (14.0, 16.0))])
    f = f[None]  # one run
    p = np.array([[0.5, 0.5]])
    dt = 0.8 * g.monotone_limit(UNIT)

    def f0(f):
        return 1.0 - np.einsum("rk,rk...->r...", p, f)

    f0_start = f0(f).mean()
    stencil = bind_dia_matvec(step_operator(g, UNIT, dt), p.size)
    for _ in range(400):
        f = _field_step(f, p, dt / UNIT.tau, stencil)
    assert f0(f).mean() < f0_start
    assert (f >= 0.0).all() and (f <= 1.0).all()
    assert (f0(f) >= -1e-12).all()


def test_absorbed_channel_is_frozen():
    g = Grid(extent=(8.0,), spacing=0.25)
    f = np.stack([seed_field(g, (0.0, 2.0)), seed_field(g, (6.0, 8.0))])
    # two runs: the first has absorbed channel 1, the second has both live
    f = np.stack([f, f])
    p = np.array([[1.0, 0.0], [0.5, 0.5]])
    dt = 0.5 * g.cfl_limit(UNIT)
    out = _production_step(g, f, p, dt)
    assert np.array_equal(out[0, 1], f[0, 1])
    assert not np.array_equal(out[0, 0], f[0, 0])
    assert not np.array_equal(out[1, 1], f[1, 1])


# properties of the production step: every run and channel of a batch,
# one to three axes, fields at and between 0 and 1, p with zeros


@st.composite
def _coupled_batches(draw, channels=st.integers(1, 4)):
    """(grid, f, p, dt): a batch of runs the engine's field step takes."""
    shape = tuple(draw(st.lists(st.integers(4, 7), min_size=1, max_size=3)))
    runs, k = draw(st.integers(1, 3)), draw(channels)
    level = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
    f = draw(arrays(np.float64, (runs, k) + shape, elements=level))
    w = draw(arrays(np.float64, (runs, k), elements=level))
    w[w.sum(axis=1) == 0.0, 0] = 1.0
    grid = Grid(tuple(0.25 * n for n in shape), 0.25)
    frac = draw(st.floats(0.01, 1.0))
    # normalized rows sum to 1 only to rounding, as the engine's p does
    p = w / w.sum(axis=1, keepdims=True)
    return grid, f, p, frac * grid.monotone_limit(UNIT)


_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def _at_bound(shape):
    """A batch on a grid of ``shape`` at the largest step CollapseSetup takes."""
    grid = Grid(tuple(0.25 * n for n in shape), 0.25)
    f = np.resize(_RAGGED, (2, 3) + shape)
    p = np.array([[0.2, 0.3, 0.5], [0.0, 1e-300, 1.0]])
    return grid, f, p, _AT_BOUND * grid.monotone_limit(UNIT)


@_PROPERTY
@given(case=_coupled_batches())
@example(case=_at_bound((5,)))
@example(case=_at_bound((4, 5)))
@example(case=_at_bound((4, 4, 4)))
def test_field_step_stays_in_the_unit_interval(case):
    out = _production_step(*case)
    assert ((out >= 0.0) & (out <= 1.0)).all()


@_PROPERTY
@given(case=_coupled_batches())
def test_field_step_keeps_the_bytes_of_channels_at_p_zero(case):
    grid, f, p, dt = case
    out = _production_step(grid, f, p, dt)
    frozen = p == 0.0
    assert out[frozen].tobytes() == f[frozen].tobytes()


_LINE = Grid((1.25,), 0.25)


@_PROPERTY
@given(case=_coupled_batches())
# p sums to just above 1, so at fields of 1 the sum puts f0 below 0
@example(case=(_LINE, np.full((1, 4, 5), 0.75),
               np.array([[0.41889112244291205, 0.0, 0.4141124456706096,
                          0.16699643188647842]]),
               _LINE.monotone_limit(UNIT)))
def test_field_step_fixes_fields_of_zero_and_one_exactly(case):
    # all channels at 0, all at 1, and each channel at 0 or 1 by its first
    # cell: the partner f0 may be 0, 1 or anything between
    grid, f, p, dt = case
    mixed = np.zeros_like(f)
    mixed[f.reshape(f.shape[:2] + (-1,))[..., 0] > 0.5] = 1.0
    for fixed in (np.zeros_like(f), np.ones_like(f), mixed):
        out = _production_step(grid, fixed, p, dt)
        assert out.tobytes() == fixed.tobytes()


@_PROPERTY
@given(case=_coupled_batches(channels=st.just(1)))
def test_one_channel_at_p_one_steps_as_kpp_step(case):
    grid, f, _, dt = case
    out = _production_step(grid, f, np.ones((len(f), 1)), dt)
    for run, field in zip(out, f):
        assert run[0].tobytes() == kpp_step(field[0], grid, UNIT, dt).tobytes()


def _row_loop_step(grid, f, p, dt):
    """The engine's field step as a loop over (run, channel) rows, each
    stepped by the CSR kernel on the Kronecker-sum operator."""
    row = bind_matvec(_kronsum_step_operator(
        grid.shape, UNIT.d_coeff * dt / grid.spacing**2))

    def rows(g, out):
        for x, y in zip(g.reshape(p.size, -1), out.reshape(p.size, -1)):
            row(x, y)

    f0 = np.maximum(1.0 - np.einsum("rk,rk...->r...", p, f), 0.0)
    out = reaction_diffusion(f, f0[:, None], dt / UNIT.tau, rows,
                             np.empty(f.shape))
    out[p == 0.0] = f[p == 0.0]
    return out


@_PROPERTY
@given(case=_coupled_batches(), spare=st.integers(0, 3))
def test_one_call_field_step_equals_the_row_loop_bit_for_bit(case, spare):
    # a kernel bound for more fields than the batch holds, as after runs
    # end, steps the batch as the one bound for exactly its fields
    grid, f, p, dt = case
    stencil = bind_dia_matvec(step_operator(grid, UNIT, dt), p.size + spare)
    out = _field_step(f, p, dt / UNIT.tau, stencil)
    assert out.tobytes() == _row_loop_step(grid, f, p, dt).tobytes()


def _mean_chain(values, grid, lam):
    """Reference: ``ndarray.mean`` over each fine axis, innermost first."""
    per = round(lam / grid.spacing)
    lead = values.shape[: values.ndim - grid.dims]
    blocks = sum(((n, per) for n in cell_counts(grid, lam)), ())
    mean = values.reshape(lead + blocks)
    for k in reversed(range(grid.dims)):
        mean = mean.mean(axis=len(lead) + 2 * k + 1)
    return mean.reshape(lead + (-1,))


@pytest.mark.parametrize("counts", [(5,), (2, 3), (2, 4, 2)])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
@pytest.mark.parametrize("per", [2, 3, 4])
def test_cell_averages_equal_the_mean_chain_bit_for_bit(counts, lead, per):
    # values spanning several binades round differently per summation
    # order, so one division by the block volume does not give these bytes
    spacing = 0.25
    g = Grid(tuple(n * per * spacing for n in counts), spacing)
    rng = np.random.default_rng([per, len(lead), len(counts)])
    vals = rng.uniform(size=lead + g.shape) * 10.0 ** rng.integers(
        -3, 3, lead + g.shape)
    got = cell_averages(vals, g, per * spacing)
    assert got.tobytes() == _mean_chain(vals, g, per * spacing).tobytes()


def test_cell_averages_match_manual_blocks():
    g = Grid(extent=(4.0, 2.0), spacing=0.25)
    rng = np.random.default_rng(3)
    vals = rng.uniform(size=g.shape)
    got = cell_averages(vals, g, 1.0)
    assert got.shape == (8,)
    manual = vals[4:8, 4:8].mean()  # cell (1, 1) in row-major order
    assert got[1 * 2 + 1] == pytest.approx(manual)
    batch = rng.uniform(size=(3, 2) + g.shape)
    got_b = cell_averages(batch, g, 1.0)
    assert got_b.shape == (3, 2, 8)
    assert got_b[2, 1, 3] == pytest.approx(batch[2, 1][4:8, 4:8].mean())
    assert cell_counts(g, 1.0) == (4, 2)
    # the cached block shape for lam = 1 is warm: bad input still fails,
    # and a failed lam is rejected again on the next call
    with pytest.raises(ValueError, match="trailing axes"):
        cell_averages(vals.T, g, 1.0)
    with pytest.raises(ValueError, match="trailing axes"):
        cell_averages(batch[..., :4], g, 1.0)
    for _ in range(2):
        with pytest.raises(ValueError, match="integral multiple"):
            cell_averages(vals, g, 0.3)
