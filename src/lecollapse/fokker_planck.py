"""Diffusion limit of the probability random walk on the simplex.

In the limit of many small slips the ensemble density Phi(p, t) of channel
probabilities obeys a Fokker-Planck equation with no drift and state
dependent diffusion coefficients

    d/dt Phi = sum_jk  d^2/dp_j dp_k [ M_jk(p) Phi ],

where M is built from the same field overlap integrals the slip rates use.
Because M vanishes linearly at the simplex boundary, the continuum
density never actually reaches it: boundary currents decay as the density
piles up nearby, so a diffusion description cannot produce definite
outcomes. The discrete walk, whose jumps are small but finite, crosses the
same boundary in finite time. The solvers here make that contrast
quantitative for two and three channels.

On the zero-sum constraint surface the increments of the walk have
covariance proportional to diag(p) - p p^T, which is positive
semidefinite. Combining the two channel overlaps of the mixed terms by
their mean reproduces exactly that form; combining them by their sum (the
face-value reading of the per-step covariance formula) breaks positive
semidefiniteness on part of the K = 3 simplex, so the diffusion matrix
defaults to the mean combination. ``diffusion_coefficients`` exposes both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Callable

import numpy as np

from lecollapse._csr import bind_matvec
from lecollapse.engine import SlipParams, _cell_means, probability_vector
from lecollapse.wave import Grid, StabilityError

__all__ = [
    "ComparisonError",
    "FieldSummary",
    "field_summary",
    "diffusion_coefficients",
    "SimplexGrid",
    "FPDensity",
    "stable_step",
    "FPScheme",
    "fp_scheme",
    "fp_step",
    "boundary_current",
    "edge_mass",
    "ensemble_histogram",
    "HistogramComparison",
    "compare_histogram",
]


MAX_RESOLUTION = 1000


class ComparisonError(ValueError):
    """Histogram and density are not comparable as given."""


@dataclass(frozen=True)
class FieldSummary:
    """Channel overlap integrals of a frozen field configuration.

    overlap[j] stands for the integral of n_a f_j f_0 over the box,
    evaluated as atoms-per-cell times the sum of cell means; it is the
    only field information the diffusion coefficients need.
    """

    overlap: np.ndarray

    def __post_init__(self):
        # a read-only copy: fp_scheme keys its cache on these bytes
        arr = np.array(self.overlap, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1 or (arr < 0).any():
            raise ValueError("overlap must be a nonnegative 1d vector")
        arr.setflags(write=False)
        object.__setattr__(self, "overlap", arr)

    @property
    def channels(self) -> int:
        return self.overlap.size


def field_summary(grid: Grid, f, p_ref, params: SlipParams) -> FieldSummary:
    """Reduce one field per channel to its overlap integrals.

    f has shape (channels,) + grid.shape with every value in [0, 1], up
    to 1e-12 of rounding; p_ref is the channel probability vector that
    forms the unentangled fraction f0 = 1 - sum_k p_k f_k. The cell means
    are the engine's (``_cell_means``), so the overlaps see exactly the
    cells the slip rates see.
    """
    f = np.asarray(f, dtype=np.float64)
    p_ref = probability_vector(p_ref, "p_ref")
    if f.shape != p_ref.shape + grid.shape:
        raise ValueError(f"fields must have shape ({p_ref.size},) + "
                         f"{grid.shape}, got {f.shape}")
    if not ((f >= -1e-12) & (f <= 1.0 + 1e-12)).all():  # NaN fails too
        raise ValueError("field values must lie in [0, 1]")
    f_cells, f0_cells = _cell_means(f[None], p_ref[None], grid, params.lam)
    return FieldSummary(
        params.n_c * (f_cells[0] * f0_cells[0][None, :]).sum(axis=1)
    )


def diffusion_coefficients(
    p,
    summary: FieldSummary,
    params: SlipParams,
    pair_combination: str = "mean",
) -> np.ndarray:
    """Diffusion matrix M(p) of the simplex Fokker-Planck equation.

    M_jj = W p_j (1 - p_j) s_j / (tau N_c^2) and the mixed entries carry
    -W p_j p_k s_jk / (tau N_c^2) with s_jk the mean (default) or sum of
    the two channel overlaps. With the mean and equal overlaps s the
    matrix is exactly (W s / tau N_c^2)(diag(p) - p p^T), positive
    semidefinite on the whole simplex; the module docstring explains why
    the sum variant is offered but not used by the solver. Every entry
    vanishes linearly as p approaches a vertex or an edge.
    """
    p = probability_vector(p)
    if summary.channels != p.size:
        raise ValueError("summary and p disagree on channel count")
    if pair_combination not in ("mean", "sum"):
        raise ValueError("pair_combination must be 'mean' or 'sum'")
    s = summary.overlap
    scale = params.w / (params.tau * params.n_c**2)
    pair = 0.5 * (s[:, None] + s[None, :])
    if pair_combination == "sum":
        pair = s[:, None] + s[None, :]
    m = -scale * np.outer(p, p) * pair
    np.fill_diagonal(m, scale * p * (1.0 - p) * s)
    return m


@dataclass(frozen=True)
class SimplexGrid:
    """Cell-centered grid on the independent simplex coordinates.

    Two channels leave one coordinate p_1 in [0, 1]; three channels leave
    (p_1, p_2) on the triangle p_1 + p_2 <= 1, discretized on the square
    with only the cells whose center satisfies the constraint marked
    valid. ``resolution`` counts cells per axis, at most MAX_RESOLUTION,
    so a two-dimensional density array stays at 8 MB.
    """

    channels: int
    resolution: int

    def __post_init__(self):
        if self.channels not in (2, 3):
            raise ValueError("channels must be 2 or 3: the solver supports "
                             "two or three channels")
        if self.resolution < 4:
            raise ValueError("resolution must be at least 4 cells per axis")
        if self.resolution > MAX_RESOLUTION:
            raise ValueError(f"resolution must be at most {MAX_RESOLUTION} "
                             "cells per axis")

    @property
    def dims(self) -> int:
        return self.channels - 1

    @property
    def spacing(self) -> float:
        return 1.0 / self.resolution

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.resolution,) * self.dims

    def centers(self) -> np.ndarray:
        return (np.arange(self.resolution) + 0.5) * self.spacing

    def valid(self) -> np.ndarray:
        """Mask of cells whose center lies inside the simplex (read-only)."""
        return self._valid

    @cached_property
    def _valid(self) -> np.ndarray:
        if self.dims == 1:
            mask = np.ones(self.shape, dtype=bool)
        else:
            x = self.centers()
            mask = x[:, None] + x[None, :] < 1.0
        mask.setflags(write=False)
        return mask


@dataclass
class FPDensity:
    """Density values on a simplex grid, normalized as a cell histogram.

    phi holds the probability mass per cell divided by the cell volume;
    invalid cells (outside the triangle) carry exactly 0. ``clamped``
    accumulates the (mass-neutral) positivity repairs of the mixed-term
    stencil, a solver diagnostic; it stays exactly 0 in one dimension
    below the step bound, where no repair runs, and small in two.
    """

    grid: SimplexGrid
    phi: np.ndarray
    time: float = 0.0
    clamped: float = 0.0

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=np.float64)
        if self.phi.shape != self.grid.shape:
            raise ValueError(f"phi must have shape {self.grid.shape}")
        if np.count_nonzero(self.phi < 0):
            raise ValueError("density must be nonnegative")
        if self.grid.dims == 2 and np.count_nonzero(
                self.phi[~self.grid.valid()]):
            raise ValueError("density must vanish outside the simplex")

    @classmethod
    def _unchecked(cls, grid: SimplexGrid, phi: np.ndarray, time: float,
                   clamped: float) -> FPDensity:
        """A density whose maker guarantees what ``__post_init__`` checks
        (float64 phi of the grid's shape, nonnegative, 0 off the triangle)."""
        density = cls.__new__(cls)
        density.grid, density.phi = grid, phi
        density.time, density.clamped = time, clamped
        return density

    @property
    def mass(self) -> float:
        return float(self.phi.sum() * self.grid.spacing**self.grid.dims)

    def mean(self) -> np.ndarray:
        """First moment in the independent coordinates."""
        w = self.phi / self.phi.sum()
        x = self.grid.centers()
        if self.grid.dims == 1:
            return np.array([float((w * x).sum())])
        return np.array([
            float((w * x[:, None]).sum()),
            float((w * x[None, :]).sum()),
        ])

    @classmethod
    def near_delta(cls, grid: SimplexGrid, p0, width_cells: float = 2.0):
        """Narrow Gaussian bump around p0, normalized to unit mass."""
        p0 = probability_vector(p0, "p0")
        if p0.size != grid.channels:
            raise ValueError("p0 does not match the grid's channel count")
        if width_cells <= 0:
            raise ValueError("width_cells must be positive")
        sigma = width_cells * grid.spacing
        x = grid.centers()
        if grid.dims == 1:
            phi = np.exp(-0.5 * ((x - p0[0]) / sigma) ** 2)
        else:
            gx = np.exp(-0.5 * ((x - p0[0]) / sigma) ** 2)
            gy = np.exp(-0.5 * ((x - p0[1]) / sigma) ** 2)
            phi = gx[:, None] * gy[None, :]
            phi[~grid.valid()] = 0.0
        total = phi.sum() * grid.spacing**grid.dims
        if total <= 0:
            raise ValueError("initial bump misses the simplex interior")
        return cls(grid=grid, phi=phi / total)


def _reduced_coefficients(
    grid: SimplexGrid, summary: FieldSummary, params: SlipParams
):
    """Analytic diffusion coefficients at the cell centres.

    For two channels the equation reduces to d_t Phi = d11 [ a(p) Phi ]
    with a(p) = M_11(p). For three, eliminating p_3 gives the 2x2 matrix
    Q_ab = M_ab - M_a3 - M_b3 + M_33 over (p_1, p_2). Returns (a11,) or
    (q11, q22, q12), each an array of ``grid.shape`` at the cell centres;
    the scheme takes every coefficient there, and its mixed term averages
    q12 Phi over the four cells of each corner.
    """
    if summary.channels != grid.channels:
        raise ValueError("summary and grid disagree on channel count")
    s = summary.overlap
    scale = params.w / (params.tau * params.n_c**2)
    x = grid.centers()
    if grid.dims == 1:
        return (scale * s[0] * x * (1.0 - x),)
    sbar = 0.5 * (s[:, None] + s[None, :])
    xx, yy = np.meshgrid(x, x, indexing="ij")
    p = np.stack([xx, yy, 1.0 - xx - yy])

    def m(i, j):  # M entries at p = (x, y, 1 - x - y), mean pair combination
        if i == j:
            return scale * s[i] * p[i] * (1.0 - p[i])
        return -scale * sbar[i, j] * p[i] * p[j]

    def q(a, b):
        return m(a, b) - m(a, 2) - m(b, 2) + m(2, 2)

    return q(0, 0), q(1, 1), q(0, 1)


def stable_step(
    grid: SimplexGrid, summary: FieldSummary, params: SlipParams
) -> float:
    """Largest dt fp_scheme accepts for this grid and coefficient set.

    A cell loses at most the sum of |q| over the axes plus 2 |q12| per unit
    time; the bound spans the whole square, outside cells included.
    """
    coeffs = _reduced_coefficients(grid, summary, params)
    rate = (sum(np.abs(q) for q in coeffs[:grid.dims])
            + sum(2 * np.abs(q) for q in coeffs[grid.dims:]))
    amax = float(rate.max())
    return np.inf if amax <= 0 else grid.spacing**2 / (2.0 * amax)


def _generator(grid: SimplexGrid, summary: FieldSummary, params: SlipParams):
    """(G, c): the flux-form generator on the cells in C order, and the row
    vector with boundary_current = c . phi. Cells outside the triangle have
    empty rows and columns in G and zeros in c.
    """
    from scipy import sparse

    coeffs = _reduced_coefficients(grid, summary, params)
    dims, r, h = grid.dims, grid.resolution, grid.spacing
    valid = grid.valid()
    cells = valid.ravel().astype(float)
    diag_q = [sparse.diags_array(np.where(valid, q, 0.0).ravel())
              for q in coeffs]
    diff = sparse.diags_array([-np.ones(r - 1), np.ones(r - 1)],
                              offsets=[0, 1], shape=(r - 1, r))
    terms = []
    current = np.zeros(r**dims)
    for axis in range(dims):
        # D_a differences (q Phi) across every face normal to the axis; a
        # face carries flux only if both its cells lie in the triangle
        d = reduce(sparse.kron, [diff if a == axis else sparse.eye_array(r)
                                 for a in range(dims)])
        face = abs(d) @ cells == 2
        flux = sparse.diags_array(face.astype(float)) @ d @ diag_q[axis]
        terms.append(-d.T @ flux)
        # the boundary current takes the first face in from the low edge
        # (+1) and the last face of each line before it leaves the
        # triangle or the grid (-1), both one cell in from the boundary
        shape = list(grid.shape)
        shape[axis] -= 1
        f = np.moveaxis(face.reshape(shape), axis, 0)
        weight = np.zeros(f.shape)
        weight[0] += f[0]
        weight[:-1] -= f[:-1] & ~f[1:]
        weight[-1] -= f[-1]
        current += flux.T @ np.moveaxis(weight, 0, axis).ravel()
    if dims == 2:
        # mixed term 2 d1 d2 (q12 Phi): each corner averages its four
        # cells and feeds them back with alternating signs; only corners
        # whose four cells all lie in the triangle take part
        cross = sparse.kron(diff, diff)
        corner = sparse.diags_array((abs(cross) @ cells == 4).astype(float))
        terms.append(2 * cross.T @ corner @ (abs(cross) / 4) @ diag_q[2])
    generator = (sum(terms) / h**2).tocsr()
    generator.eliminate_zeros()
    return generator, current * h ** (dims - 2)


@dataclass(frozen=True)
class FPScheme:
    """The explicit scheme at one step size, as ``fp_scheme`` builds it.

    ``cells`` holds the flat indices of the triangle's cells, or is None
    when every cell is valid (one dimension). ``operator`` is A = I + dt G
    on those cells, which hold every entry of G, and ``matvec`` is the CSR
    kernel bound to A. ``current`` is the row vector c over the whole
    grid with boundary_current = c . phi, zero outside the triangle.
    ``nonnegative`` says that no entry of A is negative: then a
    nonnegative density stays nonnegative exactly, rounding included, and
    the positivity repair can never fire. Below the step bound that holds
    in one dimension (at the bound itself a diagonal entry can round to
    just under zero); the mixed term of two puts negative entries off the
    diagonal. Every array is read-only.
    """

    grid: SimplexGrid
    dt: float
    cells: np.ndarray | None
    operator: sparse.csr_array
    matvec: Callable
    current: np.ndarray
    nonnegative: bool


def fp_scheme(
    grid: SimplexGrid, summary: FieldSummary, params: SlipParams, dt: float
) -> FPScheme:
    """The scheme that steps densities on ``grid`` by dt.

    Raises ValueError unless dt is positive and StabilityError if it
    exceeds ``stable_step``. A build takes milliseconds, so the last two
    are kept: a process that alternates two runs rebuilds neither.
    """
    return _scheme(grid, summary.overlap.tobytes(), params, dt)


# the key holds every input the scheme depends on, so a hit is always what
# a fresh build would give
@lru_cache(maxsize=2)
def _scheme(grid: SimplexGrid, overlap: bytes, params: SlipParams, dt: float):
    from scipy import sparse

    if not dt > 0:
        raise ValueError("dt must be positive")
    summary = FieldSummary(np.frombuffer(overlap))
    bound = stable_step(grid, summary, params)
    if dt > bound * (1.0 + 1e-12):
        raise StabilityError(f"dt = {dt} exceeds the diffusion bound {bound}")
    g, current = _generator(grid, summary, params)
    cells = None
    if not grid.valid().all():
        cells = np.flatnonzero(grid.valid())
        cells.setflags(write=False)
        g = g[cells][:, cells]
    a = (sparse.eye_array(g.shape[0]) + dt * g).tocsr()
    for arr in (a.data, a.indices, a.indptr, current):
        arr.setflags(write=False)
    return FPScheme(grid=grid, dt=dt, cells=cells, operator=a,
                    matvec=bind_matvec(a), current=current,
                    nonnegative=not (a.data < 0.0).any())


def _check_grid(density: FPDensity, scheme: FPScheme) -> None:
    # identity first: a density on the scheme's own grid object costs one test
    if density.grid is not scheme.grid and density.grid != scheme.grid:
        raise ValueError(f"the density's grid {density.grid} is not the "
                         f"scheme's {scheme.grid}")


def fp_step(density: FPDensity, scheme: FPScheme, steps: int = 1) -> FPDensity:
    """``steps`` explicit steps of the simplex Fokker-Planck equation.

    A step is one product with A = I + dt G, G the flux-form generator.
    Along each axis the face flux is the difference of (a Phi) across the
    face, and in two dimensions the mixed term 2 d1 d2 (q12 Phi) runs
    through the cell corners. Each face or corner feeds its cells with
    opposite signs, so every column of G sums to zero and the total mass
    is conserved to rounding. Faces and corners that touch a cell outside
    the triangle carry nothing, and the coefficients vanish on the simplex
    boundary, so mass can pile up near the boundary but never cross it.
    The scheme holds A on the triangle's cells, checked against the step
    bound. A call gathers those cells once, steps that vector and scatters
    it once; in one dimension nothing is gathered. Only when A has a
    negative entry, as the two-dimensional mixed term gives it, can a cell
    go negative; then negative cells are clamped, the density is rescaled
    to its mass before the step, and the removed mass is accumulated in
    ``clamped``. The result is thus nonnegative and 0 outside the triangle
    by construction, and skips ``FPDensity``'s re-scan.

    One call with ``steps = n`` equals n calls with ``steps = 1`` bit for
    bit; ``steps = 0`` returns a copy. The caller's density is never
    modified. A density on another grid than the scheme's is refused.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    _check_grid(density, scheme)
    grid, dt = density.grid, scheme.dt
    matvec, cells = scheme.matvec, scheme.cells
    cell = grid.spacing**grid.dims
    flat = density.phi.ravel()
    phi = flat.copy() if cells is None else flat[cells]
    new = np.empty(phi.size)
    neg = None if scheme.nonnegative else np.empty(phi.size, dtype=bool)
    time, clamped = density.time, density.clamped
    for _ in range(steps):
        new.fill(0.0)
        matvec(phi, new)
        if neg is not None:
            np.less(new, 0.0, out=neg)
            if np.count_nonzero(neg):
                # clamp and rescale so the repair stays mass neutral
                clamped += float(-new[neg].sum() * cell)
                np.maximum(new, 0.0, out=new)
                total = new.sum()
                if total > 0.0:
                    new *= phi.sum() / total
        phi, new = new, phi
        time = time + dt
    if cells is not None:
        phi, new = np.zeros(flat.size), phi
        phi[cells] = new
    return FPDensity._unchecked(grid, phi.reshape(density.phi.shape), time,
                                clamped)


def boundary_current(density: FPDensity, scheme: FPScheme) -> float:
    """Probability current through the simplex boundary, outward positive.

    The boundary faces themselves carry exactly zero in the scheme, so the
    outward current is read one face in: the face flux of the first
    interior face at each low edge, and of the last face before each line
    leaves the triangle. Those fluxes are linear in phi, so the current
    is the scheme's fixed row vector applied to it. The result decays in
    time as the density settles against the boundary, the signature that
    diffusion alone never absorbs.
    """
    _check_grid(density, scheme)
    return float(scheme.current @ density.phi.ravel())


def ensemble_histogram(results, grid: SimplexGrid) -> np.ndarray:
    """Histogram of final (or current) channel probabilities as a density.

    ``results`` holds one probability vector per run, a (runs, K) array;
    each run contributes its first dims independent coordinates. The
    counts are normalized by run count and cell volume so the result is
    comparable to FPDensity.phi. Absorbed runs land in the outermost
    cells.
    """
    points = np.asarray(results, dtype=np.float64)
    if points.ndim != 2 or not len(points):
        raise ComparisonError("no results to bin")
    pts = np.clip(points[:, : grid.dims], 0.0, np.nextafter(1.0, 0.0))
    idx = np.minimum((pts / grid.spacing).astype(int), grid.resolution - 1)
    phi = np.zeros(grid.shape)
    np.add.at(phi, tuple(idx.T), 1.0)
    return phi / (len(points) * grid.spacing**grid.dims)


@dataclass(frozen=True)
class HistogramComparison:
    """Total-variation distance plus boundary-mass bookkeeping."""

    total_variation: float
    fp_boundary_mass: float
    mc_boundary_mass: float
    n_runs: int


def _edge_mask(grid: SimplexGrid, cells: int) -> np.ndarray:
    """Valid cells within ``cells`` layers of any simplex boundary."""
    if cells < 1:
        raise ValueError("cells must be at least 1")
    edge = np.zeros(grid.shape, dtype=bool)
    b = cells
    if grid.dims == 1:
        edge[:b] = True
        edge[-b:] = True
        return edge
    edge[:b, :] = True
    edge[:, :b] = True
    valid = grid.valid()
    # the hypotenuse p_3 = 0 runs diagonally; take cells whose diagonal
    # neighbour b steps away already falls outside the triangle
    for k in range(1, b + 1):
        hyp = valid & ~np.roll(valid, -k, axis=0)
        edge |= hyp
    edge &= valid
    return edge


def edge_mass(density: FPDensity, cells: int = 1) -> float:
    """Probability mass within ``cells`` layers of the simplex boundary.

    The complement, 1 - edge_mass, is the interior mass: the share of the
    ensemble the diffusion picture keeps away from absorption.
    """
    edge = _edge_mask(density.grid, cells)
    vol = density.grid.spacing**density.grid.dims
    return float(density.phi[edge].sum() * vol)


def compare_histogram(
    density: FPDensity, mc_probabilities, boundary_cells: int = 1
) -> HistogramComparison:
    """Compare the solved density with a Monte Carlo ensemble snapshot.

    mc_probabilities holds one probability vector per run (terminal values
    for absorbed runs). Requires at least 100 runs; both distributions
    are binned on the density's grid and compared by total variation
    (half the L1 distance of cell masses). Boundary mass counts the
    outermost ``boundary_cells`` layers, where the discrete walk piles up
    absorbed runs while the density merely leans against the edge.
    """
    mc = np.asarray(mc_probabilities, dtype=float)
    if mc.ndim != 2 or mc.shape[1] != density.grid.channels:
        raise ComparisonError(
            f"need (runs, {density.grid.channels}) probabilities"
        )
    if mc.shape[0] < 100:
        raise ComparisonError(
            f"need at least 100 runs for a stable histogram, got {mc.shape[0]}"
        )
    grid = density.grid
    hist = ensemble_histogram(mc, grid)
    vol = grid.spacing**grid.dims
    tv = 0.5 * float(np.abs(hist - density.phi).sum() * vol)
    edge = _edge_mask(grid, boundary_cells)
    return HistogramComparison(
        total_variation=tv,
        fp_boundary_mass=float(density.phi[edge].sum() * vol),
        mc_boundary_mass=float(hist[edge].sum() * vol),
        n_runs=int(mc.shape[0]),
    )
