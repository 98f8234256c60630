"""Coarse-grained le probability waves.

On scales large compared to the mean free path the fraction f of atoms
carrying a given le index obeys a reaction-diffusion equation: collisions
diffuse the index with D = lam^2 / (6 tau) and spread it at rate
f (1 - f) / tau, a Fisher-KPP equation whose pulled front travels at
2 sqrt(D / tau) = lam sqrt(2/3) / tau once the transient has died out.
The module integrates that equation with an explicit scheme on a box
grid and measures front position, width and speed. Its step kernel,
``reaction_diffusion``, also takes the engine's coupled step
(``_field_step``), where every channel grows into its run's unentangled
fraction f0 = 1 - sum_k p_k f_k.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from lecollapse._csr import bind_matvec

__all__ = [
    "StabilityError",
    "FrontUndefinedError",
    "SeedingError",
    "KineticParams",
    "Grid",
    "seed_field",
    "step_operator",
    "reaction_diffusion",
    "kpp_step",
    "cell_averages",
    "cell_counts",
    "front_position",
    "front_width",
    "FrontSpeedFit",
    "front_speed",
]


class StabilityError(RuntimeError):
    """A step size violates the explicit-scheme stability bound."""


class FrontUndefinedError(RuntimeError):
    """The requested level set does not cross the sampled profile."""


class SeedingError(ValueError):
    """A seed region misses the grid entirely."""


MAX_CELLS = 2**20

_ONE = np.array(1.0)  # a ufunc takes a 0-d array faster than a float
_ONE.setflags(write=False)


@dataclass(frozen=True)
class KineticParams:
    """Mean free path and mean free time of the carrier gas.

    Everything else follows: diffusion constant D = lam^2 / (6 tau), sound
    speed lam / (sqrt(3) tau) and the pulled front speed 2 sqrt(D / tau).
    """

    lam: float
    tau: float

    def __post_init__(self):
        if not (0.0 < self.lam < math.inf and 0.0 < self.tau < math.inf):
            raise ValueError("lam and tau must be positive and finite")

    @property
    def d_coeff(self) -> float:
        return self.lam**2 / (6.0 * self.tau)

    @property
    def sound_speed(self) -> float:
        return self.lam / (np.sqrt(3.0) * self.tau)

    @property
    def kpp_speed(self) -> float:
        return 2.0 * np.sqrt(self.d_coeff / self.tau)


@dataclass(frozen=True)
class Grid:
    """Cell-centered box grid, one to three axes, uniform spacing.

    At most MAX_CELLS cells in all: a field array then stays at 8 MiB.
    """

    extent: tuple[float, ...]
    spacing: float

    def __post_init__(self):
        ext = tuple(float(e) for e in (
            (self.extent,) if np.isscalar(self.extent) else self.extent
        ))
        object.__setattr__(self, "extent", ext)
        if not 1 <= len(ext) <= 3:
            raise ValueError("extent must have one, two or three axes")
        if not all(0.0 < x < math.inf for x in (self.spacing, *ext)):
            raise ValueError("extent and spacing must be positive and finite")
        for e in ext:
            n = e / self.spacing
            if abs(n - round(n)) > 1e-9 or round(n) < 4:
                raise ValueError(
                    f"extent {e} must be an integral multiple (>= 4) of "
                    f"spacing {self.spacing}"
                )
        cells = math.prod(round(e / self.spacing) for e in ext)
        if cells > MAX_CELLS:
            raise ValueError(
                f"extent {ext} at spacing {self.spacing} gives {cells} "
                f"cells, more than the {MAX_CELLS} a grid may hold"
            )

    @property
    def dims(self) -> int:
        return len(self.extent)

    @functools.cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(int(round(e / self.spacing)) for e in self.extent)

    @functools.cached_property
    def _coords(self) -> tuple[np.ndarray, ...]:
        out = tuple((np.arange(n) + 0.5) * self.spacing for n in self.shape)
        for x in out:
            x.flags.writeable = False
        return out

    def axis_coords(self, axis: int = 0) -> np.ndarray:
        """Cell centres along one axis; read-only, built once per grid."""
        return self._coords[axis]

    def cfl_limit(self, params: KineticParams) -> float:
        """Largest stable explicit step for pure diffusion on this grid."""
        return self.spacing**2 / (2.0 * self.dims * params.d_coeff)

    def monotone_limit(self, params: KineticParams) -> float:
        """Step bound under which the reaction-diffusion update is monotone.

        Adds the reaction Lipschitz constant 1/tau to the diffusion CFL
        rate; below this bound the unclamped update maps [0, 1] into
        [0, 1] and preserves pointwise ordering of fields.
        """
        return 1.0 / (1.0 / self.cfl_limit(params) + 1.0 / params.tau)

    def check_resolution(self, params: KineticParams) -> None:
        """The spacing must resolve the mean free path (h <= lam / 4)."""
        if self.spacing > params.lam / 4.0 + 1e-12 * params.lam:
            raise ValueError(
                f"spacing {self.spacing} too coarse: need spacing <= lam/4 "
                f"= {params.lam / 4.0}"
            )


def seed_field(grid: Grid, region, inside: float = 1.0) -> np.ndarray:
    """Field that is ``inside`` within a region and 0 elsewhere.

    ``region`` is either a boolean mask over grid.shape or a box given as
    one (lo, hi) pair per axis in physical coordinates; a 1d grid also
    accepts a bare (lo, hi) pair. A region that covers no cell at all
    raises SeedingError.
    """
    if isinstance(region, np.ndarray) and region.dtype == bool:
        if region.shape != grid.shape:
            raise SeedingError(
                f"mask shape {region.shape} does not match grid {grid.shape}"
            )
        mask = region
    else:
        box = list(region)
        if grid.dims == 1 and len(box) == 2 and np.isscalar(box[0]):
            box = [tuple(box)]
        if len(box) != grid.dims:
            raise SeedingError(f"need one (lo, hi) pair per axis, got {box}")
        mask = np.ones(grid.shape, dtype=bool)
        for axis, (lo, hi) in enumerate(box):
            if hi <= lo:
                raise SeedingError(f"empty interval on axis {axis}: ({lo}, {hi})")
            x = grid.axis_coords(axis)
            sel = (x >= lo) & (x <= hi)
            shape = [1] * grid.dims
            shape[axis] = sel.size
            mask = mask & sel.reshape(shape)
    if not mask.any():
        raise SeedingError("seed region covers no grid cell")
    if not 0.0 <= inside <= 1.0:
        raise ValueError("inside must lie in [0, 1]")
    out = np.zeros(grid.shape)
    out[mask] = inside
    return out


# a run steps with one (shape, c); at MAX_CELLS in 3d one operator holds
# about 92 MB, so the cache keeps only two
@functools.lru_cache(maxsize=2)
def _step_operator(shape: tuple[int, ...], c: float) -> sparse.csr_array:
    """One diffusion step I + c L as a read-only CSR matrix, c = D dt / h^2.

    L is the second difference with zero-gradient walls (edge
    replication): a wall cell lacks the neighbour beyond the wall and its
    diagonal the matching -1, so rows of L sum to zero. Cells are in
    row-major order. Each row holds c per neighbour, by ascending column,
    then its diagonal 1 - s, s being those c summed as the kernel adds
    them: a constant row sums to exactly the constant, so f = 0 and f = 1
    stay fixed. The CSR arrays are written straight from per-axis
    neighbour masks, so a build needs little memory beyond the operator.
    """
    from scipy import sparse

    n, dims = math.prod(shape), len(shape)
    below, above = [], []  # (has the neighbour, its column offset)
    for axis, m in enumerate(shape):
        stride = math.prod(shape[axis + 1:])
        at = np.arange(m).reshape([-1 if a == axis else 1 for a in range(dims)])
        below.append((np.broadcast_to(at > 0, shape).ravel(), -stride))
        above.append((np.broadcast_to(at < m - 1, shape).ravel(), stride))
    # neighbour columns ascend: below by falling stride, above by rising
    kinds = below + above[::-1]
    count = np.zeros(n, dtype=np.int8)
    for has, _ in kinds:
        count += has
    # a grid holds at most MAX_CELLS cells, so int32 indices always fit
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(count + 1, dtype=np.int32, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.full(indptr[-1], c)
    slot = indptr[:-1].copy()  # each row's next free entry
    for has, offset in kinds:
        rows = np.flatnonzero(has)
        indices[slot[rows]] = rows + offset
        slot[rows] += 1
    indices[slot] = np.arange(n)
    sums = np.concatenate(([0.0], np.cumsum(np.full(len(kinds), c))))
    data[slot] = 1.0 - sums[count]
    op = sparse.csr_array((data, indices, indptr), shape=(n, n))
    for a in (op.data, op.indices, op.indptr):
        a.setflags(write=False)
    return op


def step_operator(
    grid: Grid, params: KineticParams, dt: float
) -> sparse.csr_array:
    """The cached I + c L that ``kpp_step`` applies on this grid at this dt."""
    return _step_operator(grid.shape, params.d_coeff * dt / grid.spacing**2)


def reaction_diffusion(g, partner, rate: float, matvec, out):
    """One explicit field step: out = min(rate g partner + (I + c L) g, 1).

    ``partner``, the fraction g grows into, broadcasts against g and may
    be ``out`` itself; ``matvec(g, out)`` adds (I + c L) g into out, as the
    CSR kernel bound to ``step_operator`` does for one field. ``rate`` is
    dt / tau. Both callers keep dt within ``monotone_limit`` (1 + 1e-12),
    below ``cfl_limit`` for any spacing above 1e-6 lam, so every entry of
    I + c L is >= 0. With g in [0, 1] and a partner >= 0 so is every
    product and sum, and only rounding above 1 needs a clamp. A constant
    row of I + c L sums to exactly the constant, so a field of 0 stays 0
    and one of 1 with a nonnegative partner stays 1.
    """
    np.multiply(g, partner, out=out)
    np.multiply(rate, out, out=out)
    matvec(g, out)
    np.minimum(out, _ONE, out=out)
    return out


def kpp_step(
    f: np.ndarray,
    grid: Grid,
    params: KineticParams,
    dt: float,
    steps: int = 1,
) -> np.ndarray:
    """``steps`` explicit steps of the single-field probability wave.

    Walls are no-flux. Each step is ``reaction_diffusion`` with partner
    1 - g and the cached ``step_operator``, so f = 0 and f = 1 are exact
    fixed points. The step bound, diffusion CFL tightened by the reaction
    rate 1/tau, is checked once per call, and so is the field: a value
    outside [0, 1], or NaN, raises ValueError. One call with ``steps = n``
    equals n calls with ``steps = 1`` bit for bit; ``steps = 0`` returns a
    copy. The caller's array is never modified.
    """
    limit = grid.monotone_limit(params)
    if dt > limit * (1.0 + 1e-12):
        raise StabilityError(
            f"dt = {dt} exceeds the step bound {limit} (diffusion CFL "
            f"{grid.cfl_limit(params)}, tightened by the reaction rate 1/tau)"
        )
    if not dt > 0:  # also rejects NaN, which passes the bound check above
        raise ValueError("dt must be positive")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    f = np.asarray(f, dtype=np.float64)
    if f.shape != grid.shape:
        raise ValueError(f"field shape {f.shape} does not match grid {grid.shape}")
    if not (f.min() >= 0.0 and f.max() <= 1.0):  # NaN fails both
        raise ValueError("field values must lie in [0, 1]")
    matvec = bind_matvec(step_operator(grid, params, dt))
    rate = np.array(dt / params.tau)
    g, y = f.ravel().copy(), np.empty(f.size)
    for _ in range(steps):
        np.subtract(_ONE, g, out=y)
        reaction_diffusion(g, y, rate, matvec, y)
        g, y = y, g
    return g.reshape(f.shape)


def cell_counts(grid: Grid, lam: float) -> tuple[int, ...]:
    """Number of lam-sized sampling cells per axis; spacings must divide."""
    per = lam / grid.spacing
    if abs(per - round(per)) > 1e-9 or round(per) < 1:
        raise ValueError(
            f"cell size lam = {lam} must be an integral multiple of the "
            f"grid spacing {grid.spacing}"
        )
    counts = []
    for e in grid.extent:
        n = e / lam
        if abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise ValueError(
                f"extent {e} must be an integral multiple of lam = {lam}"
            )
        counts.append(int(round(n)))
    return tuple(counts)


@functools.lru_cache(maxsize=64)
def _cell_blocks(grid: Grid, lam: float) -> tuple[tuple[int, ...], int]:
    """(cells, fine) axis pairs per grid axis and the number of cells."""
    counts = cell_counts(grid, lam)
    per = int(round(lam / grid.spacing))
    return sum(((n, per) for n in counts), ()), math.prod(counts)


def cell_averages(values: np.ndarray, grid: Grid, lam: float) -> np.ndarray:
    """Block averages over lam-sized cells.

    ``values`` may carry leading batch axes; the trailing axes must match
    grid.shape. The result replaces those trailing axes with the flattened
    cell grid (row-major), matching the cell indices used by slip sampling.
    The block shape is validated once per (grid, lam) and then cached. Each
    fine axis is summed, then divided in place by its length, as
    ``ndarray.mean`` does: the bytes of one ``mean`` per axis.
    """
    blocks, cells = _cell_blocks(grid, lam)
    lead = values.shape[: values.ndim - grid.dims]
    if values.shape[values.ndim - grid.dims:] != grid.shape:
        raise ValueError("trailing axes must match the grid shape")
    # innermost first, so the earlier axis numbers stay valid
    mean = values.reshape(lead + blocks)
    for k in range(grid.dims - 1, -1, -1):
        mean = np.add.reduce(mean, axis=len(lead) + 2 * k + 1)
        np.true_divide(mean, blocks[2 * k + 1], out=mean)
    return mean.reshape(lead + (cells,))


def _line_profile(f: np.ndarray, grid: Grid, axis: int, through) -> np.ndarray:
    if f.shape != grid.shape:
        raise ValueError(f"field shape {f.shape} does not match grid {grid.shape}")
    if not 0 <= axis < grid.dims:
        raise ValueError(f"axis {axis} outside 0..{grid.dims - 1}")
    if grid.dims == 1:
        return f
    idx: list = []
    others = [a for a in range(grid.dims) if a != axis]
    if through is None:
        through = tuple(grid.shape[a] // 2 for a in others)
    for a in range(grid.dims):
        idx.append(slice(None) if a == axis else 0)
    for pos, a in zip(through, others):
        idx[a] = int(pos)
    return f[tuple(idx)]


def _crossing(prof: np.ndarray, x: np.ndarray, level: float) -> float:
    """Outermost downward crossing of ``level`` in ``prof``, at cells x."""
    above = prof >= level
    # no pair after the last cell at or above the level can cross, so that
    # cell starts the outermost crossing unless it is the last cell or the
    # next one is NaN; only then does every pair need scanning
    i = above.size - 1 - int(above[::-1].argmax())
    if not (above[i] and i + 1 < prof.size and level > prof[i + 1]):
        down = np.flatnonzero(above[:-1] & (level > prof[1:]))
        if down.size == 0:
            what = ("profile saturated above" if above.all() else
                    "profile everywhere below" if (prof < level).all() else
                    "no downward crossing of")
            raise FrontUndefinedError(f"{what} level {level}")
        i = down[-1]
    frac = (prof[i] - level) / (prof[i] - prof[i + 1])
    return float(x[i] + frac * (x[i + 1] - x[i]))


def front_position(
    f: np.ndarray,
    grid: Grid,
    level: float = 0.5,
    axis: int = 0,
    through=None,
) -> float:
    """Outermost downward crossing of ``level`` along an axis.

    The last neighbour pair with prof[i] >= level > prof[i + 1] is taken
    and the crossing linearly interpolated. Saturated and empty profiles,
    and those with no downward crossing, raise FrontUndefinedError.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly inside (0, 1)")
    prof = _line_profile(np.asarray(f, dtype=np.float64), grid, axis, through)
    return _crossing(prof, grid.axis_coords(axis), level)


def front_width(
    f: np.ndarray,
    grid: Grid,
    lo: float = 0.1,
    hi: float = 0.9,
    axis: int = 0,
    through=None,
) -> float:
    """Distance between the outer ``lo`` and ``hi`` level crossings.

    Both come from one profile: abs(front_position(f, grid, lo, ...) -
    front_position(f, grid, hi, ...)) bit for bit, errors included.
    """
    if not 0.0 < lo < hi < 1.0:
        raise ValueError("need 0 < lo < hi < 1")
    prof = _line_profile(np.asarray(f, dtype=np.float64), grid, axis, through)
    x = grid.axis_coords(axis)
    return abs(_crossing(prof, x, lo) - _crossing(prof, x, hi))


@dataclass(frozen=True)
class FrontSpeedFit:
    """Least-squares front speed plus the two analytic reference speeds."""

    speed: float
    residual: float
    kpp_speed: float
    transport_speed: float
    n_points: int
    t_span: float


def front_speed(
    times,
    positions,
    params: KineticParams,
    transient: float | None = None,
    min_span: float | None = None,
) -> FrontSpeedFit:
    """Fit position against time after discarding the early transient.

    ``transient`` defaults to 10 tau and ``min_span`` to 20 tau; a history
    whose usable part is shorter than ``min_span`` raises ValueError. The
    fit residual is the root-mean-square deviation from the line.
    """
    t = np.asarray(times, dtype=np.float64)
    x = np.asarray(positions, dtype=np.float64)
    if t.shape != x.shape or t.ndim != 1:
        raise ValueError("times and positions must be matching 1d arrays")
    if transient is None:
        transient = 10.0 * params.tau
    if min_span is None:
        min_span = 20.0 * params.tau
    if t.size:  # an empty history goes straight to the length check
        keep = t >= t.min() + transient
        t, x = t[keep], x[keep]
    if t.size < 3 or t.max() - t.min() < min_span:
        raise ValueError(
            f"front history too short after the transient: need at least "
            f"{min_span} time units and 3 samples"
        )
    slope, intercept = np.polyfit(t, x, 1)
    resid = float(np.sqrt(np.mean((x - (slope * t + intercept)) ** 2)))
    return FrontSpeedFit(
        speed=float(slope),
        residual=resid,
        kpp_speed=params.kpp_speed,
        transport_speed=params.sound_speed,
        n_points=int(t.size),
        t_span=float(t.max() - t.min()),
    )
