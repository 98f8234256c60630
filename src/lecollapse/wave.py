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

from lecollapse._csr import bind_dia_matvec

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
    """The requested level set does not cross the sampled profile.

    ``index``: in a stack, the C-order position of the first such field.
    """

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


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
        ext = tuple(float(e) for e in self.extent)
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

    @functools.cached_property
    def front_line(self) -> tuple:
        """Index of the line fronts are tracked on: along axis 0, through
        the middle cell of every other axis."""
        return (slice(None), *(n // 2 for n in self.shape[1:]))

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
    """Field that is ``inside`` within a box and 0 elsewhere.

    ``region`` is a box given as one (lo, hi) pair per axis in physical
    coordinates; a 1d grid also accepts a bare (lo, hi) pair. A box that
    covers no cell at all raises SeedingError.
    """
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
# about 59 MB (seven diagonals of 8 MiB), so the cache keeps only two
@functools.lru_cache(maxsize=2)
def _step_operator(shape: tuple[int, ...], c: float) -> sparse.dia_array:
    """One diffusion step I + c L as a read-only DIA array, c = D dt / h^2.

    L is the second difference with zero-gradient walls (edge
    replication): a wall cell lacks the neighbour beyond the wall and its
    diagonal the matching -1, so rows of L sum to zero. Cells are in
    row-major order. The diagonals are stored in the order the kernel
    adds them into each row: the neighbours below by falling stride, those
    above by rising stride, which is ascending column, then the main
    diagonal 1 - s, s being the row's c summed in that order. A wall
    neighbour is an explicit 0, which adds +0.0 to a sum that is >= +0, so
    a constant row sums to exactly the constant and f = 0 and f = 1 stay
    fixed. An axis of one cell has no neighbours and stores no diagonal.
    """
    from scipy import sparse

    n = math.prod(shape)
    axes = [(axis, m) for axis, m in enumerate(shape) if m > 1]
    data = np.zeros((2 * len(axes) + 1, n))
    # a grid holds at most MAX_CELLS cells, so int32 offsets always fit
    offsets = np.zeros(len(data), dtype=np.int32)
    count = np.zeros(n, dtype=np.int8)
    for i, (axis, m) in enumerate(axes):
        at = np.arange(m).reshape([-1 if a == axis else 1
                                   for a in range(len(shape))])
        up = np.broadcast_to(at < m - 1, shape).ravel()
        down = np.broadcast_to(at > 0, shape).ravel()
        # column j of offset -stride holds row j + stride's lower neighbour,
        # there iff j is below the axis' upper wall; column j of +stride
        # holds row j - stride's upper one, there iff j is above the lower
        # wall. Entries across a wall stay 0.
        stride = math.prod(shape[axis + 1:])
        offsets[i], offsets[-2 - i] = -stride, stride
        data[i, up] = c
        data[-2 - i, down] = c
        count += up
        count += down
    sums = np.concatenate(([0.0], np.cumsum(np.full(len(data) - 1, c))))
    data[-1] = 1.0 - sums[count]
    op = sparse.dia_array((data, offsets), shape=(n, n))
    for a in (op.data, op.offsets):
        a.setflags(write=False)
    return op


def step_operator(
    grid: Grid, params: KineticParams, dt: float
) -> sparse.dia_array:
    """The cached I + c L that ``kpp_step`` applies on this grid at this dt."""
    return _step_operator(grid.shape, params.d_coeff * dt / grid.spacing**2)


def reaction_diffusion(g, partner, rate: float, matvec, out):
    """One explicit field step: out = min(rate g partner + (I + c L) g, 1).

    ``partner``, the fraction g grows into, broadcasts against g and may
    be ``out`` itself; ``matvec(g, out)`` adds (I + c L) g into out, as the
    DIA kernel bound to ``step_operator`` does for one field
    (``kpp_step``) or, bound for many blocks, for every field of a batch
    held end to end (the engine's ``_field_step``). ``rate`` is
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
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``steps`` explicit steps of the single-field probability wave.

    Walls are no-flux. Each step is ``reaction_diffusion`` with partner
    1 - g and the cached ``step_operator``, so f = 0 and f = 1 are exact
    fixed points. The step bound, diffusion CFL tightened by the reaction
    rate 1/tau, is checked once per call, and so is the field: a value
    outside [0, 1], or NaN, raises ValueError. One call with ``steps = n``
    equals n calls with ``steps = 1`` bit for bit; ``steps = 0`` returns a
    copy. Nothing but ``out`` is written to.

    ``out``, a float64 stack of shape (m,) + grid.shape, gets the field
    after each of m chunks of ``steps`` steps and is returned: row i has
    the bytes of the i-th of m successive single calls. ``f`` is read
    before any row is written, so ``out`` may hold it.
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
    stack = np.empty((1,) + f.shape) if out is None else out
    if stack.shape[1:] != f.shape or stack.dtype != f.dtype:
        raise ValueError(f"out must be a float64 stack of {f.shape} fields")
    matvec = bind_dia_matvec(step_operator(grid, params, dt))
    rate = np.array(dt / params.tau)
    g, y = f.ravel().copy(), np.empty(f.size)
    for row in stack:
        for _ in range(steps):
            np.subtract(_ONE, g, out=y)
            reaction_diffusion(g, y, rate, matvec, y)
            g, y = y, g
        row[...] = g.reshape(f.shape)
    return stack[0] if out is None else out


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


def _line_profile(f: np.ndarray, grid: Grid) -> np.ndarray:
    if f.shape[f.ndim - grid.dims:] != grid.shape:
        raise ValueError(f"field shape {f.shape} does not match grid {grid.shape}")
    return f[(Ellipsis, *grid.front_line)]


def _crossing(prof: np.ndarray, x: np.ndarray, levels: tuple) -> np.ndarray:
    """Outermost downward crossing of each level in every profile.

    ``prof`` holds one profile per leading index along its last axis,
    sampled at cells x; the result holds one crossing per level and
    profile, shape (len(levels),) + prof.shape[:-1]. Each starts at the
    last pair with prof[i] >= level > prof[i + 1] and is interpolated
    linearly. Every entry takes the same elementwise operations whatever
    profiles stand beside it, so it has the bytes of its profile alone.
    If a crossing is undefined, the first such profile in C order raises
    for its first undefined level, with its row as the error's index.
    """
    profs = prof.reshape(-1, prof.shape[-1])  # one profile per row
    n, rows = profs.shape[1], np.arange(len(profs))
    pair = np.empty((len(levels), len(profs)), dtype=np.intp)
    found = np.ones(pair.shape, dtype=bool)
    for k, level in enumerate(levels):
        above = profs >= level
        # no pair after the last cell at or above the level can cross, so
        # that cell starts the outermost crossing unless it is the last
        # cell or the next one is NaN; only those rows scan every pair
        i = n - 1 - above[:, ::-1].argmax(axis=1)
        # at i = n - 1 this reads cell i itself, so that row is scanned
        nxt = profs[rows, np.minimum(i + 1, n - 1)]
        scan = np.flatnonzero(~(above[rows, i] & (level > nxt)))
        if scan.size:
            down = above[scan, :-1] & (level > profs[scan, 1:])
            found[k, scan] = down.any(axis=1)
            i[scan] = n - 2 - down[:, ::-1].argmax(axis=1)
        pair[k] = i
    if not found.all():
        field = int((~found).any(axis=0).argmax())
        k = int((~found[:, field]).argmax())
        one, level = profs[field], levels[k]
        what = ("profile saturated above" if (one >= level).all() else
                "profile everywhere below" if (one < level).all() else
                "no downward crossing of")
        raise FrontUndefinedError(f"{what} level {level}", field)
    a, b = profs[rows, pair], profs[rows, pair + 1]
    frac = (a - np.array(levels)[:, None]) / (a - b)
    out = x[pair] + frac * (x[pair + 1] - x[pair])
    return out.reshape((len(levels),) + prof.shape[:-1])


def front_position(
    f: np.ndarray, grid: Grid, level: float = 0.5
) -> float | np.ndarray:
    """Outermost downward crossing of ``level`` along the grid's front line.

    The line is ``grid.front_line``: axis 0, through the middle cell of
    every other axis. The last neighbour pair with prof[i] >= level >
    prof[i + 1] is taken and the crossing linearly interpolated.
    Saturated and empty profiles, and those with no downward crossing,
    raise FrontUndefinedError.

    ``f`` may carry leading batch axes, as in ``cell_averages``; a stack
    gives an array of positions over those axes, each with the bytes of
    its single-field call, and a single field a float. If any field's
    crossing is undefined, the stack raises the error of the first such
    field in C order, whose position is the error's ``index``.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly inside (0, 1)")
    prof = _line_profile(np.asarray(f, dtype=np.float64), grid)
    (pos,) = _crossing(prof, grid.axis_coords(0), (level,))
    return pos if pos.ndim else float(pos)


def front_width(
    f: np.ndarray, grid: Grid, lo: float = 0.1, hi: float = 0.9
) -> float | np.ndarray:
    """Distance between the outer ``lo`` and ``hi`` level crossings.

    Both come from one profile: abs(front_position(f, grid, lo) -
    front_position(f, grid, hi)) bit for bit, errors included, for a
    single field or a stack of them.
    """
    if not 0.0 < lo < hi < 1.0:
        raise ValueError("need 0 < lo < hi < 1")
    prof = _line_profile(np.asarray(f, dtype=np.float64), grid)
    x_lo, x_hi = _crossing(prof, grid.axis_coords(0), (lo, hi))
    width = np.abs(x_lo - x_hi)
    return width if width.ndim else float(width)


@dataclass(frozen=True)
class FrontSpeedFit:
    """Least-squares front speed plus the two analytic reference speeds."""

    speed: float
    residual: float
    kpp_speed: float
    transport_speed: float


def front_speed(
    times,
    positions,
    params: KineticParams,
    transient: float | None = None,
) -> FrontSpeedFit:
    """Fit position against time after discarding the early transient.

    ``transient`` defaults to 10 tau; a history whose usable part spans
    less than 20 tau raises ValueError. The fit residual is the
    root-mean-square deviation from the line.
    """
    t = np.asarray(times, dtype=np.float64)
    x = np.asarray(positions, dtype=np.float64)
    if t.shape != x.shape or t.ndim != 1:
        raise ValueError("times and positions must be matching 1d arrays")
    if transient is None:
        transient = 10.0 * params.tau
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
    )
