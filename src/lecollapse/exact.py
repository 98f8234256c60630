"""Exact branch dynamics of local-entanglement contagion on a small lattice.

A gas of N bosonic atoms hops on a chain of M sites. Each atom carries a
local-entanglement (le) index: 0 while the atom is still untouched, k in
1..K once it has interacted, directly or through a chain of collisions, with
the k-th readout channel. A branch state assigns one complex amplitude to
every (configuration, le word) pair, where the word lists the N indices.

The branch generator acts like the standard Hamiltonian except that the two
interactions are dressed with integer contagion matrices. An atom sitting on
a channel-k track site either keeps a nonzero index (diagonal coupling) or is
raised from 0 to k; a same-site collision between an index-k atom and an
index-0 atom raises the latter to k. Nothing ever lowers an index, so the
generator is block triangular in the entanglement order and not self-adjoint,
while the branch sum over words still follows the standard unitary evolution
exactly. That sum identity is the main invariant this module maintains and
is what the tests pin down.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from lecollapse._csr import bind_matvec, csr_from_triplets

__all__ = [
    "DEFAULT_BASIS_CAP",
    "BasisSizeError",
    "DivergenceError",
    "UndefinedProbabilityError",
    "LatticeModel",
    "LatticeBasis",
    "BranchState",
    "BranchHamiltonian",
    "build_branch_hamiltonian",
    "default_timestep",
    "evolve",
    "reconstruct_standard",
    "le_occupation",
    "local_probabilities",
    "permutation_index_map",
]

DEFAULT_BASIS_CAP = 1 << 20

# A step is the degree-TAYLOR_DEGREE Taylor polynomial of A = dt G at dt =
# STEP_FACTOR / max-row-sum, so every mode has |dt lambda| <= 0.25
# (Gershgorin) and truncates 0.25^11/11! = 6e-15 per step (1e-11 at degree
# 8). Against dense expm on 24 criterion 2/3 family models to t = 3 the
# worst amplitude error is 5e-15 (2e-13 at degree 8).
STEP_FACTOR = 0.25
TAYLOR_DEGREE = 10

NORM_DRIFT_LIMIT = 1e-6


class BasisSizeError(ValueError):
    """The requested model exceeds the branch-basis budget."""


class DivergenceError(RuntimeError):
    """Integrator watchdog: the reconstructed norm drifted too far."""


class UndefinedProbabilityError(ValueError):
    """Local probabilities requested for a cell with no expected occupancy."""


@dataclass(frozen=True)
class LatticeModel:
    """Chain of ``sites`` sites, ``atoms`` bosonic atoms, ``channels`` tracks.

    ``a_tracks[k]`` lists the sites touched by channel (k+1)'s readout track.
    An atom on such a site feels ``u_strength`` and, if still unentangled,
    acquires index k+1. ``v_strength`` is the same-site contact interaction;
    a collision between an entangled atom and an unentangled one spreads the
    index. ``cross_channel_coupling`` selects what a same-site pair with two
    distinct nonzero indices feels: "diagonal" applies the plain potential
    and keeps both indices, which preserves the branch-sum identity for any
    number of channels; "none" drops the term entirely, the literal
    single-channel four-term rule, under which the identity only survives
    for channels = 1. ``bosonic`` changes no amplitude: the uniform start
    is symmetric and the generator commutes with atom permutations.
    """

    sites: int
    atoms: int
    channels: int
    hop_amplitude: float
    u_strength: float
    v_strength: float
    a_tracks: tuple[tuple[int, ...], ...]
    bosonic: bool = True
    cross_channel_coupling: str = "diagonal"

    def __post_init__(self):
        if self.sites < 1 or self.atoms < 1 or self.channels < 1:
            raise ValueError("sites, atoms and channels must all be >= 1")
        tracks = tuple(tuple(int(s) for s in t) for t in self.a_tracks)
        object.__setattr__(self, "a_tracks", tracks)
        if len(tracks) != self.channels:
            raise ValueError(
                f"need one track per channel: got {len(tracks)} tracks "
                f"for {self.channels} channels"
            )
        for t in tracks:
            for s in t:
                if not 0 <= s < self.sites:
                    raise ValueError(f"track site {s} outside 0..{self.sites - 1}")
        if self.cross_channel_coupling not in ("diagonal", "none"):
            raise ValueError("cross_channel_coupling must be 'diagonal' or 'none'")

    @property
    def n_configs(self) -> int:
        return self.sites**self.atoms

    @property
    def n_words(self) -> int:
        return (self.channels + 1) ** self.atoms

    @property
    def basis_size(self) -> int:
        return self.n_configs * self.n_words


def _digit_table(n_values: int, width: int) -> np.ndarray:
    """All base-``n_values`` digit strings of ``width`` digits, first digit slowest."""
    idx = np.arange(n_values**width)
    digits = np.empty((idx.size, width), dtype=np.int64)
    for pos in range(width - 1, -1, -1):
        digits[:, pos] = idx % n_values
        idx = idx // n_values
    return digits


class LatticeBasis:
    """Product basis of atom configurations times le words.

    A configuration lists the N atom sites, a word the N le indices; the
    flat index is config_index * n_words + word_index with the first atom's
    digit slowest in both factors. A basis larger than DEFAULT_BASIS_CAP
    raises BasisSizeError before any table is built.
    """

    def __init__(self, model: LatticeModel):
        if model.basis_size > DEFAULT_BASIS_CAP:
            raise BasisSizeError(
                f"basis size {model.basis_size} (sites^atoms * "
                f"(channels+1)^atoms) exceeds the cap {DEFAULT_BASIS_CAP}"
            )
        self.model = model
        n = model.atoms
        self.config_digits = _digit_table(model.sites, n)
        self.word_digits = _digit_table(model.channels + 1, n)
        self.n_configs = self.config_digits.shape[0]
        self.n_words = self.word_digits.shape[0]
        self.n_basis = self.n_configs * self.n_words
        self.config_radix = (
            model.sites ** np.arange(n - 1, -1, -1)
        ).astype(np.int64)
        self.word_radix = (
            (model.channels + 1) ** np.arange(n - 1, -1, -1)
        ).astype(np.int64)
        self._cell_counts: dict = {}

    @functools.cached_property
    def letter_counts(self) -> tuple[np.ndarray, ...]:
        """Per le index r, how many letters of each word equal r."""
        return tuple((self.word_digits == r).sum(axis=1).astype(float)
                     for r in range(self.model.channels + 1))

    def cell_counts(self, sites: tuple) -> tuple:
        """Per configuration, how many atoms sit on ``sites``, and per le
        index r the (configurations, words) count of index-r atoms there;
        formed once per cell."""
        if sites not in self._cell_counts:
            in_cell = np.isin(self.config_digits, sites).astype(np.float64)
            self._cell_counts[sites] = (in_cell.sum(axis=1), tuple(
                in_cell @ (self.word_digits == r).astype(np.float64).T
                for r in range(self.model.channels + 1)))
        return self._cell_counts[sites]

    def config_index(self, config) -> int:
        return int(np.dot(np.asarray(config, dtype=np.int64), self.config_radix))

    def word_index(self, word) -> int:
        return int(np.dot(np.asarray(word, dtype=np.int64), self.word_radix))


@dataclass
class BranchState:
    """One complex amplitude per (configuration, word) pair at a given time."""

    basis: LatticeBasis
    amplitudes: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.shape != (self.basis.n_basis,):
            raise ValueError(
                f"amplitudes must have shape ({self.basis.n_basis},)"
            )
        self.amplitudes = amp

    @classmethod
    def from_standard(cls, basis: LatticeBasis) -> "BranchState":
        """The normalized uniform standard state in the all-zeros word sector.

        Every configuration has the same amplitude, so the state is already
        symmetric under any permutation of the atoms, bosonic or not.
        """
        amp = np.zeros(basis.n_basis, dtype=np.complex128)
        amp[:: basis.n_words] = 1.0  # the all-zeros word is word 0
        amp /= np.linalg.norm(amp)
        return cls(basis, amp)


@dataclass
class BranchHamiltonian:
    """Sparse branch generator with its cached non-self-adjointness."""

    basis: LatticeBasis
    matrix: sparse.csr_matrix
    hermitian_defect: float = field(default=0.0)
    # (generator, dt, stages) of the last ``stages`` call
    _stages: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False)

    @functools.cached_property
    def row_sum_norm(self) -> float:
        """Largest row sum of |H|, formed once: every row stores its diagonal,
        so scipy's ``sum(axis=1)`` is this one reduceat over the rows."""
        m = self.matrix
        return float(np.add.reduceat(np.abs(m.data), m.indptr[:-1]).max())

    @functools.cached_property
    def generator(self) -> sparse.csr_matrix:
        """-i H, the right-hand side of d psi / dt, formed once on H's indices."""
        from scipy import sparse

        m = self.matrix
        return sparse.csr_matrix((m.data * -1j, m.indices, m.indptr),
                                 shape=m.shape)

    def stages(self, dt: float) -> tuple:
        """A/m, ..., A/2, A for A = dt G, m = TAYLOR_DEGREE, on the CSR kernel,
        each with its own copy of G's data, bound once per (generator, dt)."""
        gen = self.generator
        entry = self._stages
        if entry is None or entry[0] is not gen or entry[1] != dt:
            entry = self._stages = (gen, dt, tuple(
                bind_matvec(gen, dt / k) for k in range(TAYLOR_DEGREE, 0, -1)))
        return entry[2]


def _track_count(model: LatticeModel, basis: LatticeBasis) -> np.ndarray:
    """(n_configs, atoms) table: how many tracks contain each atom's site."""
    count = np.zeros(model.sites, dtype=np.int64)
    for track in model.a_tracks:
        for s in set(track):
            count[s] += 1
    return count[basis.config_digits]


def build_branch_hamiltonian(model: LatticeModel) -> BranchHamiltonian:
    """Assemble the branch generator over the (configuration, word) basis.

    The kinetic term hops atoms between neighbouring sites and is diagonal
    in the words. The track term adds, per channel k and per atom on a
    channel-k track site, a diagonal u_strength if the atom carries any
    nonzero index plus a word transition 0 -> k with amplitude u_strength.
    The contact term adds, per same-site atom pair, a diagonal v_strength
    when the pair is (0,0), (k,k), or, in "diagonal" mode, (k,k') with both
    nonzero, plus transitions (k,0) -> (k,k) and (0,k) -> (k,k) with
    amplitude v_strength. Word indices never decrease, so the matrix is
    block triangular in the entanglement order.

    Each term is a (row, col, value) triplet, a hop once per word, summed
    into CSR arrays as ``coo_matrix.tocsr()`` sums them
    (``_csr.csr_from_triplets``). H - H^T is block diagonal, as hopping is
    symmetric and contagion stays in one configuration: the defect is the
    largest singular value of B - B^T over the word-by-word blocks B of H,
    from one batched SVD, or from a sparse SVD past 2048^2 block entries.

    Returns
    -------
    BranchHamiltonian
        Sparse real matrix plus the cached operator norm of (H - H^T).
    """
    from scipy import sparse

    basis = LatticeBasis(model)
    n_w, n = basis.n_words, basis.n_basis
    cd, wd = basis.config_digits, basis.word_digits
    rad_c, rad_w = basis.config_radix, basis.word_radix
    rows, cols, vals = [], [], []  # triplets, one array per term

    # kinetic: one atom hops to a neighbouring site, the word unchanged
    words = np.arange(n_w)
    for i in range(model.atoms):
        for step in (1, -1):
            ok = np.nonzero(cd[:, i] != (model.sites - 1 if step > 0 else 0))[0]
            rows.append(((ok + step * rad_c[i])[:, None] * n_w + words).ravel())
            cols.append((ok[:, None] * n_w + words).ravel())
            vals.append(np.full(ok.size * n_w, -model.hop_amplitude))

    # diagonal track coupling: u per (atom on a track site, nonzero index)
    t_count = _track_count(model, basis)
    diag = model.u_strength * (t_count.astype(np.float64)
                               @ (wd >= 1).astype(np.float64).T)

    # track contagion: 0 -> k for atoms sitting on channel-k track sites
    for i in range(model.atoms):
        w0 = np.nonzero(wd[:, i] == 0)[0]
        for k in range(1, model.channels + 1):
            cs = np.nonzero(np.isin(cd[:, i], model.a_tracks[k - 1]))[0]
            w_dst = w0 + k * rad_w[i]
            rows.append((cs[:, None] * n_w + w_dst[None, :]).ravel())
            cols.append((cs[:, None] * n_w + w0[None, :]).ravel())
            vals.append(np.full(cs.size * w0.size, model.u_strength))

    # same-site contact: diagonal pieces and collision contagion
    for i in range(model.atoms):
        for j in range(i + 1, model.atoms):
            cpair = np.nonzero(cd[:, i] == cd[:, j])[0]
            wi, wj = wd[:, i], wd[:, j]
            if model.cross_channel_coupling == "diagonal":
                w_diag = ((wi == 0) & (wj == 0)) | ((wi >= 1) & (wj >= 1))
            else:
                w_diag = wi == wj
            diag[cpair[:, None], np.nonzero(w_diag)[0][None, :]] += model.v_strength
            for raised, donor in ((i, j), (j, i)):
                sel = np.nonzero((wd[:, raised] == 0) & (wd[:, donor] >= 1))[0]
                w_dst = sel + wd[sel, donor] * rad_w[raised]
                rows.append((cpair[:, None] * n_w + w_dst[None, :]).ravel())
                cols.append((cpair[:, None] * n_w + sel[None, :]).ravel())
                vals.append(np.full(cpair.size * sel.size, model.v_strength))

    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(diag.ravel())

    indptr, indices, data = csr_from_triplets(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), n)
    matrix = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
    if n * n_w > 2048 * 2048:
        diff = (matrix - matrix.T).tocsc()
        defect = float(sparse.linalg.svds(
            diff, k=1, return_singular_vectors=False)[0]) if diff.nnz else 0.0
    else:
        row = np.repeat(np.arange(n), np.diff(indptr))
        inside = row // n_w == indices // n_w
        blocks = np.zeros((basis.n_configs, n_w, n_w))
        blocks[row[inside] // n_w, row[inside] % n_w,
               indices[inside] % n_w] = data[inside]
        blocks -= blocks.transpose(0, 2, 1)
        defect = (float(np.linalg.svd(blocks, compute_uv=False).max())
                  if blocks.any() else 0.0)
    return BranchHamiltonian(basis=basis, matrix=matrix, hermitian_defect=defect)


def default_timestep(h: BranchHamiltonian) -> float:
    """STEP_FACTOR over the row-sum norm, the step TAYLOR_DEGREE is sized for."""
    norm = h.row_sum_norm
    if norm == 0.0:
        raise ValueError("the generator is zero, so it sets no default "
                         "dt: give dt")
    return STEP_FACTOR / norm


def evolve(
    state: BranchState,
    h: BranchHamiltonian,
    dt: float,
    steps: int = 1,
) -> BranchState:
    """Advance a branch state by ``steps`` fixed steps of size ``dt``.

    A step is the degree-m (TAYLOR_DEGREE) Taylor polynomial of A = dt G in
    Horner form, psi + A (psi + A/2 (... (psi + A/m psi))), for the linear
    system psi' = G psi. Each stage seeds one of two buffers with psi and
    adds one scaled product from the shared CSR kernel (``_csr``) onto it,
    the last one onto psi; ``h.stages`` binds the m stages once per
    (generator, dt). The caller's amplitudes are never modified;
    ``steps = 0`` returns a copy. The clock adds ``dt`` once per step, as
    ``fp_step`` does, so neither the bytes nor the time reached depend on
    how a run is split into calls. A state whose size is not the
    generator's raises ValueError before any product.

    The watchdog tracks the norm of the reconstructed standard state, which
    the exact dynamics conserves: each step sums the words into one buffer
    w and takes |w| as one real dot of w's float view. A drift beyond 1e-6,
    or one that is not finite, raises DivergenceError naming the offending
    step.
    """
    if not dt > 0 or steps < 0:
        raise ValueError("dt must be positive and steps nonnegative")
    size, dim = state.amplitudes.size, h.generator.shape[1]
    if size != dim:
        raise ValueError(f"state of size {size}, generator of size {dim}")
    *inner, whole = h.stages(dt)
    basis = state.basis
    psi = state.amplitudes.copy()
    # stage k reads what stage k + 1 wrote: psi, then two buffers in turn
    reads = (psi,) + (np.empty_like(psi), np.empty_like(psi)) * len(inner)
    horner, last = tuple(zip(inner, reads, reads[1:])), reads[len(inner)]
    words = psi.reshape(basis.n_configs, basis.n_words)
    w = np.add.reduce(words, axis=1)
    re_im = w.view(np.float64)  # |w|^2 as one real dot
    ref = math.sqrt(re_im.dot(re_im))
    time = state.time
    for n in range(steps):
        for stage, x, y in horner:
            y[...] = psi
            stage(x, y)
        whole(last, psi)
        np.add.reduce(words, axis=1, out=w)
        drift = abs(math.sqrt(re_im.dot(re_im)) - ref)
        if not drift <= NORM_DRIFT_LIMIT:
            raise DivergenceError(
                f"reconstructed norm drifted by {drift:.3e} at step {n + 1} "
                f"(dt={dt:.3e}); reduce the step"
            )
        time += dt
    return BranchState(basis, psi, time)


def reconstruct_standard(state: BranchState) -> np.ndarray:
    """Sum the branch amplitudes over words, one amplitude per configuration."""
    basis = state.basis
    return state.amplitudes.reshape(basis.n_configs, basis.n_words).sum(axis=1)


def le_occupation(state: BranchState, r):
    """Mean number of atoms carrying le index ``r``, branch weighted.

    Weights are the squared branch amplitudes normalized over the whole
    branch vector, so summing over r = 0..K returns the atom number exactly.
    A sequence of indices gives a list, each value bit for bit its own call.
    """
    basis = state.basis
    single = isinstance(r, (int, np.integer))
    indices = [r] if single else list(r)
    for i in indices:
        if not 0 <= i <= basis.model.channels:
            raise ValueError(f"index {i} outside 0..{basis.model.channels}")
    w2 = np.abs(state.amplitudes) ** 2
    total = w2.sum()
    if total == 0.0:
        raise ValueError("state has zero norm")
    per_word = w2.reshape(basis.n_configs, basis.n_words).sum(axis=0)
    occ = [float(per_word @ basis.letter_counts[i] / total) for i in indices]
    return occ[0] if single else occ


def local_probabilities(
    state: BranchState, cell
) -> tuple[np.ndarray, float]:
    """Fractions of atoms in ``cell`` carrying each le index, plus diagnostic.

    Parameters
    ----------
    state : BranchState
    cell : iterable of int
        Site indices forming the sampling cell.

    Returns
    -------
    fractions : ndarray, shape (channels + 1,)
        fractions[r] is the branch-diagonal expected number of index-r atoms
        in the cell divided by the standard expected atom number there.
    diagnostic : float
        Absolute deviation of sum(fractions) from 1. The numerators are
        branch diagonal while the denominator contains the interference
        cross terms between words, so this measures exactly the relative
        weight of those cross terms; it is reported, never thresholded.
    """
    basis = state.basis
    sites = tuple(sorted(set(int(s) for s in cell)))
    if not sites:
        raise ValueError("cell must contain at least one site")
    if sites[0] < 0 or sites[-1] >= basis.model.sites:
        raise ValueError("cell contains sites outside the lattice")
    cell_count, counts = basis.cell_counts(sites)

    psi_std = reconstruct_standard(state)
    denom = float((np.abs(psi_std) ** 2) @ cell_count)
    if denom <= 1e-12 * basis.model.atoms:
        raise UndefinedProbabilityError(
            "no expected occupancy in the requested cell"
        )
    w2 = (np.abs(state.amplitudes) ** 2).reshape(basis.n_configs, basis.n_words)
    fractions = np.empty(basis.model.channels + 1)
    for r, count_cw in enumerate(counts):
        fractions[r] = float(np.einsum("cw,cw->", w2, count_cw)) / denom
    diagnostic = abs(float(fractions.sum()) - 1.0)
    return fractions, diagnostic


def permutation_index_map(basis: LatticeBasis, perm) -> np.ndarray:
    """Flat-index map of the simultaneous atom/word-letter permutation."""
    perm = list(perm)
    c_idx = basis.config_digits[:, perm] @ basis.config_radix
    w_idx = basis.word_digits[:, perm] @ basis.word_radix
    return (c_idx[:, None] * basis.n_words + w_idx[None, :]).ravel()

