"""Branch dynamics against independently built dense oracles.

The oracle side never touches the package assembly code: the standard
Hamiltonian is rebuilt by explicit loops over configuration tuples and the
reference evolution uses scipy.linalg.expm on dense matrices.
"""

import re
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import block_diag, expm

from lecollapse.exact import (
    DEFAULT_BASIS_CAP,
    TAYLOR_DEGREE,
    BasisSizeError,
    BranchState,
    DivergenceError,
    LatticeBasis,
    LatticeModel,
    UndefinedProbabilityError,
    _config_blocks,
    _hop_matrix,
    _track_count,
    build_branch_hamiltonian,
    default_timestep,
    evolve,
    le_occupation,
    local_probabilities,
    permutation_index_map,
    reconstruct_standard,
)


def dense_standard_oracle(model):
    """Standard N-atom Hamiltonian assembled by brute-force loops."""
    configs = list(product(range(model.sites), repeat=model.atoms))
    n = len(configs)
    h = np.zeros((n, n))
    for a, ca in enumerate(configs):
        for b, cb in enumerate(configs):
            diff = [i for i in range(model.atoms) if ca[i] != cb[i]]
            if len(diff) == 1 and abs(ca[diff[0]] - cb[diff[0]]) == 1:
                h[a, b] -= model.hop_amplitude
        for site in ca:
            for track in model.a_tracks:
                if site in track:
                    h[a, a] += model.u_strength
        for i in range(model.atoms):
            for j in range(i + 1, model.atoms):
                if ca[i] == ca[j]:
                    h[a, a] += model.v_strength
    return h


def standard_hamiltonian(model):
    """Plain Hamiltonian over configurations from the package's hop and
    track tables: hopping + track u + contact v."""
    basis = LatticeBasis(model)
    cd = basis.config_digits
    diag = model.u_strength * _track_count(model, basis).sum(axis=1).astype(np.float64)
    for i in range(model.atoms):
        for j in range(i + 1, model.atoms):
            diag += model.v_strength * (cd[:, i] == cd[:, j])
    return (_hop_matrix(model, basis) + sparse.diags(diag)).tocsr()


def permutation_defect(state):
    """Largest amplitude change under any atom/letter transposition."""
    worst = 0.0
    for perm in permutations(range(state.basis.model.atoms)):
        mapped = state.amplitudes[permutation_index_map(state.basis, perm)]
        worst = max(worst, float(np.abs(mapped - state.amplitudes).max()))
    return worst


def word_sum_map(basis):
    """Dense word-sum map: branch vector -> one amplitude per configuration."""
    return np.kron(np.eye(basis.n_configs), np.ones((1, basis.n_words)))


def reference_evolve(state, h, dt, steps):
    """The degree-m Taylor step summed term by term, with a projector-product
    watchdog: the plain form of ``evolve``'s step, whose degree-4 case is
    four-stage RK4.

    Each term multiplies the real H by a complex vector and then by -1j dt/k;
    ``evolve`` evaluates the same polynomial in Horner order, so it must
    agree with these amplitudes to rounding.
    """
    mat = h.matrix
    proj = sparse.csr_matrix(word_sum_map(state.basis))
    psi = state.amplitudes.copy()
    ref = np.linalg.norm(proj @ psi)
    for n in range(steps):
        term = psi
        for k in range(1, TAYLOR_DEGREE + 1):
            term = (-1j * dt / k) * (mat @ term)
            psi = psi + term
        drift = abs(np.linalg.norm(proj @ psi) - ref)
        if drift > 1e-6:
            raise DivergenceError(f"drifted by {drift:.3e} at step {n + 1}")
    return BranchState(state.basis, psi, state.time + steps * dt)


def written_out_step(psi, gen, dt):
    """One step in ``evolve``'s Horner order and the kernel's: each stage
    seeds y = psi and adds (dt/k) data[e] * x[col] for a row's entries in
    stored order, for k = m, ..., 2, 1 and m = TAYLOR_DEGREE."""
    counts = np.diff(gen.indptr)
    x = psi
    for k in range(TAYLOR_DEGREE, 0, -1):
        data = gen.data * (dt / k)
        y = psi.copy()
        for j in range(counts.max()):
            rows = np.flatnonzero(counts > j)
            e = gen.indptr[rows] + j
            y[rows] += data[e] * x[gen.indices[e]]
        x = y
    return x


def random_model(rng, sites, atoms, channels, **kw):
    base = dict(
        sites=sites,
        atoms=atoms,
        channels=channels,
        hop_amplitude=float(rng.uniform(0.3, 1.5)),
        u_strength=float(rng.uniform(0.1, 2.0)),
        v_strength=float(rng.uniform(0.1, 2.0)),
        a_tracks=tuple((int(s),) for s in rng.permutation(sites)[:channels]),
    )
    base.update(kw)
    return LatticeModel(**base)


def small_model(**kw):
    base = dict(
        sites=3,
        atoms=2,
        channels=1,
        hop_amplitude=1.0,
        u_strength=0.7,
        v_strength=1.3,
        a_tracks=((2,),),
    )
    base.update(kw)
    return LatticeModel(**base)


def test_word_sum_intertwines_the_generators():
    # summing over words before or after applying the generator is the same:
    # proj @ H_branch == H_standard @ proj, entry for entry
    for kw in (
        {},
        dict(channels=2, a_tracks=((2,), (0,))),
        dict(cross_channel_coupling="none"),
        dict(channels=3, atoms=2, a_tracks=((2,), (0,), (1,))),
    ):
        model = small_model(**kw)
        h = build_branch_hamiltonian(model)
        proj = word_sum_map(h.basis)
        lhs = proj @ h.matrix.toarray()
        rhs = dense_standard_oracle(model) @ proj
        assert np.abs(lhs - rhs).max() == pytest.approx(0.0, abs=1e-12)


def test_cross_channel_none_breaks_the_sum_identity_for_two_channels():
    # dropping the distinct-letter pair term removes weight that the plain
    # potential keeps, so the identity fails; this is why "diagonal" is the
    # default for more than one channel
    model = small_model(
        channels=2, a_tracks=((2,), (0,)), cross_channel_coupling="none"
    )
    h = build_branch_hamiltonian(model)
    proj = word_sum_map(h.basis)
    lhs = proj @ h.matrix.toarray()
    rhs = dense_standard_oracle(model) @ proj
    assert np.abs(lhs - rhs).max() > 0.1


def test_standard_hamiltonian_matches_oracle():
    for kw in ({}, dict(channels=2, a_tracks=((2,), (0, 1)))):
        model = small_model(**kw)
        got = standard_hamiltonian(model).toarray()
        assert np.abs(got - dense_standard_oracle(model)).max() < 1e-12


def test_letters_never_decrease_along_matrix_elements():
    model = small_model(channels=2, a_tracks=((2,), (0,)))
    h = build_branch_hamiltonian(model)
    basis = h.basis
    coo = h.matrix.tocoo()
    for row, col in zip(coo.row, coo.col):
        wr = basis.word_digits[row % basis.n_words]
        wc = basis.word_digits[col % basis.n_words]
        assert (wr >= wc).all()


def test_one_atom_on_its_track_follows_the_literal_contagion_rule():
    # basis letters (0, 1): an index-1 atom keeps its index and feels u,
    # an index-0 atom is raised to 1 at amplitude u, and nothing lowers an
    # index. In descending letter order (1, 0) this is u (p1 + s), with p1
    # the index-1 projector and s the raiser from 0 to 1
    u = 0.8
    model = small_model(sites=1, atoms=1, u_strength=u, v_strength=0.5,
                        a_tracks=((0,),))
    h = build_branch_hamiltonian(model)
    assert h.basis.word_digits.ravel().tolist() == [0, 1]
    assert np.array_equal(h.matrix.toarray(), u * np.array([[0.0, 0.0],
                                                            [1.0, 1.0]]))


def test_spectrum_is_real_despite_non_hermiticity():
    model = small_model()
    h = build_branch_hamiltonian(model)
    assert h.hermitian_defect > 0.1
    eig = np.linalg.eigvals(h.matrix.toarray())
    assert np.abs(eig.imag).max() < 1e-8


def test_hermitian_defect_matches_dense_norm_and_vanishes_without_contagion():
    model = small_model()
    h = build_branch_hamiltonian(model)
    dense = h.matrix.toarray()
    assert h.hermitian_defect == pytest.approx(
        np.linalg.norm(dense - dense.T, 2), rel=1e-10
    )
    quiet = small_model(u_strength=0.0, v_strength=0.0)
    assert build_branch_hamiltonian(quiet).hermitian_defect == 0.0


def test_defect_blocks_reassemble_the_antisymmetric_part():
    # H - H^T has no entry across configurations, its per-configuration
    # blocks rebuild it exactly, and the defect is the dense spectral norm
    rng = np.random.default_rng(4)
    for sites, atoms, channels in ((2, 2, 1), (3, 2, 2), (3, 3, 1), (3, 3, 2)):
        for coupling in ("diagonal", "none"):
            model = random_model(rng, sites, atoms, channels,
                                 cross_channel_coupling=coupling)
            h = build_branch_hamiltonian(model)
            n_w = h.basis.n_words
            dense = h.matrix.toarray()
            anti = dense - dense.T
            rows, cols = np.nonzero(anti)
            assert rows.size > 0
            assert np.array_equal(rows // n_w, cols // n_w)
            blocks = _config_blocks(sparse.coo_matrix(anti), n_w)
            assert np.array_equal(block_diag(*blocks), anti)
            assert h.hermitian_defect == pytest.approx(
                np.linalg.norm(anti, 2), rel=1e-12
            )


def test_defect_of_a_large_basis_comes_from_svds_and_matches_the_blocks():
    # past a 2048^2 dense budget the defect comes from sparse svds; the
    # batched SVD of the per-configuration blocks must give the same norm
    model = small_model(atoms=4, channels=3, a_tracks=((0,), (1,), (2,)))
    h = build_branch_hamiltonian(model)
    n_w = h.basis.n_words
    assert h.basis.n_basis * n_w > 2048 * 2048
    blocks = _config_blocks((h.matrix - h.matrix.T).tocoo(), n_w)
    want = np.linalg.svd(blocks, compute_uv=False).max()
    assert h.hermitian_defect == pytest.approx(want, rel=1e-10)


def test_defect_blocks_reject_an_entry_across_configurations():
    a = sparse.coo_matrix(([1.0, -1.0], ([0, 2], [2, 0])), shape=(4, 4))
    with pytest.raises(ValueError, match="configurations"):
        _config_blocks(a, 2)


def test_reconstruct_standard_matches_the_dense_word_sum_map():
    rng = np.random.default_rng(5)
    for sites, atoms, channels in ((3, 2, 1), (2, 3, 2), (3, 3, 2)):
        model = random_model(rng, sites, atoms, channels)
        basis = LatticeBasis(model)
        amp = rng.normal(size=basis.n_basis) + 1j * rng.normal(size=basis.n_basis)
        got = reconstruct_standard(BranchState(basis, amp))
        want = word_sum_map(basis) @ amp
        assert got.shape == (basis.n_configs,)
        assert np.abs(got - want).max() < 1e-13


@pytest.mark.parametrize(
    "sites, atoms, channels",
    [(s, a, c) for s in (2, 3) for a in (2, 3) for c in (1, 2)],
)
def test_evolve_equals_the_written_out_horner_step_bit_for_bit(
    sites, atoms, channels
):
    # the eight (sites, atoms, channels) shapes of the criterion 2/3 family
    rng = np.random.default_rng([sites, atoms, channels])
    bosonic = bool(rng.integers(0, 2)) if atoms <= sites else True
    model = random_model(rng, sites, atoms, channels, bosonic=bosonic)
    h = build_branch_hamiltonian(model)
    state = BranchState.from_standard(h.basis)
    dt = default_timestep(h)
    want = state.amplitudes
    for _ in range(30):
        want = written_out_step(want, h.generator, dt)
    got = evolve(state, h, dt, 30)
    assert got.amplitudes.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "channels, coupling, bosonic, dt_scale, expect",
    [
        (1, "diagonal", True, 1.0, "finished"),
        (1, "none", False, 1.0, "finished"),
        (2, "diagonal", False, 1.0, "finished"),
        (2, "diagonal", True, 1.0, "finished"),
        # two channels without the cross term break the branch-sum identity
        (2, "none", True, 1.0, "diverged"),
        # steps 16 and 320 times the default: the watchdog fires at step
        # 98 or 20, and at step 1
        (1, "diagonal", False, 16.0, "diverged"),
        (2, "diagonal", True, 16.0, "diverged"),
        (1, "diagonal", False, 320.0, "diverged"),
        (2, "diagonal", True, 320.0, "diverged"),
    ],
)
def test_evolve_agrees_with_plain_rk4_to_rounding(
    channels, coupling, bosonic, dt_scale, expect
):
    # against the plain form of the step (plain RK4 at degree 4): after 300
    # steps the amplitudes agree within 1e-13 of their norm; where a model
    # diverges, both sides raise DivergenceError at the same step
    rng = np.random.default_rng([channels, bosonic, int(dt_scale)])
    model = random_model(rng, 3, 2, channels, bosonic=bosonic,
                         cross_channel_coupling=coupling)
    h = build_branch_hamiltonian(model)
    state = BranchState.from_standard(h.basis)
    dt = dt_scale * default_timestep(h)
    outcomes = []
    for run in (evolve, reference_evolve):
        try:
            out = run(state, h, dt, 300)
        except DivergenceError as err:
            step = re.search(r"at step (\d+)", str(err)).group(1)
            outcomes.append(("diverged", int(step)))
        else:
            outcomes.append(("finished", out.amplitudes))
    (kind, got), (ref_kind, want) = outcomes
    assert kind == ref_kind == expect
    if kind == "diverged":
        assert got == want
    else:
        assert np.abs(got - want).max() <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("model", [
    LatticeModel(3, 2, 1, 1.0, 0.8, 0.5, ((0,),)),
    LatticeModel(3, 3, 2, 1.0, 0.8, 0.5, ((0,), (2,))),
    LatticeModel(2, 3, 1, 0.7, 1.3, 1.1, ((1,),), bosonic=False),
], ids=["defaults", "three-atoms-two-channels", "distinguishable"])
def test_evolve_follows_dense_expm_within_1e_12(model):
    # the whole branch vector against expm of the dense generator to t = 10,
    # at the default step and at twice it. At the default step a step of
    # degree m - 1 also stays at rounding; at twice it its truncation
    # reaches 1.3e-12 to 9e-12 on these models, where degree m stays under
    # 1.5e-13
    h = build_branch_hamiltonian(model)
    state = BranchState.from_standard(h.basis)
    gen = -1j * h.matrix.toarray()
    for dt in (default_timestep(h), 2.0 * default_timestep(h)):
        steps = int(np.ceil(10.0 / dt))
        got = evolve(state, h, dt, steps).amplitudes
        want = expm(gen * (steps * dt)) @ state.amplitudes
        assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("small, large", [(2, 3), (3, 2)])
def test_evolve_rejects_a_state_of_another_size(small, large):
    # the kernel has no shape checks: a 16-amplitude state under the
    # 36-dimensional generator would be read and written out of bounds
    h = build_branch_hamiltonian(small_model(sites=large, a_tracks=((1,),)))
    state = BranchState.from_standard(
        LatticeBasis(small_model(sites=small, a_tracks=((1,),))))
    sizes = (state.amplitudes.size, h.basis.n_basis)
    assert sorted(sizes) == [16, 36]
    for steps in (0, 1):
        with pytest.raises(ValueError, match=r"size %d, .* size %d" % sizes):
            evolve(state, h, default_timestep(h), steps)


def test_branch_sum_follows_exact_unitary_evolution():
    # evolve the branch state with fixed-step RK4, reconstruct, and compare
    # against expm applied to the independently assembled standard matrix
    model = small_model()
    h = build_branch_hamiltonian(model)
    state = BranchState.from_standard(h.basis)
    psi0 = reconstruct_standard(state)
    dt = default_timestep(h)
    steps = int(np.ceil(2.0 / dt))
    out = evolve(state, h, dt, steps)
    got = reconstruct_standard(out)
    want = expm(-1j * dense_standard_oracle(model) * (steps * dt)) @ psi0
    assert np.abs(got - want).max() < 1e-6


def test_branch_evolution_matches_dense_expm_of_branch_matrix():
    # the full branch vector, not only its word sum, must track the exact
    # non-unitary semigroup of the branch generator
    model = small_model()
    h = build_branch_hamiltonian(model)
    state = BranchState.from_standard(h.basis)
    t = 1.0
    dt = default_timestep(h)
    steps = int(np.ceil(t / dt))
    out = evolve(state, h, dt, steps)
    want = expm(-1j * h.matrix.toarray() * (steps * dt)) @ state.amplitudes
    assert np.abs(out.amplitudes - want).max() < 1e-6


def test_zero_word_sector_norm_is_conserved():
    # nothing flows back into the all-zeros sector, and its outflow is purely
    # a bookkeeping transfer: the sector norm stays constant in time
    model = small_model()
    h = build_branch_hamiltonian(model)
    basis = h.basis
    state = BranchState.from_standard(basis)
    zero_word = basis.word_index([0] * model.atoms)
    sel = np.arange(basis.n_configs) * basis.n_words + zero_word
    before = np.linalg.norm(state.amplitudes[sel])
    dt = default_timestep(h)
    out = evolve(state, h, dt, 400)
    after = np.linalg.norm(out.amplitudes[sel])
    assert after == pytest.approx(before, abs=1e-7)


def test_evolve_forms_the_complex_generator_once():
    h = build_branch_hamiltonian(small_model())
    state = BranchState.from_standard(h.basis)
    dt = default_timestep(h)
    first = evolve(state, h, dt, 3)
    gen = h.generator
    second = evolve(state, h, dt, 3)
    assert h.generator is gen
    assert np.array_equal(first.amplitudes, second.amplitudes)
    # evolve steps with the cached generator: a zero one changes nothing
    h.generator = 0.0 * gen
    assert np.array_equal(evolve(state, h, dt, 3).amplitudes,
                          state.amplitudes)


def test_evolve_rebinds_its_stages_when_dt_changes():
    # one Hamiltonian alternating dt1, dt2, dt1 must give, call by call, the
    # bytes of the same steps on a fresh Hamiltonian: the bound stages are
    # keyed on dt as well as on the generator
    model = small_model()
    h = build_branch_hamiltonian(model)
    state = BranchState.from_standard(h.basis)
    dt = default_timestep(h)
    for step in (dt, 0.5 * dt, dt):
        got = evolve(state, h, step, 3)
        want = evolve(state, build_branch_hamiltonian(model), step, 3)
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
        state = got


def test_a_zero_generator_sets_no_default_dt():
    # one atom on one site with an empty track: every term of H vanishes
    model = small_model(sites=1, atoms=1, a_tracks=((),))
    h = build_branch_hamiltonian(model)
    assert h.row_sum_norm == 0.0
    state = BranchState.from_standard(h.basis)
    with pytest.raises(ValueError, match="the generator is zero, so it "
                                         "sets no default dt: give dt"):
        default_timestep(h)
    out = evolve(state, h, 0.1, 5)
    assert out.amplitudes.tobytes() == state.amplitudes.tobytes()


def test_watchdog_raises_on_oversized_step():
    model = small_model(u_strength=2.0, v_strength=3.0)
    h = build_branch_hamiltonian(model)
    state = BranchState.from_standard(h.basis)
    with pytest.raises(DivergenceError):
        evolve(state, h, dt=2.0 / h.row_sum_norm * 4.0, steps=200)


def test_watchdog_raises_on_a_drift_that_is_not_finite():
    # a huge step overflows the stages to NaN, whose drift compares
    # False against any limit: the watchdog must still fire at once
    h = build_branch_hamiltonian(small_model(sites=2, a_tracks=((1,),)))
    state = BranchState.from_standard(h.basis)
    with np.errstate(all="ignore"), pytest.raises(
            DivergenceError, match=r"drifted by nan at step 1 "):
        evolve(state, h, 1e200, 3)


def test_nan_dt_is_rejected():
    h = build_branch_hamiltonian(small_model())
    state = BranchState.from_standard(h.basis)
    with pytest.raises(ValueError, match="dt"):
        evolve(state, h, float("nan"), 3)


def test_many_steps_in_one_call_equal_single_steps():
    model = small_model(channels=2, a_tracks=((2,), (0,)))
    h = build_branch_hamiltonian(model)
    state = BranchState.from_standard(h.basis)
    before = state.amplitudes.copy()
    dt = default_timestep(h)
    chunked = evolve(state, h, dt, 25)
    single = state
    for _ in range(25):
        single = evolve(single, h, dt, 1)
    assert chunked.amplitudes.tobytes() == single.amplitudes.tobytes()
    # the clock adds dt once per step, however the steps are chunked
    assert chunked.time == single.time == sum([dt] * 25)
    # the caller's amplitudes are left as they were
    assert state.amplitudes.tobytes() == before.tobytes()
    assert state.time == 0.0


def test_zero_steps_return_a_copy():
    h = build_branch_hamiltonian(small_model())
    dt = default_timestep(h)
    state = evolve(BranchState.from_standard(h.basis), h, dt, 4)
    same = evolve(state, h, dt, 0)
    assert same is not state
    assert not np.shares_memory(same.amplitudes, state.amplitudes)
    assert same.amplitudes.tobytes() == state.amplitudes.tobytes()
    assert same.time == state.time


def test_le_occupation_partitions_the_atom_number():
    model = small_model(channels=2, a_tracks=((2,), (0,)))
    h = build_branch_hamiltonian(model)
    state = BranchState.from_standard(h.basis)
    assert le_occupation(state, 0) == pytest.approx(model.atoms, abs=1e-12)
    out = evolve(state, h, default_timestep(h), 300)
    occ = [le_occupation(out, r) for r in range(model.channels + 1)]
    assert sum(occ) == pytest.approx(model.atoms, abs=1e-9)
    # one call over every index gives each single call's float exactly
    assert le_occupation(out, range(model.channels + 1)) == occ
    assert le_occupation(out, (np.int64(2), 0)) == [occ[2], occ[0]]
    with pytest.raises(ValueError, match="index 3"):
        le_occupation(out, [0, 3])
    assert occ[1] > 1e-4 and occ[2] > 1e-4
    assert occ[0] < model.atoms


def test_le_occupation_against_dense_expm():
    model = small_model()
    h = build_branch_hamiltonian(model)
    state = BranchState.from_standard(h.basis)
    t = 1.5
    dt = default_timestep(h)
    steps = int(np.ceil(t / dt))
    out = evolve(state, h, dt, steps)
    ref_amp = expm(-1j * h.matrix.toarray() * (steps * dt)) @ state.amplitudes
    ref = BranchState(h.basis, ref_amp, steps * dt)
    assert le_occupation(out, 1) == pytest.approx(le_occupation(ref, 1), abs=1e-8)


def test_local_probabilities_start_unentangled_and_sum_near_one():
    model = small_model()
    h = build_branch_hamiltonian(model)
    state = BranchState.from_standard(h.basis)
    f, diag = local_probabilities(state, [0, 1, 2])
    assert f[0] == pytest.approx(1.0, abs=1e-12)
    assert f[1] == pytest.approx(0.0, abs=1e-12)
    assert diag == pytest.approx(0.0, abs=1e-12)
    out = evolve(state, h, default_timestep(h), 500)
    f, diag = local_probabilities(out, [2])
    assert (f >= -1e-12).all()
    assert f[1] > 1e-4
    assert np.isfinite(diag)


def test_local_probabilities_empty_cell_is_an_error():
    model = small_model(u_strength=0.0, v_strength=0.0, hop_amplitude=0.0)
    basis = LatticeBasis(model)
    # both atoms on site 0, unentangled
    amp = np.zeros(basis.n_basis)
    amp[basis.config_index((0, 0)) * basis.n_words] = 1.0
    state = BranchState(basis, amp)
    with pytest.raises(UndefinedProbabilityError):
        local_probabilities(state, [2])
    with pytest.raises(ValueError):
        local_probabilities(state, [])


def test_without_interactions_nothing_leaves_the_zero_sector():
    model = small_model(u_strength=0.0, v_strength=0.0)
    h = build_branch_hamiltonian(model)
    state = BranchState.from_standard(h.basis)
    out = evolve(state, h, default_timestep(h), 200)
    assert le_occupation(out, 0) == pytest.approx(model.atoms, abs=1e-12)
    assert h.hermitian_defect == 0.0


@pytest.mark.parametrize("bosonic", [True, False])
@pytest.mark.parametrize("sites, atoms, channels", list(product(
    (2, 3), (2, 3), (1, 2))))
def test_the_standard_start_is_the_uniform_zero_word_state(
        sites, atoms, channels, bosonic):
    # every shape of the criterion 2/3 family: the uniform start needs no
    # symmetrizing, bosonic or not
    model = small_model(sites=sites, atoms=atoms, channels=channels,
                        a_tracks=tuple((s,) for s in range(channels)),
                        bosonic=bosonic)
    basis = LatticeBasis(model)
    want = np.zeros(basis.n_basis, dtype=np.complex128)
    want[::basis.n_words] = 1.0
    want /= np.linalg.norm(want)
    state = BranchState.from_standard(basis)
    assert state.amplitudes.tobytes() == want.tobytes()
    assert state.time == 0.0
    assert permutation_defect(state) == 0.0


def test_bosonic_symmetry_survives_evolution():
    model = small_model(atoms=3, sites=3, v_strength=0.9)
    h = build_branch_hamiltonian(model)
    state = BranchState.from_standard(h.basis)
    assert permutation_defect(state) == 0.0
    out = evolve(state, h, default_timestep(h), 150)
    assert permutation_defect(out) < 1e-9


def test_basis_cap_is_enforced():
    # 8^4 configurations times 4^4 words is the cap itself; 9^4 exceeds it
    tracks = ((0,), (1,), (2,))
    at_cap = small_model(atoms=4, sites=8, channels=3, a_tracks=tracks)
    assert LatticeBasis(at_cap).n_basis == DEFAULT_BASIS_CAP == 2**20
    model = small_model(atoms=4, sites=9, channels=3, a_tracks=tracks)
    with pytest.raises(BasisSizeError, match="1679616 .* exceeds the cap "
                                             "1048576"):
        LatticeBasis(model)
    with pytest.raises(BasisSizeError):
        build_branch_hamiltonian(model)


def test_model_validation():
    with pytest.raises(ValueError):
        small_model(a_tracks=((2,), (0,)))  # two tracks, one channel
    with pytest.raises(ValueError):
        small_model(a_tracks=((7,),))
    with pytest.raises(ValueError):
        small_model(cross_channel_coupling="both")
    with pytest.raises(ValueError):
        small_model(atoms=0)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    hop=st.floats(0.1, 2.0),
    u=st.floats(0.0, 2.0),
    v=st.floats(0.0, 2.0),
    channels=st.integers(1, 2),
    track_site=st.integers(0, 2),
)
def test_intertwining_holds_for_random_small_models(hop, u, v, channels, track_site):
    tracks = tuple((int((track_site + k) % 3),) for k in range(channels))
    model = LatticeModel(
        sites=3,
        atoms=2,
        channels=channels,
        hop_amplitude=hop,
        u_strength=u,
        v_strength=v,
        a_tracks=tracks,
    )
    h = build_branch_hamiltonian(model)
    proj = word_sum_map(h.basis)
    lhs = proj @ h.matrix.toarray()
    rhs = dense_standard_oracle(model) @ proj
    assert np.abs(lhs - rhs).max() < 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    sites=st.integers(1, 3),
    atoms=st.integers(1, 3),
    channels=st.integers(1, 2),
    hop=st.floats(0.1, 1.5),
    u=st.floats(0.0, 2.0),
    v=st.floats(0.0, 2.0),
    track_masks=st.tuples(st.integers(0, 7), st.integers(0, 7)),
    bosonic=st.booleans(),
    steps=st.integers(0, 40),
    cuts=st.lists(st.integers(1, 39), max_size=4),
)
def test_evolve_in_any_chunks_follows_the_dense_standard_evolution(
    sites, atoms, channels, hop, u, v, track_masks, bosonic, steps, cuts
):
    # each channel's track is a random subset of the sites, possibly empty
    tracks = tuple(tuple(s for s in range(sites) if mask >> s & 1)
                   for mask in track_masks[:channels])
    model = LatticeModel(sites=sites, atoms=atoms, channels=channels,
                         hop_amplitude=hop, u_strength=u, v_strength=v,
                         a_tracks=tracks, bosonic=bosonic)
    h = build_branch_hamiltonian(model)
    state = BranchState.from_standard(h.basis)
    dt = default_timestep(h) if h.row_sum_norm > 0.0 else 0.025
    whole = evolve(state, h, dt, steps)
    # random chunkings of the same steps give the bytes of one call
    bounds = sorted({0, steps} | {c for c in cuts if c < steps})
    chunked = state
    for lo, hi in zip(bounds, bounds[1:]):
        chunked = evolve(chunked, h, dt, hi - lo)
    assert chunked.amplitudes.tobytes() == whole.amplitudes.tobytes()
    assert chunked.time == whole.time == sum([dt] * steps)
    # the word sum tracks expm of the dense standard Hamiltonian; RK4's
    # error at dt E <= 0.025 is about 1e-10 per step, so 40 steps stay
    # well inside 1e-8 of the unit norm
    psi0 = reconstruct_standard(state)
    want = expm(-1j * dense_standard_oracle(model) * (steps * dt)) @ psi0
    assert np.abs(reconstruct_standard(whole) - want).max() <= 1e-8
