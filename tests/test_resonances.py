"""Bohr grouping and level-shift spectra against closed forms."""

import numpy as np
import pytest

from resodec import resonances
from resodec.config import load_config, register_from_config, \
    scaling_from_config
from resodec.errors import (
    AmbiguousClustering,
    DefectiveLevelShift,
    ValidationError,
)
from resodec.model import DEFAULT_SEED, CouplingTerm, FormFactor, \
    SystemSpec, build_system, register_to_system
from resodec.reservoir import (
    _half_line_transforms,
    half_line_transform,
    mean_inverse_frequency,
    pv_energy_shift,
    thermal_spectral_density,
    xi,
)
from resodec.resonances import (
    _channel_tables,
    _diagonalize_groups,
    bohr_spectrum,
    check_nonoverlap,
    default_cluster_tolerance,
    level_shift_operator,
    resonance_energies,
)

from conftest import CONFIG_DIR, sidon_spec, single_qubit_spec

RNG = np.random.default_rng(20240819)

QUBIT = dict(a=0.25, b=-0.45, c=0.6 + 0.3j, delta=1.1,
             g=FormFactor(radial_exponent=-0.5, decay_exponent=1,
                          overall_scale=1.2),
             beta=1.3, lam=0.02)


def random_spec(n, channels=1, seed=None):
    rng = np.random.default_rng(seed)
    energies = np.sort(rng.uniform(0.0, 1.0, n)) * np.arange(1, n + 1)
    couplings = []
    for _ in range(channels):
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        G = (raw + raw.conj().T) / 2.0
        ff = FormFactor(radial_exponent=float(rng.choice([-0.5, 0.3, 1.0])),
                        decay_exponent=int(rng.choice([1, 2])),
                        overall_scale=float(rng.uniform(0.5, 1.5)))
        couplings.append((float(rng.uniform(0.005, 0.03)), G, ff))
    return build_system(energies, couplings,
                        beta=float(rng.uniform(0.5, 2.0)))


# =====================================================================
# Bohr grouping
# =====================================================================

def test_bohr_spectrum_qubit_groups():
    spec = single_qubit_spec(**QUBIT)
    bs = bohr_spectrum(spec)
    assert np.allclose(sorted(bs), [-1.1, 0.0, 1.1])
    assert bs[0.0].tolist() == [[0, 0], [1, 1]]
    assert bs[-1.1].tolist() == [[0, 1]]
    assert bs[1.1].tolist() == [[1, 0]]


def test_bohr_spectrum_merges_degenerate_levels():
    ff = QUBIT["g"]
    G = np.eye(3, dtype=complex)
    spec = build_system([0.0, 0.0, 1.0], [(0.01, G, ff)], beta=1.0)
    bs = bohr_spectrum(spec)
    # degenerate levels put the (0,1)/(1,0) coherences into the e = 0
    # group alongside the diagonals
    assert bs[0.0].tolist() == [[0, 0], [0, 1], [1, 0], [1, 1],
                                       [2, 2]]


def test_bohr_spectrum_partitions_pairs_lexicographically():
    rng = np.random.default_rng(41)
    ff = QUBIT["g"]
    for trial in range(12):
        n = int(rng.integers(2, 8))
        if trial % 2:
            # exact degeneracies: levels drawn from a few values
            energies = rng.choice([0.0, 0.3, 0.7, 1.3], n)
        else:
            energies = rng.uniform(0.0, 2.0, n)
        spec = build_system(energies, [(0.01, np.eye(n, dtype=complex),
                                        ff)], beta=1.0)
        bs = bohr_spectrum(spec)
        every = np.concatenate(list(bs.values()))
        assert sorted(map(tuple, every.tolist())) == \
            [(m, k) for m in range(n) for k in range(n)]
        for e, pairs in bs.items():
            assert pairs.shape[1:] == (2,)
            assert not pairs.flags.writeable
            assert pairs.tolist() == sorted(pairs.tolist())
            diffs = energies[pairs[:, 0]] - energies[pairs[:, 1]]
            assert np.all(np.abs(diffs - e)
                          <= default_cluster_tolerance(energies))
        diagonal = [[m, m] for m in range(n)]
        assert all(p in bs[0.0].tolist() for p in diagonal)


def test_bohr_representatives_are_the_sorted_cluster_means():
    # levels of multiplicity 1..13, jittered far below the tolerance,
    # give clusters of sizes below 8, from 8 to 128, and above 128
    # (12 * 13 = 156); each representative equals bitwise the mean of
    # its cluster's sorted differences
    ff = QUBIT["g"]
    rng = np.random.default_rng(7)
    for _ in range(4):
        levels = np.repeat(rng.uniform(0.0, 2.0, 6), [1, 2, 3, 5, 12, 13])
        energies = levels + rng.uniform(-1e-11, 1e-11, levels.size)
        n = energies.size
        spec = build_system(energies, [(0.01, np.eye(n, dtype=complex),
                                        ff)], beta=1.0)
        bs = bohr_spectrum(spec)
        sizes = [len(p) for e, p in bs.items() if e != 0.0]
        assert min(sizes) < 8 and max(sizes) > 128
        assert any(8 <= size <= 128 for size in sizes)
        for e, pairs in bs.items():
            diffs = np.sort(energies[pairs[:, 0]] - energies[pairs[:, 1]])
            want = 0.0 if [0, 0] in pairs.tolist() else float(diffs.mean())
            assert e == want


def test_default_cluster_tolerance_scales_with_spread():
    assert default_cluster_tolerance(np.array([0.0, 2.0])) == 2e-9
    assert default_cluster_tolerance(np.array([5.0])) == 1e-12


def test_ambiguous_clustering_raises():
    ff = QUBIT["g"]
    spec = build_system([0.0, 1.0, 1.0 + 5e-3],
                        [(0.01, np.eye(3, dtype=complex), ff)], beta=1.0)
    with pytest.raises(AmbiguousClustering):
        bohr_spectrum(spec, tol=1e-3)


@pytest.mark.parametrize("tol", [0.0, -1e-9, np.inf, np.nan])
def test_bohr_spectrum_rejects_non_finite_or_nonpositive_tol(tol):
    # tol = inf would merge every pair into one e = 0 group and give
    # the qubit a negative decay rate
    with pytest.raises(ValidationError, match="tol must be finite"):
        bohr_spectrum(single_qubit_spec(**QUBIT), tol=tol)


def test_channel_tables_share_entries_of_rounded_gaps():
    # gaps 0.8 and 0.8 + 1e-13 round to one key at 1e-12, so they get
    # the same W and D, those of the rounded gap
    ff = FormFactor(radial_exponent=0.5, decay_exponent=2)
    beta = 1.5
    G = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=complex)
    spec = build_system([0.0, 0.8, 0.8 + 1e-13], [(0.01, G, ff)], beta)
    [(_, _, K, D)] = _channel_tables(spec, [[0.01]])
    w_down = half_line_transform(ff, beta, -0.8)
    w_up = half_line_transform(ff, beta, 0.8)
    W = np.array([[0, w_down, w_down], [w_up, 0, 0], [w_up, 0, 0]])
    assert np.array_equal(K, (G * W) @ G)
    assert K[1, 1] == K[2, 2] == K[1, 2] == K[2, 1] == w_up
    assert D[0, 1] == D[0, 2] == thermal_spectral_density(ff, beta, 0.8)
    assert D[1, 0] == D[2, 0] == thermal_spectral_density(ff, beta, -0.8)
    assert D[1, 2] == D[2, 1] == 0.0


def _reference_channel_tables(spec):
    """(K, D) of every channel, D evaluated at k for W and again at -k
    for the density table, as _channel_tables did before it read D(-k)
    from key -k."""
    E, beta = spec.energies, spec.beta
    tables = []
    for term in spec.couplings:
        ff, G = term.form_factor, term.matrix
        m, j = np.nonzero(np.abs(G) > 0.0)
        gaps = [round(g, 12) for g in (E[m] - E[j]).tolist()]
        keys = sorted(set(gaps))
        w_of = dict(zip(keys, _half_line_transforms(
            ff, beta, keys,
            [thermal_spectral_density(ff, beta, k) for k in keys])))
        d_of = {k: thermal_spectral_density(ff, beta, -k) for k in keys}
        W = np.zeros_like(G)
        D = np.zeros(G.shape)
        W[m, j] = [w_of[g] for g in gaps]
        D[m, j] = [d_of[g] for g in gaps]
        tables.append(((G * W) @ G, D))
    return tables


def _counted_channel_tables(monkeypatch, spec):
    """(_channel_tables' (K, D) per channel, its count of D calls)."""
    calls = []
    density = resonances.thermal_spectral_density
    monkeypatch.setattr(resonances, "thermal_spectral_density",
                        lambda *args: calls.append(args) or density(*args))
    tables = _channel_tables(spec, [[1.0] * len(spec.couplings)])
    return [(K, D) for _, _, K, D in tables], len(calls)


def test_channel_tables_evaluate_d_once_per_gap(monkeypatch):
    # every gap k of a Hermitian coupling has its negative -k among the
    # keys, so D(-k) is the density at key -k: 381 calls per channel of
    # the Sidon spec where the reference makes 762, and the same bytes
    spec = sidon_spec(np.random.default_rng(5))
    got, calls = _counted_channel_tables(monkeypatch, spec)
    assert calls == 2 * 381
    want = _reference_channel_tables(spec)
    for (K, D), (K_ref, D_ref) in zip(got, want, strict=True):
        assert K.dtype == K_ref.dtype and K.tobytes() == K_ref.tobytes()
        assert D.dtype == D_ref.dtype and D.tobytes() == D_ref.tobytes()


# =====================================================================
# Single-qubit level shifts against reservoir primitives
# =====================================================================

def test_population_block_matches_density_matrix_form():
    a, b, c = QUBIT["a"], QUBIT["b"], QUBIT["c"]
    delta, g, beta = QUBIT["delta"], QUBIT["g"], QUBIT["beta"]
    spec = single_qubit_spec(**QUBIT)
    bs = bohr_spectrum(spec)
    lam0 = level_shift_operator(spec, bs[0.0])

    c2 = abs(c) ** 2
    d_plus = thermal_spectral_density(g, beta, delta)
    d_minus = thermal_spectral_density(g, beta, -delta)
    expected = 1j * np.pi * c2 * np.array(
        [[d_minus, -d_plus], [-d_minus, d_plus]])
    assert np.allclose(lam0, expected, rtol=1e-12, atol=1e-14)

    evals = np.sort_complex(np.linalg.eigvals(lam0))
    target = np.sort_complex(np.array(
        [0.0, 1j * np.pi * c2 * xi(g, beta, delta)]))
    assert np.allclose(evals, target, rtol=1e-12, atol=1e-13)


def test_coherence_shift_matches_transform_combination():
    a, b, c = QUBIT["a"], QUBIT["b"], QUBIT["c"]
    delta, g, beta, lam = (QUBIT["delta"], QUBIT["g"], QUBIT["beta"],
                           QUBIT["lam"])
    spec = single_qubit_spec(**QUBIT)
    data = {r.e: r for r in resonance_energies(spec)}

    c2 = abs(c) ** 2
    s_zero = 0.5 * mean_inverse_frequency(g)
    s_diff = 0.5 * pv_energy_shift(g, beta, delta)
    d_zero = thermal_spectral_density(g, beta, 0.0)
    expected = (-delta
                + lam ** 2 * ((b * b - a * a) * s_zero + c2 * s_diff)
                + 0.5j * lam ** 2 * np.pi
                * ((a - b) ** 2 * d_zero + c2 * xi(g, beta, delta)))
    eps = data[-delta].epsilons[0]
    assert np.isclose(eps, expected, rtol=1e-9, atol=1e-14)

    # population-group decay rate
    assert np.isclose(data[0.0].gamma,
                      lam ** 2 * np.pi * c2 * xi(g, beta, delta),
                      rtol=1e-12)
    assert data[0.0].nu == 2
    assert data[-delta].nu == 1


def test_trace_and_gibbs_null_vectors():
    spec = random_spec(3, channels=1, seed=11)
    bs = bohr_spectrum(spec)
    lam0 = level_shift_operator(spec, bs[0.0])
    scale = np.max(np.abs(lam0))
    # the all-ones row (trace functional) annihilates the population
    # block from the left ...
    assert np.max(np.abs(np.ones(3) @ lam0)) <= 1e-12 * scale
    # ... and the Gibbs weights from the right (detailed balance)
    w = np.exp(-spec.beta * spec.energies)
    assert np.max(np.abs(lam0 @ w)) <= 1e-12 * scale * np.max(w)


# =====================================================================
# Resonance data structure
# =====================================================================

def test_resonance_energies_sorted_and_consistent():
    spec = random_spec(4, channels=2, seed=5)
    data = resonance_energies(spec)
    es = [r.e for r in data]
    assert es == sorted(es)
    lam = spec.overall_coupling
    for r in data:
        assert np.allclose(r.epsilons, r.e + lam ** 2 * r.deltas,
                           rtol=0.0, atol=1e-15)
        # the stored eigenvectors are a well-conditioned basis ...
        d = len(r.pairs)
        left = np.linalg.inv(r.right_vectors)
        assert np.allclose(left @ r.right_vectors, np.eye(d), atol=1e-9)
        # ... that rebuilds the group's level-shift matrix
        lam_mat = level_shift_operator(spec, r.pairs)
        recon = (r.right_vectors * r.deltas) @ left
        assert np.allclose(recon, lam_mat, atol=1e-9 * max(
            1.0, float(np.max(np.abs(lam_mat)))))


def test_conjugate_pairing_of_blocks_and_energies():
    for seed in (1, 2, 3):
        spec = random_spec(int(RNG.integers(3, 5)), channels=1, seed=seed)
        data = {round(r.e, 10): r for r in resonance_energies(spec)}
        for e_key, r in data.items():
            partner = data[round(-r.e, 10)]
            # energies pair as eps_{-e} = -conj(eps_e); sort by decay
            # part, which is stable under the conjugation
            got = partner.epsilons
            want = -np.conj(r.epsilons)
            got = got[np.lexsort((got.real, got.imag))]
            want = want[np.lexsort((want.real, want.imag))]
            assert np.allclose(got, want, atol=1e-10)
            # and so do the matrices, under pair transposition
            idx = {p: i for i, p in
                   enumerate(map(tuple, partner.pairs.tolist()))}
            perm = [idx[(n, m)] for m, n in r.pairs.tolist()]
            block = level_shift_operator(spec, partner.pairs)
            block = block[np.ix_(perm, perm)]
            assert np.allclose(block,
                               -np.conj(level_shift_operator(spec, r.pairs)),
                               atol=1e-12)


def test_imaginary_parts_nonnegative():
    for seed in (21, 22, 23):
        spec = random_spec(4, channels=1, seed=seed)
        for r in resonance_energies(spec):
            assert r.deltas.imag.min() >= -1e-10


def test_parallel_resonances_are_deterministic():
    spec = random_spec(4, channels=2, seed=9)
    serial = resonance_energies(spec, parallel=1)
    threaded = resonance_energies(spec, parallel=4)
    assert len(serial) == len(threaded)
    for r1, r2 in zip(serial, threaded):
        assert r1.e == r2.e
        assert np.array_equal(r1.epsilons, r2.epsilons)
        assert np.array_equal(r1.right_vectors, r2.right_vectors)


def test_defective_level_shift_raises():
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(DefectiveLevelShift):
        _diagonalize_groups([0.0], [np.array([[0, 0], [1, 1]])],
                            nilpotent[None], 0.1)


def test_defective_matrix_in_batched_stack_is_named():
    # one batched eigendecomposition covers all same-size groups; the
    # error must still name the group whose matrix is defective
    stack = np.array([[[1.0, 0.0], [0.0, 2.0]],
                      [[0.0, 1.0], [0.0, 0.0]],
                      [[1.0, 0.5], [0.0, 3.0]]], dtype=complex)
    es = [-0.75, 0.375, 1.25]
    groups = list(np.array([[[0, 1], [2, 3]], [[0, 2], [1, 3]],
                            [[2, 0], [3, 1]]]))
    with pytest.raises(DefectiveLevelShift, match=r"e = 0\.375 "):
        _diagonalize_groups(es, groups, stack, 0.1)
    good = _diagonalize_groups([es[0], es[2]], [groups[0], groups[2]],
                               stack[[0, 2]], 0.1)
    assert [r.e for r in good] == [es[0], es[2]]
    assert np.array_equal(good[1].deltas, [1.0, 3.0])


def _same_data(fast, slow):
    """Byte equality of two lists of ResonanceData."""
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert a.e == b.e
        for name in ("deltas", "right_vectors", "epsilons"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes(), (a.e, name)
        assert np.float64(a.gamma).tobytes() == np.float64(b.gamma).tobytes()


def _with_and_without_diagonal_shortcut(monkeypatch, compute):
    """compute() with diagonal stacks read off, then with every stack
    through eig and cond; also the (size, diagonal count, count) of
    every batch of the first run."""
    seen = []
    plain = resonances._plain_diagonal

    def spy(lam_mats):
        mask = plain(lam_mats)
        seen.append((lam_mats.shape[-1], int(mask.sum()), len(mask)))
        return mask

    with monkeypatch.context() as patch:
        patch.setattr(resonances, "_plain_diagonal", spy)
        fast = compute()
        patch.setattr(resonances, "_plain_diagonal",
                      lambda lam_mats: np.zeros(len(lam_mats), dtype=bool))
        return fast, compute(), seen


def test_diagonal_level_shift_stacks_are_eig_bit_for_bit(monkeypatch):
    # a stack with exactly zero off-diagonal entries skips eig and cond:
    # its deltas, basis, epsilons and gamma are eig's, byte for byte, on
    # every size-1 class and on the conserving-only stacks of a J = 0
    # register (reg4 and the scaling template at N = 2..6, in the three
    # channel mixes of decoherence_rates)
    template, _ = scaling_from_config(
        load_config(CONFIG_DIR / "scaling.json"))
    regs = [register_from_config(load_config(CONFIG_DIR / "reg4.json"))]
    regs += [template.realize(n, DEFAULT_SEED) for n in range(2, 7)]
    for reg in regs:
        spec = register_to_system(reg)
        mixes = [(reg.lambda1, reg.lambda2), (reg.lambda1, 0.0),
                 (0.0, reg.lambda2)]
        fast, slow, seen = _with_and_without_diagonal_shortcut(
            monkeypatch, lambda: resonances._resonance_mixes(
                spec, mixes, bohr_spectrum(spec)))
        for a, b in zip(fast, slow):
            _same_data(a, b)
        assert all(n_plain == n for d, n_plain, n in seen if d == 1)
        assert any(d > 1 and n_plain == n for d, n_plain, n in seen)
    for spec in (sidon_spec(np.random.default_rng(4)), random_spec(5, 2, 9)):
        fast, slow, seen = _with_and_without_diagonal_shortcut(
            monkeypatch, lambda: resonance_energies(spec))
        _same_data(fast, slow)
        assert any(d == 1 and n_plain == n > 0 for d, n_plain, n in seen)


def test_random_diagonal_stacks_are_eig_bit_for_bit(monkeypatch):
    # ties, signed zeros in both parts, and a non-diagonal stack beside
    # the diagonal ones in one batch
    rng = np.random.default_rng(17)
    values = np.array([0.0, -0.0, 0.25, -1.5, 3e-17, -2e-3, 0.7])
    for d in (1, 2, 3, 5, 8):
        stack = np.zeros((6, d, d), dtype=complex)
        diag = np.diagonal(stack, axis1=1, axis2=2).copy()
        diag.real = rng.choice(values, size=diag.shape)
        diag.imag = rng.choice(values, size=diag.shape)
        diag[1:3] = diag[0]                      # whole stacks alike
        diag[3, -1] = diag[3, 0]                 # a tie inside one
        diag[4] = 0.5 * np.arange(d) - 0.25j     # distinct: not defective
        stack[:, np.arange(d), np.arange(d)] = diag
        if d > 1:
            stack[4, 0, -1] = 0.125              # not diagonal: eig
            stack[5, -1, 0] = -0.0               # -0.0 is exactly zero
        es = np.linspace(-1.0, 1.0, len(stack))
        groups = [np.zeros((d, 2), dtype=int)] * len(stack)
        fast, slow, seen = _with_and_without_diagonal_shortcut(
            monkeypatch, lambda: _diagonalize_groups(es, groups, stack, 0.1))
        _same_data(fast, slow)
        assert seen == [(d, len(stack) - (d > 1), len(stack))]
    # a non-finite diagonal keeps eig's path
    stack = np.diag([np.nan, 1.0]).astype(complex)[None]
    assert not resonances._plain_diagonal(stack).any()


def test_level_shift_operator_is_the_pipeline_matrix():
    # the single-group entry point and the batched pipeline share one
    # assembly path, so diagonalizing its matrix reproduces the
    # pipeline's spectral data bit for bit
    for seed, channels in ((5, 2), (12, 3)):
        spec = random_spec(4, channels=channels, seed=seed)
        data = resonance_energies(spec)
        assert any(len(r.pairs) > 1 for r in data)
        for r in data:
            lam_mat = level_shift_operator(spec, r.pairs)
            (again,) = _diagonalize_groups([r.e], [r.pairs], lam_mat[None],
                                           spec.overall_coupling)
            assert np.array_equal(again.deltas, r.deltas)
            assert np.array_equal(again.right_vectors, r.right_vectors)
            assert np.array_equal(again.epsilons, r.epsilons)
            assert again.gamma == r.gamma
            assert not r.pairs.flags.writeable


def test_chained_near_degenerate_levels_match_the_degenerate_limit():
    # levels 0.9e-9 apart chain within the default tolerance 1e-9 into
    # one Bohr group although the outer two differ by 1.8e-9; the group
    # alone decides which levels count as equal, so the spectrum is a
    # small perturbation of the exactly degenerate one
    def spec_of(energies):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        ff = FormFactor(radial_exponent=0.5, decay_exponent=1)
        return build_system(np.array(energies),
                            [(0.02, (raw + raw.conj().T) / 2.0, ff)],
                            beta=1.0)

    chained = spec_of([0.0, 0.9e-9, 1.8e-9, 1.0])
    exact = spec_of([0.0, 0.0, 0.0, 1.0])
    got = {round(r.e, 6): r for r in resonance_energies(chained)}
    want = {round(r.e, 6): r for r in resonance_energies(exact)}
    assert sorted(got) == sorted(want) == [-1.0, 0.0, 1.0]
    assert len(got[0.0].pairs) == len(want[0.0].pairs) == 10
    assert got[0.0].gamma > 0.0
    assert got[0.0].gamma == pytest.approx(want[0.0].gamma, rel=1e-6)
    lam_got = level_shift_operator(chained, got[1.0].pairs)
    lam_want = level_shift_operator(exact, want[1.0].pairs)
    assert np.max(np.abs(lam_got - lam_want)) \
        <= 1e-6 * np.max(np.abs(lam_want))


# =====================================================================
# Non-overlap diagnostic
# =====================================================================

def test_nonoverlap_margin_unperturbed_is_infinite():
    ff = FormFactor(radial_exponent=0.5, decay_exponent=1)
    spec = build_system([0.0, 1.0],
                        [(0.0, np.eye(2, dtype=complex), ff)], beta=1.0)
    rep = check_nonoverlap(spec)
    assert rep.margin == np.inf
    assert rep.passed
    # one level has one Bohr frequency and no gap between two
    one = build_system([0.0], [(0.01, [[1.0]], ff)], beta=1.0)
    rep = check_nonoverlap(one)
    assert rep.min_gap == np.inf and rep.margin == np.inf and rep.passed


def test_nonoverlap_margin_matches_definition():
    spec = single_qubit_spec(**QUBIT)
    data = resonance_energies(spec)
    rep = check_nonoverlap(spec, resonances=data)
    lam = spec.overall_coupling
    max_shift = max(np.max(np.abs(lam ** 2 * r.deltas)) for r in data)
    es = sorted(r.e for r in data)
    min_gap = min(b - a for a, b in zip(es, es[1:]))
    assert np.isclose(rep.margin, min_gap / max_shift, rtol=1e-12)
    assert rep.passed == (rep.margin >= 10.0)
