"""Truncated-bath oracle: discretization, engines, fits, verification."""

import importlib.util
import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from resodec.errors import (
    DimensionMismatch,
    DimensionTooLarge,
    PoorFit,
    TruncationWarning,
    ValidationError,
    WeightMismatch,
)
from resodec.model import FormFactor, build_system
from resodec.dynamics import (
    Trajectory,
    free_evolution,
    single_qubit_closed_form,
    single_qubit_spec,
)
from resodec.reservoir import (
    _radial_moment,
    one_sided_density,
    thermal_spectral_density,
    xi,
)
from resodec.oracle import (
    SECTOR_OCCUPANCY_TOL,
    TruncatedBath,
    VerificationCheck,
    VerificationReport,
    VerifyConfig,
    dephasing_envelope,
    discretize_bath,
    exact_evolve,
    fit_decay,
    verify,
)
from resodec.oracle import _scaled_spec, _thermofield_modes

from conftest import REPO_ROOT

FF = FormFactor(radial_exponent=0.5, decay_exponent=2)


def plus_state(n=2):
    v = np.ones(n, dtype=complex) / np.sqrt(n)
    return np.outer(v, v.conj())


def tiny_bath(beta=30.0, cutoff=2):
    return TruncatedBath(mode_frequencies=np.array([1.0]),
                         mode_couplings=np.array([0.3]),
                         fock_cutoff=cutoff, beta=beta)


def product_space_reference(spec, baths, rho0, times, cutoffs):
    """Reduced states of the system coupled to the modes of ``baths``
    (one per coupling term), each mode cut at its entry of ``cutoffs``
    and started in its normalized truncated thermal state at its bath's
    beta.  The explicit product-space H is diagonalized by ``eigh``, in
    this package's convention rho_t = e^{itH} rho e^{-itH}; at converged
    cutoffs this is the independent reference for the sector engine."""
    modes = [(omega, term.strength * kappa / np.sqrt(2.0), term.matrix,
              bath.beta)
             for term, bath in zip(spec.couplings, baths)
             for omega, kappa in zip(bath.mode_frequencies,
                                     bath.mode_couplings)]
    dims = [cut + 1 for cut in cutoffs]
    n_sys, n_bath = spec.dim, math.prod(dims)

    def on_mode(op, k):
        out = np.eye(1)
        for j, d in enumerate(dims):
            out = np.kron(out, op if j == k else np.eye(d))
        return out

    h = np.kron(np.diag(spec.energies), np.eye(n_bath)).astype(complex)
    thermal = np.ones(1)
    for k, (omega, amp, g, beta) in enumerate(modes):
        lower = np.diag(np.sqrt(np.arange(1.0, dims[k])), 1)
        h += omega * np.kron(np.eye(n_sys), on_mode(lower.T @ lower, k))
        h += amp * np.kron(g, on_mode(lower + lower.T, k))
        weights = np.exp(-beta * omega * np.arange(dims[k]))
        thermal = np.kron(thermal, weights / weights.sum())
    energies, vectors = np.linalg.eigh(h if h.imag.any() else h.real)
    v3 = vectors.reshape(n_sys, n_bath, -1)
    # V^dag (rho0 (x) diag(thermal)) V
    rho_tilde = vectors.conj().T @ np.einsum(
        "mn,b,nbd->mbd", rho0, thermal, v3).reshape(n_sys * n_bath, -1)
    phases = np.exp(1j * np.outer(times, energies))
    states = np.empty((len(times), n_sys, n_sys), dtype=complex)
    for m in range(n_sys):
        for n in range(m, n_sys):
            kernel = rho_tilde * (v3[m].T @ v3[n].conj())
            states[:, m, n] = np.einsum("td,dk,tk->t", phases, kernel,
                                        phases.conj(), optimize=True)
            states[:, n, m] = states[:, m, n].conj()
    return states


# =====================================================================
# Bath container and discretization
# =====================================================================

def test_truncated_bath_validation():
    with pytest.raises(ValidationError):
        TruncatedBath(mode_frequencies=np.array([0.0, 1.0]),
                      mode_couplings=np.array([0.1, 0.1]),
                      fock_cutoff=2, beta=1.0)
    with pytest.raises(ValidationError):
        TruncatedBath(mode_frequencies=np.array([1.0]),
                      mode_couplings=np.array([0.1, 0.2]),
                      fock_cutoff=2, beta=1.0)
    with pytest.raises(ValidationError):
        TruncatedBath(mode_frequencies=np.array([1.0]),
                      mode_couplings=np.array([0.1]),
                      fock_cutoff=0, beta=1.0)
    with pytest.raises(ValidationError):
        TruncatedBath(mode_frequencies=np.array([1.0]),
                      mode_couplings=np.array([0.1]),
                      fock_cutoff=2, beta=0.0)


def test_argument_checks_raise_validation_error():
    # malformed arguments are ValidationError (exit 1 in the CLI), a
    # ValueError subclass
    qubit = dict(a=0.2, b=-0.4, c=0.7, delta=1.0, g=FF, beta=1.0,
                 lam=0.01)
    spec = single_qubit_spec(**qubit)
    with pytest.raises(DimensionMismatch, match="initial state"):
        exact_evolve(spec, tiny_bath(), np.eye(3) / 3.0, [0.0])
    with pytest.raises(ValidationError, match="Hermitian"):
        exact_evolve(spec, tiny_bath(), [[0.0, 1.0], [0.0, 0.0]], [0.0])
    with pytest.raises(ValidationError, match="2 baths supplied"):
        exact_evolve(spec, [tiny_bath(), tiny_bath()], plus_state(), [0.0])
    two = build_system([0.0, 1.0], [(0.01, spec.couplings[0].matrix, FF)] * 2,
                       beta=1.0)
    with pytest.raises(ValidationError, match="single bath"):
        exact_evolve(two, tiny_bath(), plus_state(), [0.0])
    with pytest.raises(ValidationError, match="zero coupling"):
        _scaled_spec(single_qubit_spec(**{**qubit, "lam": 0.0}), 0.01)
    with pytest.raises(DimensionMismatch, match="2x2"):
        single_qubit_closed_form(**qubit, rho0=np.eye(3) / 3.0,
                                 times=[0.0])


def test_bath_thermal_quantities():
    bath = TruncatedBath(mode_frequencies=np.array([0.5, 1.25]),
                         mode_couplings=np.array([0.2, 0.1]),
                         fock_cutoff=3, beta=2.0)
    assert np.allclose(bath.occupancies(),
                       1.0 / np.expm1(2.0 * np.array([0.5, 1.25])))
    assert np.isclose(bath.recurrence_time, 2.0 * np.pi / 0.75)
    assert tiny_bath().recurrence_time == np.inf


def test_discretize_bath_midpoint_rule():
    bath = discretize_bath(FF, beta=2.0, n_modes=200, omega_max=2.0,
                           fock_cutoff=3)
    step = 2.0 / 200
    assert np.allclose(bath.mode_frequencies,
                       (np.arange(200) + 0.5) * step)
    assert np.allclose(bath.mode_couplings ** 2,
                       one_sided_density(FF, bath.mode_frequencies) * step)
    target, _ = scipy.integrate.quad(
        lambda w: float(one_sided_density(FF, w)), 0.0, 2.0)
    total = float(np.sum(bath.mode_couplings ** 2))
    assert abs(total - target) <= 0.01 * target


def test_discretize_bath_refuses_coarse_grid():
    with pytest.raises(WeightMismatch):
        discretize_bath(FF, beta=2.0, n_modes=4, omega_max=3.0,
                        fock_cutoff=3)
    with pytest.raises(ValidationError):
        discretize_bath(FF, beta=2.0, n_modes=0, omega_max=3.0,
                        fock_cutoff=3)


def test_discretize_bath_refuses_unconverged_weight_integral():
    # J(w) ~ w^-0.9998 near 0: the continuum weight is finite (a closed
    # form), but a midpoint grid cannot carry the weight of the
    # near-singular edge, and the bath is refused
    g = FormFactor(radial_exponent=-1.4999, decay_exponent=2)
    with pytest.raises(WeightMismatch):
        discretize_bath(g, beta=2.0, n_modes=150, omega_max=3.0,
                        fock_cutoff=3)


def test_discretize_bath_weight_target_is_the_closed_form():
    # nodes that miss J altogether carry no weight; the closed-form
    # target, pi/2 for p = 1/2, m = 2, refuses such a grid
    g = FormFactor(radial_exponent=0.5, decay_exponent=2)
    assert _radial_moment(g, 2, 1e4) == pytest.approx(np.pi / 2, rel=1e-15)
    with pytest.raises(WeightMismatch, match="deviates from the "
                       "continuum integral 1.5708"):
        discretize_bath(g, beta=1.0, n_modes=150, omega_max=1e4,
                        fock_cutoff=3)
    for g, omega_max in ((FF, 2.0), (FormFactor(-0.5, 1), 3.0),
                         (FormFactor(1.5, 2, overall_scale=0.8), 3.0),
                         (FormFactor(0.5, 1, overall_scale=0.7), 1.25)):
        target, _ = scipy.integrate.quad(
            lambda w: float(one_sided_density(g, w)), 0.0, omega_max)
        assert _radial_moment(g, 2, omega_max) \
            == pytest.approx(target, rel=1e-14)


# =====================================================================
# Engines
# =====================================================================

def test_dense_and_sector_engines_agree():
    # the sector engine against the product-space reference at a
    # converged cutoff: a cold single-mode bath, and two channels of one
    # warm mode each (beta = 1, occupations 0.29 and 0.16), which the
    # engine thermofield-doubles
    spec = single_qubit_spec(a=0.0, b=0.0, c=1.0, delta=1.0, g=FF,
                             beta=30.0, lam=0.05)
    bath = tiny_bath(cutoff=4)
    times = np.linspace(0.0, 20.0, 41)
    sector = exact_evolve(spec, bath, plus_state(), times)
    want = product_space_reference(spec, [bath], plus_state(), times, [8])
    assert np.max(np.abs(sector.states - want)) <= 1e-10

    g1 = np.array([[0.3, 0.5 - 0.4j], [0.5 + 0.4j, -0.2]])
    g2 = np.array([[0.1, 0.2j], [-0.2j, 0.4]])
    warm_spec = build_system([0.0, 1.1], [(0.3, g1, FF), (0.2, g2, FF)],
                             beta=1.0)
    baths = [TruncatedBath(mode_frequencies=np.array([omega]),
                           mode_couplings=np.array([kappa]),
                           fock_cutoff=8, beta=1.0)
             for omega, kappa in ((1.5, 0.3), (2.0, 0.25))]
    rho0 = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    sector = exact_evolve(warm_spec, baths, rho0, times)
    want = product_space_reference(warm_spec, baths, rho0, times, [16, 12])
    assert np.max(np.abs(sector.states - want)) <= 1e-10


def test_sector_engine_nonuniform_grid():
    spec = single_qubit_spec(a=0.0, b=0.0, c=1.0, delta=1.0, g=FF,
                             beta=30.0, lam=0.05)
    bath = tiny_bath(cutoff=4)
    times = np.array([0.0, 0.7, 1.1, 3.0, 9.5])
    sector = exact_evolve(spec, bath, plus_state(), times)
    want = product_space_reference(spec, [bath], plus_state(), times, [8])
    assert np.max(np.abs(sector.states - want)) <= 1e-10


def test_exact_evolve_is_linear_in_the_initial_matrix():
    # an indefinite Hermitian rho0 evolves as the sum of its parts: the
    # eigenpairs of negative weight are propagated, not dropped
    spec = single_qubit_spec(a=0.2, b=-0.4, c=0.7, delta=1.0, g=FF,
                             beta=30.0, lam=0.05)
    bath = discretize_bath(FF, beta=30.0, n_modes=12, omega_max=3.0,
                           fock_cutoff=2)
    times = np.linspace(0.0, 10.0, 11)
    up, down = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    flip = np.array([[0.0, 0.2 - 0.5j], [0.2 + 0.5j, 0.0]])

    def evolve(rho0):
        return exact_evolve(spec, bath, rho0, times).states

    e_up, e_down = evolve(up), evolve(down)
    assert np.max(np.abs(evolve(up - down) - (e_up - e_down))) <= 1e-12
    mixed = evolve(2.0 * up - 0.5 * down + flip)
    want = 2.0 * e_up - 0.5 * e_down + evolve(flip)
    assert np.max(np.abs(mixed - want)) <= 1e-12


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_sector_engine_matches_explicit_sector_expm(cap):
    # two channels (two modes and one mode), complex Hermitian couplings,
    # a mixed initial state and a non-uniform grid starting after t = 0
    # that spans two Chebyshev recurrences, the last one partial; a cap
    # of two quanta holds the two-quantum states k != q and k = q, a cap
    # of one only the vacuum and the one-quantum states, and a cap of
    # three puts a whole two-quantum level of both channels below the
    # top level, where the coupling matrices act on both sides.  The
    # reference is scipy's expm of the sector Hamiltonian written out
    # here on the product of the mode Fock spaces, in this package's
    # convention rho_t = e^{itH} rho e^{-itH}
    g1 = np.array([[0.3, 0.5 - 0.4j], [0.5 + 0.4j, -0.2]])
    g2 = np.array([[0.1, 0.2j], [-0.2j, 0.4]])
    spec = build_system([0.0, 1.1], [(0.3, g1, FF), (0.2, g2, FF)],
                        beta=30.0)
    baths = [TruncatedBath(mode_frequencies=np.array([0.8, 1.4]),
                           mode_couplings=np.array([0.5, 0.35]),
                           fock_cutoff=cap, beta=30.0),
             TruncatedBath(mode_frequencies=np.array([1.1]),
                           mode_couplings=np.array([0.45]),
                           fock_cutoff=cap, beta=30.0)]
    rho0 = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    times = np.array([0.4, 1.3, 2.0, 5.5, 6.0, 9.7, 10.1])
    sector = exact_evolve(spec, baths, rho0, times)

    # modes (frequency, strength * kappa / sqrt 2, channel matrix)
    modes = [(0.8, 0.3 * 0.5 / np.sqrt(2.0), g1),
             (1.4, 0.3 * 0.35 / np.sqrt(2.0), g1),
             (1.1, 0.2 * 0.45 / np.sqrt(2.0), g2)]
    lower = np.diag(np.sqrt(np.arange(1.0, cap + 1.0)), 1)
    eye = np.eye(cap + 1)

    def on_mode(op, k):
        factors = [op if j == k else eye for j in range(3)]
        return np.kron(np.kron(factors[0], factors[1]), factors[2])

    h = np.kron(np.diag(spec.energies), np.eye((cap + 1) ** 3)) \
        .astype(complex)
    for k, (omega, amp, g) in enumerate(modes):
        h += omega * np.kron(np.eye(2), on_mode(lower.T @ lower, k))
        h += amp * np.kron(g, on_mode(lower + lower.T, k))
    occupations = np.ndindex(cap + 1, cap + 1, cap + 1)
    quanta = np.array([sum(occ) for occ in occupations])
    keep = np.flatnonzero(np.tile(quanta <= cap, 2))   # system-major
    h_sector = h[np.ix_(keep, keep)]
    n_bath = math.comb(3 + cap, cap)        # states of <= cap quanta
    assert h_sector.shape == (2 * n_bath, 2 * n_bath)

    rho_full = np.zeros((2 * n_bath, 2 * n_bath), dtype=complex)
    rho_full[np.ix_([0, n_bath], [0, n_bath])] = rho0   # bath vacuum
    for t, got in zip(times, sector.states):
        u = scipy.linalg.expm(1j * t * h_sector)
        want = np.einsum("iaja->ij", (u @ rho_full @ u.conj().T)
                         .reshape(2, n_bath, 2, n_bath))
        assert np.max(np.abs(got - want)) <= 1e-10


def test_dephasing_envelope_matches_dense_engine():
    # the thermofield-doubled sector engine (beta = 4, both modes
    # doubled) against the independent-boson closed form
    G = np.diag([0.8, -0.5]).astype(complex)
    strength = 0.1
    spec = build_system([0.0, 1.3], [(strength, G, FF)], beta=4.0)
    bath = TruncatedBath(mode_frequencies=np.array([0.7, 1.3]),
                         mode_couplings=np.array([0.4, 0.25]),
                         fock_cutoff=12, beta=4.0)
    times = np.linspace(0.0, 15.0, 31)
    traj = exact_evolve(spec, bath, plus_state(), times)

    envelope = dephasing_envelope(bath, strength * 0.8, strength * -0.5,
                                  times)
    want = 0.5 * np.exp(-1.3j * times) * envelope
    assert np.max(np.abs(traj.element(0, 1) - want)) <= 1e-12
    # dephasing leaves populations exactly constant
    pops = traj.states[:, [0, 1], [0, 1]].real
    assert np.max(np.abs(pops - pops[0])) <= 1e-12


def test_dephasing_rate_fixes_zero_frequency_term():
    # pure dephasing (c = 0) of a qubit at p = -1/2, where xi(0) is
    # finite: the exact envelope decays at the coherence linewidth's
    # zero-frequency term, (lambda^2 pi / 2)(b - a)^2 D(0) with
    # D(0) = xi(0) / 2, and not at the full-xi(0) candidate twice as
    # large (the independent-boson long-time exponent is
    # (pi / 4) lambda^2 (b - a)^2 xi(0))
    g = FormFactor(radial_exponent=-0.5, decay_exponent=1)
    beta, lam, a, b = 200.0, 0.05, 0.3, -0.5
    bath = discretize_bath(g, beta, n_modes=500, omega_max=1.25,
                           fock_cutoff=40)

    # a window well past the dressing transient and well before the
    # discrete bath's recurrence 2 pi / d_omega
    times = np.linspace(0.15, 0.40, 26) * bath.recurrence_time
    envelope = dephasing_envelope(bath, lam * a, lam * b, times)
    rate = float(np.polyfit(times, -np.log(np.abs(envelope)), 1)[0])

    half_xi = lam ** 2 * np.pi / 2.0 * (b - a) ** 2 \
        * thermal_spectral_density(g, beta, 0.0)
    full_xi = lam ** 2 * np.pi / 2.0 * (b - a) ** 2 * xi(g, beta, 0.0)
    rel = abs(rate - half_xi) / half_xi
    passed = rel <= 0.02 and rate < 0.6 * full_xi
    print("criterion zero-frequency dephasing term: "
          + ("PASS" if passed else "FAIL")
          + f"  (fitted rate {rate:.4e}, D(0) candidate {half_xi:.4e} "
          f"[deviation {rel:.2%}], full-xi(0) candidate {full_xi:.4e})")
    assert passed


def test_zero_coupling_follows_free_evolution():
    spec = single_qubit_spec(a=0.0, b=0.0, c=1.0, delta=1.0, g=FF,
                             beta=2.0, lam=0.0)
    times = np.linspace(0.0, 5.0, 21)
    traj = exact_evolve(spec, tiny_bath(), plus_state(), times)
    free = free_evolution(spec, plus_state(), times)
    assert np.array_equal(traj.states, free.states)


def test_dimension_guards():
    spec = single_qubit_spec(a=0.0, b=0.0, c=1.0, delta=1.0, g=FF,
                             beta=30.0, lam=0.01)
    # a warm bath (occupations 3.5 and 1.5) is thermofield-doubled, not
    # refused; the reference's thermal state, cut at 36 and 18 quanta,
    # is itself off by 1.8e-9 at t = 1
    warm_spec = single_qubit_spec(a=0.0, b=0.0, c=1.0, delta=1.0, g=FF,
                                  beta=0.5, lam=0.01)
    warm = TruncatedBath(mode_frequencies=np.array([0.5, 1.0]),
                         mode_couplings=np.array([0.1, 0.1]),
                         fock_cutoff=3, beta=0.5)
    times = np.array([0.0, 1.0])
    got = exact_evolve(warm_spec, warm, plus_state(), times)
    want = product_space_reference(warm_spec, [warm], plus_state(), times,
                                   [36, 18])
    assert np.max(np.abs(got.states - want)) <= 1e-8

    # the sector engine lowers the cap to 2 at most (a requested 1 is
    # kept); when even that sector is too large, the error names it
    for cap, n_modes in ((3, 500), (1, 100_000)):
        cold = TruncatedBath(mode_frequencies=np.linspace(0.5, 2.5, n_modes),
                             mode_couplings=np.full(n_modes, 1e-4),
                             fock_cutoff=cap, beta=30.0)
        with pytest.raises(DimensionTooLarge,
                           match=f"even the {min(cap, 2)}-excitation"):
            exact_evolve(spec, cold, plus_state(), [0.0, 1.0])


def test_sector_engine_ignores_per_mode_thermal_tail():
    # a soft, weakly coupled mode with a large thermal occupation adds a
    # thermal weight kappa^2 n under SECTOR_OCCUPANCY_TOL: it starts in
    # the vacuum without a thermofield partner, and nothing is reported
    spec = single_qubit_spec(a=0.0, b=0.0, c=1.0, delta=1.0, g=FF,
                             beta=30.0, lam=0.01)
    bath = TruncatedBath(mode_frequencies=np.array([0.05, 1.0, 1.5]),
                         mode_couplings=np.array([1e-3, 0.1, 0.1]),
                         fock_cutoff=3, beta=30.0)
    assert bath.occupancies()[0] > 0.25
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        exact_evolve(spec, bath, plus_state(), [0.0, 1.0])
    [(freqs, _)] = _thermofield_modes([(spec.couplings[0], bath)])
    assert np.array_equal(freqs, bath.mode_frequencies)


def test_thermofield_modes_double_past_the_cold_prefix():
    # pooled over both channels and sorted by kappa^2 n: the soft mode
    # has the largest occupation (2.0) but the smallest thermal weight
    # (2.0e-6, under 1e-3 sum kappa^2 = 1.3e-4) and stays single; the
    # next weight (2.1e-3) breaks the prefix, so both other modes are
    # doubled, each partner inside its own channel
    spec = build_system([0.0, 1.1], [(0.3, np.eye(2), FF),
                                     (0.2, np.eye(2), FF)], beta=2.0)
    a = TruncatedBath(mode_frequencies=np.array([0.2, 1.0]),
                      mode_couplings=np.array([1e-3, 0.3]),
                      fock_cutoff=3, beta=2.0)
    b = TruncatedBath(mode_frequencies=np.array([1.5]),
                      mode_couplings=np.array([0.2]),
                      fock_cutoff=3, beta=2.0)
    (fa, ka), (fb, kb) = _thermofield_modes(list(zip(spec.couplings,
                                                     (a, b))))
    na, nb = a.occupancies(), b.occupancies()
    assert np.array_equal(fa, [0.2, 1.0, -1.0])
    assert ka[0] == 1e-3
    assert np.allclose(ka[1:], 0.3 * np.sqrt([1.0 + na[1], na[1]]),
                       rtol=1e-15, atol=0.0)
    assert np.array_equal(fb, [1.5, -1.5])
    assert np.allclose(kb, 0.2 * np.sqrt([1.0 + nb[0], nb[0]]),
                       rtol=1e-15, atol=0.0)


def test_thermofield_doubling_boundary():
    # one mode, whose occupation n is the whole weighted occupancy: just
    # below SECTOR_OCCUPANCY_TOL the run is the vacuum run bit for bit,
    # just above it the mode is doubled and the run is the thermal one
    spec = single_qubit_spec(a=0.0, b=0.0, c=1.0, delta=1.0, g=FF,
                             beta=30.0, lam=0.05)
    times = np.linspace(0.0, 20.0, 41)

    def bath(occupation):
        return TruncatedBath(mode_frequencies=np.array([1.0]),
                             mode_couplings=np.array([0.3]),
                             fock_cutoff=4,
                             beta=math.log1p(1.0 / occupation))

    vacuum = exact_evolve(spec, bath(1e-80), plus_state(), times)
    below = bath(SECTOR_OCCUPANCY_TOL * (1.0 - 1e-6))
    assert below.occupancies()[0] < SECTOR_OCCUPANCY_TOL
    got = exact_evolve(spec, below, plus_state(), times)
    assert np.array_equal(got.states, vacuum.states)

    above = bath(SECTOR_OCCUPANCY_TOL * (1.0 + 1e-6))
    [(freqs, _)] = _thermofield_modes([(spec.couplings[0], above)])
    assert np.array_equal(freqs, [1.0, -1.0])
    got = exact_evolve(spec, above, plus_state(), times)
    want = product_space_reference(spec, [above], plus_state(), times, [8])
    assert np.max(np.abs(got.states - want)) <= 1e-10
    # the vacuum run misses the thermal effect that the partner carries
    # (2.1e-5 here)
    assert np.max(np.abs(vacuum.states - want)) > 1e-5


def test_sector_engine_reports_lowered_cap():
    # cap 3 over 90 modes needs 259,532 states, above STATE_SPACE_LIMIT;
    # the engine evolves at cap 2 (8,372 states) and says so
    spec = single_qubit_spec(a=0.0, b=0.0, c=1.0, delta=1.0, g=FF,
                             beta=30.0, lam=0.01)
    bath = TruncatedBath(mode_frequencies=np.linspace(0.5, 2.5, 90),
                         mode_couplings=np.full(90, 0.01),
                         fock_cutoff=3, beta=30.0)
    with pytest.warns(TruncationWarning,
                      match=r"from the requested 3 to 2 .*dimension 8372"):
        exact_evolve(spec, bath, plus_state(), [0.0, 0.5])


# =====================================================================
# Decay fitting
# =====================================================================

def synthetic_trajectory(times, rate=0.1, freq=1.0, asymptote=0.05,
                         noise=None):
    y = 0.6 * np.exp((1j * freq - rate) * times) + asymptote
    if noise is not None:
        y = asymptote + (y - asymptote) * noise
    states = np.zeros((len(times), 2, 2), dtype=complex)
    states[:, 0, 1] = y
    states[:, 1, 0] = np.conj(y)
    states[:, 0, 0] = states[:, 1, 1] = 0.5
    return Trajectory(times=times, states=states,
                      ergodic_mean=np.diag([0.5, 0.5]).astype(complex))


def test_fit_decay_recovers_rate_and_frequency():
    # the asymptote is estimated from the tail average, which leaves a
    # small bias, so the recovery is good to ~0.5% rather than exact
    times = np.linspace(0.0, 60.0, 201)
    fit = fit_decay(synthetic_trajectory(times), (0, 1))
    assert np.isclose(fit.rate, 0.1, rtol=5e-3)
    assert np.isclose(fit.frequency, 1.0, rtol=5e-3)
    assert fit.residual <= 0.05
    assert fit.window[0] == 0.0


def test_fit_decay_constant_element_gives_zero_rate():
    times = np.linspace(0.0, 60.0, 201)
    fit = fit_decay(synthetic_trajectory(times, rate=0.0, freq=0.0,
                                         asymptote=0.0), (0, 0))
    assert fit.rate == 0.0 and fit.frequency == 0.0


def test_fit_decay_failure_modes():
    short = np.linspace(0.0, 5.0, 10)
    with pytest.raises(PoorFit, match="at least 20"):
        fit_decay(synthetic_trajectory(short), (0, 1))

    shallow = np.linspace(0.0, 10.0, 61)
    with pytest.raises(PoorFit, match="e-folds"):
        fit_decay(synthetic_trajectory(shallow, rate=0.001), (0, 1))

    times = np.linspace(0.0, 60.0, 201)
    wobble = np.exp(0.5 * np.sin(7.3 * times))
    with pytest.raises(PoorFit, match="log-residual"):
        fit_decay(synthetic_trajectory(times, noise=wobble), (0, 1))


# =====================================================================
# Verification orchestrator
# =====================================================================

def test_verify_passes_on_resolved_benchmark():
    g = FormFactor(radial_exponent=0.5, decay_exponent=2,
                   overall_scale=5.0)
    spec = single_qubit_spec(a=0.0, b=0.0, c=1.0, delta=1.0, g=g,
                             beta=30.0, lam=0.02)
    cfg = VerifyConfig(n_modes=110, omega_max=3.0, fock_cutoff=3,
                       lambdas=(0.016,), num_times=101)
    with pytest.warns(TruncationWarning,
                      match="excitation cap lowered from the requested "
                            "3 to 2"):
        report = verify(spec, cfg)
    assert report.passed
    names = [c.name for c in report.checks]
    assert "lambda=0.016:trajectory" in names
    assert "lambda=0.016:rate(0,1)" in names
    assert "lambda=0.016:ergodic" in names
    assert report.lines()[-1] == "overall: PASS"


def test_verify_flags_coarse_bath():
    spec = single_qubit_spec(a=0.0, b=0.0, c=1.0, delta=1.0, g=FF,
                             beta=2.0, lam=0.02)
    report = verify(spec, VerifyConfig(n_modes=5, omega_max=3.0,
                                       num_times=21))
    assert not report.passed
    assert report.checks[0].name == "bath-discretization"
    assert "FAIL" in report.lines()[0]


def test_verify_config_validation():
    with pytest.raises(ValueError):
        VerifyConfig(n_modes=0)
    with pytest.raises(ValueError):
        VerifyConfig(num_times=10)
    # a zero lambda checks free evolution, a negative one flips the sign
    assert VerifyConfig(lambdas=[0.0, -0.01]).lambdas == (0.0, -0.01)


@pytest.mark.parametrize("field, value", [
    ("lambdas", ()), ("lambdas", (0.01, math.nan)), ("lambdas", (math.inf,)),
    ("horizon_factor", -5.0), ("horizon_factor", 0.0),
    ("horizon_factor", math.inf), ("horizon_factor", math.nan),
    ("rate_tolerance", -0.2), ("rate_tolerance", 0.0),
    ("rate_tolerance", math.inf), ("rate_tolerance", math.nan),
    ("omega_max", math.inf), ("omega_max", math.nan),
])
def test_verify_config_rejects_vacuous_values(field, value):
    # no lambda gives a report with no check, which passes; a negative
    # horizon evolves backwards, a zero one gives an all-zero grid that
    # passes the trajectory check; a negative tolerance fails every
    # rate check
    with pytest.raises(ValueError, match=field):
        VerifyConfig(**{field: value})


def test_crosscheck_demo_exits_1_on_fail(monkeypatch, capsys):
    # the demo script is the CI's oracle smoke run: a FAIL verdict must
    # reach its exit status, not only its output
    path = REPO_ROOT / "demos" / "oracle_crosscheck.py"
    spec = importlib.util.spec_from_file_location("oracle_crosscheck", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    failed = VerificationReport(checks=(VerificationCheck(
        name="lambda=0.01:trajectory", deviation=1.0, tolerance=0.1,
        passed=False),))
    monkeypatch.setattr(demo, "verify", lambda system, config: failed)
    assert demo.main() == 1
    assert "combined verdict: FAIL" in capsys.readouterr().out
