"""Truncated-bath oracle: discretization, engines, fits, verification."""

import importlib.util
import json
import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse

from resodec import oracle
from resodec.cli import run
from resodec.config import load_config, system_from_config, \
    verify_from_config
from resodec.errors import (
    BadConfiguration,
    DimensionMismatch,
    DimensionTooLarge,
    PoorFit,
    TruncationWarning,
    ValidationError,
    WeightMismatch,
)
from resodec.model import FormFactor, RegisterSpec, build_system, \
    register_to_system
from resodec.dynamics import (
    Trajectory,
    ergodic_mean,
    free_evolution,
    resonance_evolution,
    single_qubit_closed_form,
)
from resodec.reservoir import (
    _radial_moment,
    one_sided_density,
    thermal_spectral_density,
    xi,
)
from resodec.oracle import (
    SECTOR_OCCUPANCY_TOL,
    STATE_SPACE_LIMIT,
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
from resodec.oracle import _active_channels, _scaled_spec, \
    _sector_dimension, _sector_ladder, _thermofield_modes

from conftest import CONFIG_DIR, REPO_ROOT, single_qubit_spec

FF = FormFactor(radial_exponent=0.5, decay_exponent=2)
QUBIT = dict(a=0.2, b=-0.4, c=0.7, delta=1.0, g=FF, beta=1.0, lam=0.01)


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
    uncoupled = single_qubit_spec(**{**qubit, "lam": 0.0})
    with pytest.raises(ValidationError, match="zero coupling"):
        _scaled_spec(uncoupled, 0.01)
    # refused before any bath is discretized: one mode fails the bath's
    # weight check, which would make a FAIL report of the request
    with pytest.raises(ValidationError, match="zero coupling"):
        verify(uncoupled, VerifyConfig(n_modes=1, lambdas=(0.01,)))
    with pytest.raises(DimensionMismatch, match="2x2"):
        single_qubit_closed_form(**qubit, rho0=np.eye(3) / 3.0,
                                 times=[0.0])


@pytest.mark.parametrize("evolve, takes_grid, needs_a_time", [
    (free_evolution, True, False),
    (resonance_evolution, True, False),
    (lambda spec, rho0, times: ergodic_mean(spec, rho0), False, False),
    (lambda spec, rho0, times: single_qubit_closed_form(
        **QUBIT, rho0=rho0, times=times), True, False),
    (lambda spec, rho0, times: exact_evolve(spec, tiny_bath(), rho0, times),
     True, True),
], ids=["free_evolution", "resonance_evolution", "ergodic_mean",
        "single_qubit_closed_form", "exact_evolve"])
def test_entry_points_check_initial_state_and_time_grid(evolve, takes_grid,
                                                        needs_a_time):
    # a 3x3 state on a qubit used to give its 2x2 corner or numpy's
    # broadcast error, and a non-finite grid NaN states or an
    # OverflowError: the CLI would report those as bugs (exit 4).  The
    # oracle's ergodic mean averages the grid's second half, which an
    # empty grid leaves without a sample
    spec = single_qubit_spec(**QUBIT)
    with pytest.raises(DimensionMismatch, match="initial state"):
        evolve(spec, np.eye(3) / 3.0, [0.0])
    if not takes_grid:
        return
    bad = [[0.0, np.nan], [0.0, np.inf], [[0.0, 1.0]]]
    if needs_a_time:
        bad.append([])
    else:
        assert evolve(spec, plus_state(), []).states.shape == (0, 2, 2)
    for times in bad:
        with pytest.raises(ValidationError, match="times"):
            evolve(spec, plus_state(), times)


def test_value_types_store_integers_through_the_checked_conversion():
    # a fractional size used to be truncated (cap 2, 201 modes) and True
    # read as m = 1; an integral float was stored as a float and failed
    # later inside numpy
    for make in (
            lambda: TruncatedBath(mode_frequencies=np.array([1.0]),
                                  mode_couplings=np.array([0.1]),
                                  fock_cutoff=2.7, beta=1.0),
            lambda: discretize_bath(FF, 1.0, 200.5, 3.0, 2),
            lambda: FormFactor(radial_exponent=0.5, decay_exponent=True)):
        with pytest.raises(BadConfiguration, match="must be an integer"):
            make()
    config = VerifyConfig(num_times=161.0, lambdas=(0.0,))
    assert type(config.num_times) is int
    assert verify(single_qubit_spec(**QUBIT), config).passed
    reg = RegisterSpec(n_qubits=2.0, J=np.zeros((2, 2)), B=[0.5, 0.61],
                       lambda1=0.01, lambda2=0.01, g1=FF, g2=FF, beta=1.0)
    assert type(reg.n_qubits) is int
    assert register_to_system(reg).dim == 4


def test_bath_thermal_quantities():
    bath = TruncatedBath(mode_frequencies=np.array([0.5, 1.25]),
                         mode_couplings=np.array([0.2, 0.1]),
                         fock_cutoff=3, beta=2.0)
    assert np.allclose(bath.occupancies(),
                       1.0 / np.expm1(2.0 * np.array([0.5, 1.25])))
    assert np.isclose(bath.recurrence_time, 2.0 * np.pi / 0.75)
    assert tiny_bath().recurrence_time == np.inf


def test_cold_bath_occupancies_are_zero_without_an_overflow_warning():
    # beta * omega passes expm1's overflow threshold (about 709.8) on
    # most of this grid: there 1 / inf = 0 is the occupation, and no
    # RuntimeWarning (an error in this suite) is raised
    bath = discretize_bath(FormFactor(0.5, 1), 300.0, 20, 3.0, 2)
    x = 300.0 * bath.mode_frequencies
    cold = x > 709.8
    assert cold.any() and not cold.all()
    occ = bath.occupancies()
    assert np.all(occ[cold] == 0.0)
    assert np.array_equal(occ[~cold], 1.0 / np.expm1(x[~cold]))
    spec = single_qubit_spec(a=0.0, b=0.0, c=1.0, delta=1.0,
                             g=FormFactor(0.5, 1), beta=300.0, lam=0.01)
    traj = exact_evolve(spec, bath, plus_state(), [0.0, 1.0])
    assert np.all(np.isfinite(traj.states))


def test_recurrence_time_skips_repeated_frequencies():
    # a repeated frequency is a zero gap, which echoes never; the bath
    # recurs with its smallest nonzero gap, or never when all coincide
    def bath(freqs):
        return TruncatedBath(np.array(freqs), np.full(len(freqs), 0.1), 2,
                             1.0)
    assert bath([1.0, 1.0, 1.5]).recurrence_time == 4.0 * np.pi
    assert bath([1.5, 1.0, 1.0]).recurrence_time == 4.0 * np.pi
    assert bath([1.0, 1.0]).recurrence_time == np.inf


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
    # the ergodic mean is the second-half average with or without an
    # active channel, not the free evolution's infinite-time mean
    assert np.array_equal(traj.ergodic_mean, traj.states[10:].mean(axis=0))
    assert abs(traj.ergodic_mean[0, 1]) > 1e-3


def test_zero_coupling_needs_no_bohr_clustering():
    # two levels 5e-9 apart are too close for the perturbative Bohr
    # clustering to decide; with every channel off the oracle only
    # rotates the phases, so it never asks
    energies = np.array([0.0, 1.0, 1.0 + 5e-9])
    spec = build_system(energies,
                        [(0.0, np.ones((3, 3)), FormFactor(0.5, 1))], 1.0)
    times = np.linspace(0.0, 5.0, 11)
    traj = exact_evolve(spec, tiny_bath(), plus_state(3), times)
    phases = np.exp(1j * times[:, None, None]
                    * (energies[:, None] - energies[None, :]))
    assert np.array_equal(traj.states, phases * plus_state(3))


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


def _reference_sector_ladder(freqs, cap):
    """_sector_ladder with each level found by np.unique of the grown
    tuples, as it was before target states were found by rank, and its
    moves as flat arrays (target, source, mode, factor)."""
    n_modes = freqs.size
    level = np.zeros((1, 0), dtype=np.intp)
    energy, target, source, mode, factor = [np.zeros(1)], [], [], [], []
    offset = 0
    for _ in range(cap):
        n_level = len(level)
        src = np.repeat(np.arange(n_level), n_modes)
        k = np.tile(np.arange(n_modes), n_level)
        factor.append(np.sqrt(1.0 + np.count_nonzero(
            level[src] == k[:, None], axis=1)))
        grown = np.sort(np.column_stack([level[src], k]), axis=1)
        level, dest = np.unique(grown, axis=0, return_inverse=True)
        source.append(offset + src)
        offset += n_level
        target.append(offset + dest.ravel())
        mode.append(k)
        energy.append(freqs[level].sum(axis=1))
    return tuple(map(np.concatenate, (energy, target, source, mode, factor)))


def _assert_same_ladder(freqs, cap):
    # the move tables, read row by row, are the reference's flat moves:
    # row s lists source s's moves, column k is mode k
    energy, target, factor = _sector_ladder(freqs, cap)
    n_low, n_modes = target.shape
    assert factor.shape == target.shape and n_modes == freqs.size
    got = (energy, target.ravel(), np.repeat(np.arange(n_low), n_modes),
           np.tile(np.arange(n_modes), n_low), factor.ravel())
    want = _reference_sector_ladder(freqs, cap)
    assert len(want) == 5
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_modes, cap", [
    (n, cap) for n in (1, 2, 7, 40, 200) for cap in (1, 2, 3, 4)
    if _sector_dimension(1, n, cap) <= STATE_SPACE_LIMIT])
def test_sector_ladder_is_bytewise_the_unique_reference(n_modes, cap):
    freqs = np.random.default_rng(n_modes * 10 + cap).uniform(
        0.01, 3.0, n_modes)
    _assert_same_ladder(freqs, cap)


def test_sector_ladder_with_thermofield_partners_is_the_reference():
    # a warm bath's partner modes sit at negative frequencies after the
    # bath's own, so level energies mix signs
    spec = single_qubit_spec(**QUBIT)
    bath = discretize_bath(FF, 0.5, 12, 3.0, 3)
    [(freqs, _)] = _thermofield_modes([(spec.couplings[0], bath)])
    assert freqs.size > bath.n_modes and np.any(freqs < 0.0)
    _assert_same_ladder(freqs, 3)


def _reference_ladder_operators(spec, baths, cap):
    """Each channel's U_r^T as scipy.sparse.csr_matrix builds it from
    the reference ladder's moves, and the Gershgorin bounds (lo, hi)
    from the row and column sums that scipy.sparse computes: the sector
    engine's set-up as it was before it called scipy's compiled kernels
    on CSR arrays of its own."""
    active = _active_channels(spec, baths)
    modes = _thermofield_modes(active)
    freqs = np.concatenate([f for f, _ in modes])
    energy, target, source, mode, factor = _reference_sector_ladder(freqs,
                                                                    cap)
    n_bath = energy.size
    n_low = _sector_dimension(1, freqs.size, cap - 1)
    diag = energy[:, None] + spec.energies[None, :]
    ups, radius, coupling_norm, start = [], np.zeros_like(diag), 0.0, 0
    for (term, _), (_, kappa) in zip(active, modes):
        amps = term.strength * kappa / math.sqrt(2.0)
        own = (mode >= start) & (mode < start + kappa.size)
        up_t = scipy.sparse.csr_matrix(
            (amps[mode[own] - start] * factor[own],
             (source[own], target[own])), shape=(n_low, n_bath))
        start += kappa.size
        ups.append(up_t)
        magnitude = abs(up_t)
        row_sums = np.asarray(magnitude.sum(axis=0)).ravel()
        row_sums[:n_low] += np.asarray(magnitude.sum(axis=1)).ravel()
        radius += np.outer(row_sums, np.abs(term.matrix).sum(axis=1))
        coupling_norm += (2.0 * math.sqrt(cap) * np.linalg.norm(amps)
                          * np.linalg.norm(term.matrix, 2))
    lo = max(float(np.min(diag - radius)), diag.min() - coupling_norm)
    hi = min(float(np.max(diag + radius)), diag.max() + coupling_norm)
    return ups, lo, hi


def _verify_qubit_case(n_modes=None):
    """verify_qubit's first lambda on its cold bath, with the configured
    200 modes (the cap is lowered from 3 to 2) or ``n_modes``."""
    system, vconfig, _ = verify_from_config(
        load_config(CONFIG_DIR / "verify_qubit.json"))
    n_modes = n_modes or vconfig.n_modes
    baths = [discretize_bath(t.form_factor, system.beta, n_modes,
                             vconfig.omega_max, vconfig.fock_cutoff)
             for t in system.couplings]
    cap = max(k for k in range(2, vconfig.fock_cutoff + 1)
              if _sector_dimension(system.dim, n_modes, k)
              <= STATE_SPACE_LIMIT)
    return _scaled_spec(system, vconfig.lambdas[0]), baths, cap


def _three_level_case():
    spec = system_from_config(load_config(CONFIG_DIR / "three_level.json"))
    bath = discretize_bath(spec.couplings[0].form_factor, spec.beta, 80,
                           1.9, 3)
    return spec, [bath], 2


def _warm_two_channel_case():
    g1 = np.array([[0.3, 0.5 - 0.4j, 0.0], [0.5 + 0.4j, -0.2, 0.6],
                   [0.0, 0.6, 0.1]])
    g2 = np.diag([0.4, -0.1, 0.2]).astype(complex)
    spec = build_system([0.0, 0.8, 1.7], [(0.05, g1, FF), (0.03, g2, FF)],
                        beta=0.7)
    baths = [discretize_bath(FF, 0.7, 9, 3.0, 3),
             discretize_bath(FF, 0.7, 6, 3.0, 3)]
    # both channels take thermofield partners, at negative frequencies
    assert all(np.any(f < 0.0) for f, _ in _thermofield_modes(
        _active_channels(spec, baths)))
    return spec, baths, 3


@pytest.mark.parametrize("case", [_verify_qubit_case, _three_level_case,
                                  _warm_two_channel_case])
def test_sector_operators_are_bytewise_the_scipy_sparse_reference(
        case, monkeypatch):
    # the CSR arrays of each U_r^T, and through its row and column sums
    # every Chebyshev coefficient's spectral bounds lo and hi, are those
    # that scipy.sparse gives; the recurrence is captured, not run
    spec, baths, cap = case()
    seen = {}

    def capture(diag, terms, lo, hi, rho0, times):
        seen.update(terms=terms, lo=lo, hi=hi)
        return np.zeros((len(times), spec.dim, spec.dim), dtype=complex)

    monkeypatch.setattr(oracle, "_chebyshev_states", capture)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        exact_evolve(spec, baths, plus_state(spec.dim), [0.0])
    ups, lo, hi = _reference_ladder_operators(spec, baths, cap)
    assert len(seen["terms"]) == len(ups)
    for (arrays, _), up_t in zip(seen["terms"], ups):
        for got, want in zip(arrays, (up_t.indptr, up_t.indices,
                                      up_t.data)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    assert np.float64(seen["lo"]).tobytes() == np.float64(lo).tobytes()
    assert np.float64(seen["hi"]).tobytes() == np.float64(hi).tobytes()


def _reference_chebyshev_states(diag, terms, lo, hi, rho0, times):
    """_chebyshev_states as it was when each step took scipy.sparse
    products, (U @ z.view(float)).view(complex), of the CSR matrices
    U_r^T in ``terms`` (beside G_r) and of their transposes, each
    product into a fresh array."""
    jv = oracle._special_ufunc("jv")
    n_bath, n_sys = diag.shape
    n_low = terms[0][0].shape[0]
    center, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    diag2 = (2.0 / half) * (diag - center)
    ops = [(up_t.T, up_t, (2.0 / half) * gmat.T) for up_t, gmat in terms]
    row_blocks = [slice(a, a + oracle.SECTOR_ROW_BLOCK)
                  for a in range(0, n_bath, oracle.SECTOR_ROW_BLOCK)]
    batch, n_out = oracle.CHEBYSHEV_BATCH, oracle.CHEBYSHEV_OUTPUTS
    ring = np.empty((batch + 2, n_bath, n_sys), dtype=complex)
    outs = np.empty((n_out, n_bath, n_sys), dtype=complex)

    def product(sparse, array):
        return (sparse @ array.view(np.float64)).view(np.complex128)

    def step(prev, cur, out):
        np.multiply(diag2, cur, out=out)
        low = out[:n_low]
        for up, up_t, g in ops:
            out += product(up, cur[:n_low] @ g)
            low += product(up_t, cur) @ g
        if prev is None:
            out *= 0.5
        else:
            out -= prev

    def propagate(vec, steps):
        ks = np.arange(int(1.5 * half * np.abs(steps).max()) + 40)
        table = jv(ks, half * steps[:, None]) \
            * np.array([1, 1j, -1, -1j])[ks % 4] \
            * np.where(ks > 0, 2.0, 1.0) \
            * np.exp(1j * center * steps)[:, None]
        tail = np.cumsum(np.abs(table[:, ::-1]), axis=1)[:, ::-1]
        table[tail < oracle.CHEBYSHEV_TOL] = 0.0
        needed = np.count_nonzero(tail >= oracle.CHEBYSHEV_TOL, axis=1)
        n_terms = needed.max()
        ring[2] = vec
        outs[:steps.size] = 0.0
        for k0 in range(0, n_terms, batch):
            count = min(batch, n_terms - k0)
            for slot in range(2 + (k0 == 0), 2 + count):
                step(ring[slot - 2] if k0 + slot > 3 else None,
                     ring[slot - 1], ring[slot])
            live = slice(np.argmax(needed > k0), steps.size)
            coef = table[live, k0:k0 + count]
            for rows in row_blocks:
                outs[live, rows] += (coef @ ring[2:2 + count, rows]
                                     .reshape(count, -1)) \
                    .reshape(coef.shape[0], -1, n_sys)
            ring[:2] = ring[count:count + 2]

    states = np.zeros((len(times), n_sys, n_sys), dtype=complex)
    evals, evecs = np.linalg.eigh(rho0)
    for weight, sys_vec in zip(evals, evecs.T):
        if abs(weight) <= 1e-12:
            continue
        vec = np.zeros((n_bath, n_sys), dtype=complex)
        vec[0] = sys_vec
        t_now = 0.0
        for first in range(0, len(times), n_out):
            group = times[first:first + n_out]
            propagate(vec, group - t_now)
            for j, out in enumerate(outs[:group.size]):
                states[first + j] += weight * (out.T @ out.conj())
            vec, t_now = outs[group.size - 1], group[-1]
    return states


@pytest.mark.parametrize("case", [lambda: _verify_qubit_case(40),
                                  _three_level_case, _warm_two_channel_case],
                         ids=["verify_qubit", "three_level", "warm"])
def test_chebyshev_states_are_bytewise_the_scipy_sparse_recurrence(
        case, monkeypatch):
    # the recurrence on scipy's compiled kernels, with its scratch
    # arrays, adds in scipy.sparse's order: its states equal, byte for
    # byte, those of the scipy.sparse products it replaced, on a mixed
    # initial state and five grid times (two output groups)
    spec, baths, cap = case()
    chebyshev, seen = oracle._chebyshev_states, {}

    def capture(diag, terms, lo, hi, rho0, times):
        seen.update(args=(diag, terms, lo, hi, rho0, times))
        return np.zeros((len(times), spec.dim, spec.dim), dtype=complex)

    monkeypatch.setattr(oracle, "_chebyshev_states", capture)
    rho0 = 0.6 * plus_state(spec.dim) + 0.4 * np.eye(spec.dim) / spec.dim
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        exact_evolve(spec, baths, rho0, [0.0, 1.5, 4.0, 9.0, 12.5])
    diag, terms, lo, hi, rho0, times = seen["args"]
    ups, _, _ = _reference_ladder_operators(spec, baths, cap)
    got = chebyshev(diag, terms, lo, hi, rho0, times)
    want = _reference_chebyshev_states(
        diag, [(up_t, gmat) for up_t, (_, gmat) in zip(ups, terms)],
        lo, hi, rho0, times)
    assert np.count_nonzero(np.linalg.eigvalsh(rho0) > 1e-12) > 1
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


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


def test_fit_decay_recovers_rate():
    # the asymptote is estimated from the tail average, which leaves a
    # small bias, so the recovery is good to ~0.5% rather than exact
    times = np.linspace(0.0, 60.0, 201)
    fit = fit_decay(synthetic_trajectory(times), (0, 1))
    assert np.isclose(fit.rate, 0.1, rtol=5e-3)
    assert fit.residual <= 0.05


def test_fit_decay_constant_element_gives_zero_rate():
    times = np.linspace(0.0, 60.0, 201)
    fit = fit_decay(synthetic_trajectory(times, rate=0.0, freq=0.0,
                                         asymptote=0.0), (0, 0))
    assert fit.rate == 0.0 and fit.residual == 0.0


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


def test_fit_decay_refuses_a_window_cut_short_by_the_tail_floor():
    # e^(-t) on [0, 100] falls under 2% of its start after 4 time units,
    # 8 of the 200 samples
    times = np.linspace(0.0, 100.0, 200)
    with pytest.raises(PoorFit, match="only 8 samples before the signal "
                                      "reaches the tail floor"):
        fit_decay(synthetic_trajectory(times, rate=1.0, freq=0.0,
                                       asymptote=0.0), (0, 1))


# =====================================================================
# Verification orchestrator
# =====================================================================

def test_verify_reports_a_poor_fit_as_a_failed_rate(monkeypatch, tmp_path):
    # a rate the oracle's trajectory cannot be fitted to is a FAIL row of
    # the scorecard, not an exception; the command exits 3 on it
    def poor_fit(trajectory, element):
        raise PoorFit("too few samples in the window")

    monkeypatch.setattr(oracle, "fit_decay", poor_fit)
    cfg = json.loads((CONFIG_DIR / "verify_qubit.json").read_text())
    cfg["verify"].update(fock_cutoff=1, num_times=41)
    path = tmp_path / "poor_fit.json"
    path.write_text(json.dumps(cfg))
    spec, config, _ = verify_from_config(load_config(path))
    report = verify(spec, config)
    rate, = [c for c in report.checks if c.name == "lambda=0.01:rate(0,1)"]
    assert not rate.passed and rate.deviation == math.inf
    assert rate.detail.startswith("PoorFit: too few samples")
    assert not report.passed
    assert run(["verify", "--config", str(path),
                "-o", str(tmp_path / "verify.csv")]) == 3


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


def test_verify_runs_every_check_for_a_negative_lambda():
    # only lambda^2 enters the physics, so -lambda must run the same
    # checks with the same verdicts, not the trajectory check alone
    spec = single_qubit_spec(0.2, -0.4, 0.7, 1.0,
                             FormFactor(radial_exponent=-0.5,
                                        decay_exponent=1), 30.0, 0.05)
    outcomes = []
    for lam in (0.05, -0.05):
        report = verify(spec, VerifyConfig(n_modes=40, fock_cutoff=2,
                                           num_times=41, lambdas=(lam,)))
        outcomes.append([(c.name.partition(":")[2], c.passed)
                         for c in report.checks])
    assert outcomes[0] == outcomes[1]
    assert len(outcomes[0]) > 1


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
