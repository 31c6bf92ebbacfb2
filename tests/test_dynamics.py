"""Reconstruction of reduced dynamics from the resonance data."""

import numpy as np
import pytest

from resodec.model import (
    DensityMatrix,
    FormFactor,
    RegisterSpec,
    build_system,
    register_to_system,
)
from resodec.dynamics import (
    ergodic_mean,
    free_evolution,
    propagator_blocks,
    resonance_evolution,
    single_qubit_closed_form,
    single_qubit_spec,
)
from resodec.resonances import resonance_energies

QUBIT = dict(a=0.25, b=-0.45, c=0.6 + 0.3j, delta=1.1,
             g=FormFactor(radial_exponent=-0.5, decay_exponent=1,
                          overall_scale=1.2),
             beta=1.3, lam=0.02)


def pure_state(amplitudes):
    v = np.asarray(amplitudes, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityMatrix(dim=len(v), entries=np.outer(v, v.conj()))


# =====================================================================
# Free evolution
# =====================================================================

def test_free_rotation_sign_convention():
    # energies (0, 1), state |+>: the (0, 1) element must rotate as
    # (1/2) e^{-i t} under rho_t = e^{i t H} rho_0 e^{-i t H}
    ff = FormFactor(radial_exponent=0.5, decay_exponent=1)
    spec = build_system([0.0, 1.0], [(0.0, np.eye(2, dtype=complex), ff)],
                        beta=1.0)
    times = np.linspace(0.0, 10.0, 41)
    traj = free_evolution(spec, pure_state([1.0, 1.0]), times)
    assert np.allclose(traj.element(0, 1), 0.5 * np.exp(-1j * times),
                       atol=1e-14)
    assert np.allclose(traj.ergodic_mean, 0.5 * np.eye(2), atol=1e-14)


def test_free_mean_keeps_degenerate_coherences():
    ff = FormFactor(radial_exponent=0.5, decay_exponent=1)
    spec = build_system([0.0, 0.0, 1.0],
                        [(0.0, np.eye(3, dtype=complex), ff)], beta=1.0)
    rho0 = pure_state([1.0, 1.0, 1.0])
    mean = free_evolution(spec, rho0, [0.0]).ergodic_mean
    expected = np.array(rho0.entries, dtype=complex)
    expected[0, 2] = expected[2, 0] = expected[1, 2] = expected[2, 1] = 0
    assert np.allclose(mean, expected, atol=1e-14)


# =====================================================================
# Resonance reconstruction vs the independent closed form
# =====================================================================

def test_reconstruction_matches_single_qubit_closed_form():
    rho0 = pure_state([0.6, 0.8 * np.exp(0.4j)])
    times = np.linspace(0.0, 60.0, 121)
    spec = single_qubit_spec(**QUBIT)
    got = resonance_evolution(spec, rho0, times)
    want = single_qubit_closed_form(rho0=rho0, times=times, **QUBIT)
    assert np.max(np.abs(got.states - want.states)) <= 1e-10
    assert np.allclose(got.ergodic_mean, want.ergodic_mean, atol=1e-10)


def test_zero_coupling_reduces_to_free_rotation():
    params = dict(QUBIT, lam=0.0)
    spec = single_qubit_spec(**params)
    rho0 = pure_state([1.0, 1.0j])
    times = np.linspace(0.0, 5.0, 11)
    got = resonance_evolution(spec, rho0, times)
    want = free_evolution(spec, rho0, times)
    assert np.max(np.abs(got.states - want.states)) <= 1e-13


def test_initial_time_recovers_initial_state():
    spec = single_qubit_spec(**QUBIT)
    rho0 = pure_state([0.3, 0.9])
    traj = resonance_evolution(spec, rho0, [0.0, 1.0])
    assert np.allclose(traj.states[0], rho0.entries, atol=1e-12)


def test_trace_and_hermiticity_invariants():
    spec = single_qubit_spec(**QUBIT)
    rho0 = pure_state([0.7, 0.5 - 0.2j])
    times = np.linspace(0.0, 200.0, 81)
    traj = resonance_evolution(spec, rho0, times)
    assert traj.max_trace_deviation <= 1e-10
    assert traj.max_hermiticity_deviation <= 1e-10


# =====================================================================
# Ergodic means and time averages
# =====================================================================

def test_ergodic_mean_gibbs_limit():
    spec = single_qubit_spec(**QUBIT)
    rho0 = pure_state([1.0, 1.0])
    traj = resonance_evolution(spec, rho0, [0.0])
    direct = ergodic_mean(spec, rho0)
    assert np.allclose(direct, traj.ergodic_mean, atol=1e-12)
    # populations settle into the Gibbs ratio of the reservoir via
    # detailed balance of the thermal density
    ratio = direct[1, 1].real / direct[0, 0].real
    assert np.isclose(ratio, np.exp(-QUBIT["beta"] * QUBIT["delta"]),
                      rtol=1e-10)


def test_block_weights_resolve_identity_and_average():
    spec = single_qubit_spec(**QUBIT)
    blocks = propagator_blocks(resonance_energies(spec))
    for block in blocks:
        ident = np.sum(block.weights, axis=0)
        assert np.allclose(ident, np.eye(block.dim), atol=1e-10)


def test_blocks_merge_the_counted_classes():
    # a dephasing-only register repeats level shifts inside its groups;
    # the blocks must merge exactly the classes that nu counts
    ff = FormFactor(radial_exponent=-0.5, decay_exponent=1)
    reg = RegisterSpec(n_qubits=3, J=np.zeros((3, 3)),
                       B=np.array([0.47, 0.51, 0.53]), lambda1=0.01,
                       lambda2=0.0, g1=ff, g2=ff, beta=0.5)
    data = resonance_energies(register_to_system(reg))
    assert any(r.nu < len(r.pairs) for r in data)
    for r, block in zip(data, propagator_blocks(data)):
        assert len(block.epsilons) == r.nu
        assert block.pairs is r.pairs and not block.pairs.flags.writeable
        assert sorted(np.concatenate(r.classes)) == list(range(len(r.pairs)))
        for idx, eps in zip(r.classes, block.epsilons):
            assert np.max(np.abs(r.deltas[idx] - r.deltas[idx[0]])) <= 1e-10
            assert eps == np.mean(r.epsilons[idx])


# =====================================================================
# Overlap warning
# =====================================================================

def test_warns_when_resonances_nearly_overlap():
    ff = QUBIT["g"]
    G = np.array([[0.2, 0.5, 0.1], [0.5, -0.1, 0.4], [0.1, 0.4, 0.3]],
                 dtype=complex)
    spec = build_system([0.0, 1.0, 1.0 + 1e-4], [(0.02, G, ff)], beta=1.0)
    rho0 = pure_state([1.0, 1.0, 1.0])
    with pytest.warns(UserWarning, match="separation margin"):
        resonance_evolution(spec, rho0, [0.0, 1.0])
