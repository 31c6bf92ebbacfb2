"""Reconstruction of reduced dynamics from the resonance data."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from resodec import dynamics
from resodec.errors import DimensionMismatch
from resodec.model import (
    DensityMatrix,
    FormFactor,
    RegisterSpec,
    build_system,
    register_to_system,
)
from resodec.register import RegisterTemplate
from resodec.dynamics import (
    ergodic_mean,
    free_evolution,
    propagator_blocks,
    resonance_evolution,
    single_qubit_closed_form,
)
from resodec.resonances import (
    ZERO_RESONANCE_TOL,
    check_nonoverlap,
    resonance_energies,
)

from conftest import sidon_spec, single_qubit_spec

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
    # c = 0: no transitions, so the populations stay frozen
    for qubit in (QUBIT, dict(QUBIT, c=0.0)):
        spec = single_qubit_spec(**qubit)
        got = resonance_evolution(spec, rho0, times)
        want = single_qubit_closed_form(rho0=rho0, times=times, **qubit)
        assert np.max(np.abs(got.states - want.states)) <= 1e-10
        assert np.allclose(got.ergodic_mean, want.ergodic_mean,
                           atol=1e-10)


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
        ident = sum(block.right[:, c] @ block.left[c, :]
                    for c in block.classes)
        assert np.allclose(ident, np.eye(len(block.pairs)), atol=1e-10)


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


def _reference_blocks(resonances):
    """(epsilons, weights) of each group, merged class by class from
    its own inverse: the group-by-group pass that the batched
    propagator_blocks must reproduce bit for bit."""
    blocks = []
    for r in resonances:
        left = np.linalg.inv(r.right_vectors)
        epsilons = np.empty(r.nu, dtype=complex)
        weights = np.empty((r.nu, len(r.pairs), len(r.pairs)), dtype=complex)
        for s, idx in enumerate(r.classes):
            epsilons[s] = np.mean(r.epsilons[idx])
            weights[s] = r.right_vectors[:, idx] @ left[idx, :]
        blocks.append((epsilons, weights))
    return blocks


def _per_block_reference(spec, rho0, times, resonances):
    """States and ergodic mean block by block, as the former
    PropagatorBlock.propagate and .ergodic_component computed them,
    from the reference blocks."""
    rho0 = np.asarray(rho0, dtype=complex)
    times = np.asarray(times, dtype=float)
    states = np.zeros((len(times), spec.dim, spec.dim), dtype=complex)
    mean = np.zeros((spec.dim, spec.dim), dtype=complex)
    for r, (epsilons, weights) in zip(resonances,
                                      _reference_blocks(resonances)):
        m, k = r.pairs.T
        v0 = rho0[m, k]
        comps = weights @ v0
        states[:, m, k] = np.exp(1j * np.outer(times, epsilons)) @ comps
        out = np.zeros_like(v0)
        for s, eps in enumerate(epsilons):
            if abs(eps) <= ZERO_RESONANCE_TOL:
                out += weights[s] @ v0
        mean[m, k] = out
    return states, mean


def _random_pure_state(rng, n):
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return np.outer(psi, psi.conj()) / np.vdot(psi, psi).real


def _merged_class_register():
    ff = FormFactor(radial_exponent=-0.5, decay_exponent=1)
    return register_to_system(RegisterSpec(
        n_qubits=3, J=np.zeros((3, 3)), B=np.array([0.47, 0.51, 0.53]),
        lambda1=0.01, lambda2=0.0, g1=ff, g2=ff, beta=0.5))


def _two_channel_spec(rng, n=20):
    couplings = []
    for ff in (FormFactor(radial_exponent=-0.5, decay_exponent=1),
               FormFactor(radial_exponent=0.5, decay_exponent=2)):
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        couplings.append((1e-4, (raw + raw.conj().T) / 2.0, ff))
    return build_system(np.sort(rng.uniform(0.0, 10.0, n)), couplings,
                        beta=0.8)


def _template_register(n_qubits):
    template = RegisterTemplate(
        lambda1=0.01, lambda2=0.01,
        g1=FormFactor(radial_exponent=-0.5, decay_exponent=1),
        g2=FormFactor(radial_exponent=0.5, decay_exponent=1), beta=0.5)
    return register_to_system(template.realize(n_qubits, seed=1))


@pytest.mark.parametrize("case", ["merged_classes", "twenty_levels",
                                  "template_five_qubits", "sidon"])
def test_blocks_match_the_group_by_group_reference_bitwise(case):
    rng = np.random.default_rng(5)
    spec = {"merged_classes": _merged_class_register,
            "twenty_levels": lambda: _two_channel_spec(rng),
            "template_five_qubits": lambda: _template_register(5),
            "sidon": lambda: sidon_spec(rng)}[case]()
    resonances = resonance_energies(spec)
    sizes = {len(r.pairs) for r in resonances}
    if case == "merged_classes":
        assert any(r.nu < len(r.pairs) for r in resonances)
    if case == "template_five_qubits":
        assert sizes == {1, 2, 4, 8, 16, 32}
    if case == "sidon":
        assert len(resonances) == 381 and sizes == {1, 20}
    blocks = propagator_blocks(resonances)
    assert len(blocks) == len(resonances)
    for r, block, (epsilons, weights) in zip(
            resonances, blocks, _reference_blocks(resonances)):
        assert block.e == r.e and block.pairs is r.pairs
        assert block.epsilons.dtype == weights.dtype == complex
        assert block.epsilons.tobytes() == epsilons.tobytes()
        assert len(block.classes) == len(weights)
        for c, weight in zip(block.classes, weights):
            formed = block.right[:, c] @ block.left[c, :]
            assert formed.shape == weight.shape
            assert formed.tobytes() == weight.tobytes()


class _CountingNumpy:
    """numpy, with its calls of exp counted."""

    def __init__(self):
        self.exp_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, *args, **kwargs):
        self.exp_calls += 1
        return np.exp(*args, **kwargs)


@pytest.mark.parametrize("case", ["merged_classes", "twenty_levels",
                                  "empty_grid", "sidon", "non_hermitian",
                                  "one_ulp", "template_five_qubits"])
def test_reconstruction_matches_the_per_block_reference_bitwise(
        case, monkeypatch):
    rng = np.random.default_rng(11)
    if case == "twenty_levels":
        spec = _two_channel_spec(rng)
    elif case == "template_five_qubits":
        spec = _template_register(5)
    elif case in ("sidon", "non_hermitian", "one_ulp"):
        spec = sidon_spec(rng)
    else:
        spec = _merged_class_register()
    resonances = resonance_energies(spec)
    if case == "merged_classes":
        assert any(r.nu < len(r.pairs) for r in resonances)
    if case == "template_five_qubits":
        assert {len(r.pairs) for r in resonances} == {1, 2, 4, 8, 16, 32}
    rho0 = _random_pure_state(rng, spec.dim)
    if case == "non_hermitian":
        # conjugate groups share phases, never states
        rho0 = rho0 + 0.5j * rng.normal(size=rho0.shape)
    if case == "one_ulp":
        # the group at -e no longer mirrors the one at +e exactly, so
        # each exponentiates its own phases
        r = resonances[3]
        assert r.e < 0.0 and len(r.pairs) == 1
        eps = r.epsilons.copy()
        eps[0] = complex(np.nextafter(eps[0].real, 0.0), eps[0].imag)
        resonances[3] = dataclasses.replace(r, epsilons=eps)
    times = [] if case == "empty_grid" else np.linspace(0.0, 400.0, 57)
    want_states, want_mean = _per_block_reference(spec, rho0, times,
                                                  resonances)
    counting = _CountingNumpy()
    monkeypatch.setattr(dynamics, "np", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # overlap warning
        traj = resonance_evolution(spec, rho0, times, resonances)
    monkeypatch.undo()
    # 381 groups: one exponential per conjugate pair, one for e = 0
    if case in ("sidon", "non_hermitian"):
        assert counting.exp_calls == 191
    if case == "one_ulp":
        assert counting.exp_calls == 192
    assert traj.states.shape == want_states.shape
    assert traj.states.tobytes() == want_states.tobytes()
    assert traj.ergodic_mean.tobytes() == want_mean.tobytes()
    # the mean evaluates only the groups that hold a zero mode: here
    # one, the e = 0 group
    zero_groups = sum(bool(np.any(np.abs(r.epsilons) <= ZERO_RESONANCE_TOL))
                      for r in resonances)
    counting = _CountingNumpy()
    monkeypatch.setattr(dynamics, "np", counting)
    mean = ergodic_mean(spec, rho0, resonances)
    monkeypatch.undo()
    assert counting.exp_calls == zero_groups == 1
    assert mean.tobytes() == want_mean.tobytes()
    if case == "empty_grid":
        assert traj.max_trace_deviation == 0.0
        assert traj.max_hermiticity_deviation == 0.0


def test_states_are_an_element_major_view():
    # each element's time series is contiguous, and no (T, n, n) copy
    # of the states is made
    spec = _two_channel_spec(np.random.default_rng(2), n=6)
    rho0 = _random_pure_state(np.random.default_rng(3), spec.dim)
    times = np.linspace(0.0, 50.0, 33)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # overlap warning
        states = resonance_evolution(spec, rho0, times).states
    assert states.shape == (len(times), spec.dim, spec.dim)
    assert states.dtype == complex
    assert states.base is not None
    assert states.strides[0] == states.itemsize


def test_register_evolution_allocates_no_weight_stack():
    # the six-qubit template has Bohr groups of up to 64 elements; a
    # stored d x d weight per mode would take sum d^3 = 10^6 complex
    # numbers (15 MiB), while the eigenvector factors, one formed
    # weight and the states peak near 1.6 MiB
    spec = _template_register(6)
    resonances = resonance_energies(spec)
    rho0 = np.full((spec.dim, spec.dim), 1.0 / spec.dim, dtype=complex)
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # overlap warning
            resonance_evolution(spec, rho0, [0.0, 1.0], resonances)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


# =====================================================================
# Resonance lists from another spec
# =====================================================================

def _three_level_spec():
    G = np.array([[0.2, 0.5, 0.1], [0.5, -0.1, 0.4], [0.1, 0.4, 0.3]],
                 dtype=complex)
    return build_system([0.0, 1.0, 2.5], [(0.02, G, QUBIT["g"])], beta=1.0)


@pytest.mark.parametrize("source", ["smaller", "larger", "duplicated"])
@pytest.mark.parametrize("call", ["resonance_evolution", "ergodic_mean",
                                  "check_nonoverlap"])
def test_resonances_must_cover_the_spec_exactly_once(source, call):
    spec = _three_level_spec()
    rho0 = pure_state([1.0, 1.0, 1.0])
    if source == "smaller":
        resonances = resonance_energies(single_qubit_spec(**QUBIT))
    elif source == "larger":
        resonances = resonance_energies(_two_channel_spec(
            np.random.default_rng(1), n=4))
    else:
        own = resonance_energies(spec)
        resonances = own + own[:1]
    run = {"resonance_evolution":
           lambda: resonance_evolution(spec, rho0, [0.0, 1.0],
                                       resonances=resonances),
           "ergodic_mean": lambda: ergodic_mean(spec, rho0,
                                                resonances=resonances),
           "check_nonoverlap": lambda: check_nonoverlap(
               spec, resonances=resonances)}[call]
    with pytest.raises(DimensionMismatch, match="exactly once"):
        run()


def test_own_resonances_pass_the_cover_check():
    spec = _three_level_spec()
    rho0 = pure_state([1.0, 0.5, 0.2])
    resonances = resonance_energies(spec)
    traj = resonance_evolution(spec, rho0, [0.0], resonances=resonances)
    assert np.allclose(traj.states[0], rho0.entries, atol=1e-12)
    assert np.array_equal(ergodic_mean(spec, rho0, resonances=resonances),
                          traj.ergodic_mean)
    assert check_nonoverlap(spec, resonances=resonances) \
        == check_nonoverlap(spec)


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
