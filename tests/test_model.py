"""System and register model validation."""

import numpy as np
import pytest

from resodec.errors import (
    DimensionMismatch,
    NonHermitianCoupling,
    NonPositiveBeta,
    RegisterTooLarge,
    ValidationError,
)
from resodec.model import (
    MAX_QUBITS,
    CouplingTerm,
    DensityMatrix,
    FormFactor,
    RegisterSpec,
    SystemSpec,
    build_system,
    collective_x_matrix,
    collective_z_matrix,
    energy_of_configuration,
    gibbs_state,
    register_to_system,
    spin_configuration,
)

RNG = np.random.default_rng(20240817)


def make_register(n=3, **overrides):
    kwargs = dict(
        n_qubits=n,
        J=np.zeros((n, n)),
        B=np.linspace(0.4, 0.6, n),
        lambda1=0.01,
        lambda2=0.02,
        g1=FormFactor(radial_exponent=-0.5, decay_exponent=1),
        g2=FormFactor(radial_exponent=0.5, decay_exponent=1),
        beta=1.0,
    )
    kwargs.update(overrides)
    return RegisterSpec(**kwargs)


# =====================================================================
# Form factors
# =====================================================================

def test_form_factor_radial_closed_form():
    ff = FormFactor(radial_exponent=0.7, decay_exponent=2,
                    overall_scale=0.75)
    r = np.array([0.3, 1.0, 2.1])
    expected = 0.75 * r ** 0.7 * np.exp(-r ** 2)
    assert np.allclose(ff.radial(r), expected, rtol=0.0, atol=1e-15)


def test_form_factor_rejects_bad_decay_exponent():
    with pytest.raises(ValidationError):
        FormFactor(radial_exponent=0.5, decay_exponent=3)


def test_form_factor_rejects_non_square_integrable_exponent():
    # square integrability on R^3 needs 2p + 2 > -1
    with pytest.raises(ValidationError):
        FormFactor(radial_exponent=-1.5, decay_exponent=1)


def test_form_factor_is_zero():
    assert FormFactor(radial_exponent=0.5, decay_exponent=1,
                      overall_scale=0.0).is_zero
    assert not FormFactor(radial_exponent=0.5, decay_exponent=1).is_zero


# =====================================================================
# Coupling terms and system specs
# =====================================================================

def test_coupling_term_hermitizes_matrix():
    raw = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    term = CouplingTerm(strength=0.1, matrix=raw + raw.conj().T,
                        form_factor=FormFactor(radial_exponent=0.5,
                                               decay_exponent=1))
    assert np.allclose(term.matrix, term.matrix.conj().T)
    with pytest.raises(ValueError):
        term.matrix[0, 0] = 5.0   # stored read-only


def test_coupling_term_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex)
    with pytest.raises(NonHermitianCoupling):
        CouplingTerm(strength=0.1, matrix=bad,
                     form_factor=FormFactor(radial_exponent=0.5,
                                            decay_exponent=1))


def test_system_spec_validation():
    ff = FormFactor(radial_exponent=0.5, decay_exponent=1)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    term = CouplingTerm(strength=0.1, matrix=sx, form_factor=ff)
    with pytest.raises(DimensionMismatch):
        SystemSpec(dim=3, energies=np.array([0.0, 1.0]),
                   couplings=(term,), beta=1.0)
    with pytest.raises(NonPositiveBeta):
        SystemSpec(dim=2, energies=np.array([0.0, 1.0]),
                   couplings=(term,), beta=0.0)
    with pytest.raises(DimensionMismatch):
        SystemSpec(dim=3, energies=np.array([0.0, 1.0, 2.0]),
                   couplings=(term,), beta=1.0)
    spec = SystemSpec(dim=2, energies=np.array([0.0, 1.0]),
                      couplings=(term,), beta=1.0)
    assert spec.overall_coupling == 0.1


def test_build_system_accepts_tuples():
    ff = FormFactor(radial_exponent=0.5, decay_exponent=1)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    spec = build_system([0.0, 1.0], [(0.1, sx, ff)], beta=2.0)
    assert spec.dim == 2
    assert isinstance(spec.couplings[0], CouplingTerm)
    assert spec.beta == 2.0


def test_overall_coupling_is_max_strength():
    ff = FormFactor(radial_exponent=0.5, decay_exponent=1)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    spec = build_system([0.0, 1.0], [(0.1, sx, ff), (-0.3, sx, ff)],
                        beta=1.0)
    assert spec.overall_coupling == 0.3


# =====================================================================
# Density matrices
# =====================================================================

def test_density_matrix_accepts_valid_state():
    rho = DensityMatrix.from_array(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert rho.dim == 2
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 2.0


def test_density_matrix_rejects_invalid_states():
    with pytest.raises(ValidationError):
        DensityMatrix.from_array(np.array([[0.5, 0.6], [0.5, 0.5]]))
    with pytest.raises(ValidationError):
        DensityMatrix.from_array(np.array([[0.7, 0.0], [0.0, 0.5]]))
    with pytest.raises(ValidationError):   # not positive semidefinite
        DensityMatrix.from_array(np.array([[0.0, 0.5], [0.5, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_matrix_rejects_non_finite_entries(bad):
    # NaN compares false with every bound, so the Hermiticity, trace and
    # positivity checks alone would let it through
    for entries in ([[bad, 0.0], [0.0, 1.0]], [[0.5, bad], [bad, 0.5]]):
        with pytest.raises(ValidationError, match="finite"):
            DensityMatrix.from_array(entries)


# =====================================================================
# Spin configurations and register assembly
# =====================================================================

def test_spin_configuration_ordering():
    assert np.array_equal(spin_configuration(0, 3), [1, 1, 1])
    # bit j of the index flips spin j; the first spin varies fastest
    assert np.array_equal(spin_configuration(1, 3), [-1, 1, 1])
    assert np.array_equal(spin_configuration(4, 3), [1, 1, -1])


def test_energy_of_configuration_manual():
    reg = make_register(2, J=np.array([[0.0, 0.3], [0.3, 0.0]]),
                        B=np.array([0.7, -0.2]))
    sigma = (1, -1)
    # ordered pairs: J contributes 2 * J_01 * s0 * s1
    expected = 2.0 * 0.3 * 1 * (-1) + 0.7 * 1 + (-0.2) * (-1)
    assert np.isclose(energy_of_configuration(reg, sigma), expected,
                      rtol=0.0, atol=1e-14)


def test_collective_matrices():
    z = collective_z_matrix(2)
    assert np.allclose(z, np.conj(z).T)
    for idx in range(4):
        sigma = spin_configuration(idx, 2)
        assert np.isclose(z[idx, idx], sigma.sum())
    x = collective_x_matrix(2)
    assert np.allclose(x, np.conj(x).T)
    for i in range(4):
        for j in range(4):
            flips = int(np.sum(spin_configuration(i, 2)
                               != spin_configuration(j, 2)))
            assert np.isclose(x[i, j], 1.0 if flips == 1 else 0.0)


def test_register_to_system_channels():
    reg = make_register(2)
    spec = register_to_system(reg)
    assert spec.dim == 4
    for idx in range(4):
        sigma = spin_configuration(idx, 2)
        assert np.isclose(spec.energies[idx],
                          energy_of_configuration(reg, sigma))
    strengths = [t.strength for t in spec.couplings]
    assert strengths == [reg.lambda1, reg.lambda2]
    assert np.allclose(spec.couplings[0].matrix, collective_z_matrix(2))
    assert np.allclose(spec.couplings[1].matrix, collective_x_matrix(2))
    assert spec.couplings[0].form_factor == reg.g1
    assert spec.couplings[1].form_factor == reg.g2


def test_register_too_large_raises():
    reg = make_register(11)
    with pytest.raises(RegisterTooLarge):
        register_to_system(reg)


def test_spin_table_rows_are_the_single_configurations():
    table = spin_configuration(np.arange(8), 3)
    assert table.shape == (8, 3)
    for idx in range(8):
        assert np.array_equal(table[idx], spin_configuration(idx, 3))


def test_register_to_system_at_the_size_limit():
    reg = make_register(MAX_QUBITS)
    spec = register_to_system(reg)
    assert spec.dim == 2 ** MAX_QUBITS
    x = spec.couplings[1].matrix
    assert np.array_equal(x.sum(axis=1), np.full(spec.dim, MAX_QUBITS))
    for idx in (0, 1, 309, spec.dim - 1):
        sigma = spin_configuration(idx, MAX_QUBITS)
        assert spec.energies[idx] == energy_of_configuration(reg, sigma)
        assert spec.couplings[0].matrix[idx, idx] == sigma.sum()


def test_register_spec_validation():
    with pytest.raises(ValidationError):
        make_register(2, J=np.array([[0.0, 0.3], [0.1, 0.0]]))
    with pytest.raises(DimensionMismatch):
        make_register(2, B=np.array([0.1, 0.2, 0.3]))
    with pytest.raises(NonPositiveBeta):
        make_register(2, beta=-1.0)


def test_gibbs_state_matches_boltzmann_weights():
    ff = FormFactor(radial_exponent=0.5, decay_exponent=1)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    spec = build_system([0.0, 1.3], [(0.1, sx, ff)], beta=0.8)
    rho = gibbs_state(spec)
    w = np.exp(-0.8 * np.array([0.0, 1.3]))
    w /= w.sum()
    assert np.allclose(np.diag(rho.entries).real, w, rtol=0.0, atol=1e-14)
    assert np.isclose(np.trace(rho.entries).real, 1.0)
