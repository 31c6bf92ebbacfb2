"""System and register model validation."""

import math
import re

import numpy as np
import pytest

from resodec.dynamics import free_evolution, single_qubit_closed_form
from resodec.errors import (
    BadConfiguration,
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
    gibbs_state,
    register_to_system,
    spin_configuration,
)
from resodec.oracle import FitResult, TruncatedBath, VerifyConfig, \
    dephasing_envelope, discretize_bath
from resodec.register import RegisterTemplate, generic_field_check
from resodec.reservoir import (
    half_line_transform,
    one_sided_density,
    pv_energy_shift,
    thermal_spectral_density,
    xi,
    xi_lorentzian_check,
)
from resodec.resonances import bohr_spectrum

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

def test_form_factor_rejects_bad_decay_exponent():
    with pytest.raises(ValidationError):
        FormFactor(radial_exponent=0.5, decay_exponent=3)


def test_form_factor_rejects_non_square_integrable_exponent():
    # square integrability on R^3 needs 2p + 2 > -1
    with pytest.raises(ValidationError):
        FormFactor(radial_exponent=-1.5, decay_exponent=1)


def test_form_factor_is_zero():
    # a coupling strength of 0 is the one switch of a channel: a zero
    # scale is refused, so is_zero is False on every form factor
    with pytest.raises(ValidationError, match="overall_scale must be "
                       "nonzero; a coupling strength of 0 switches"):
        FormFactor(radial_exponent=0.5, decay_exponent=1,
                   overall_scale=0.0)
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
    # no channel, no coupling
    assert SystemSpec(dim=2, energies=np.array([0.0, 1.0]), couplings=(),
                      beta=1.0).overall_coupling == 0.0


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
    # index 2 is sigma = (1, -1); ordered pairs: J contributes
    # 2 * J_01 * s0 * s1
    assert np.array_equal(spin_configuration(2, 2), [1, -1])
    expected = 2.0 * 0.3 * 1 * (-1) + 0.7 * 1 + (-0.2) * (-1)
    assert np.isclose(register_to_system(reg).energies[2], expected,
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
        s = spin_configuration(idx, 2).astype(float)
        assert np.isclose(spec.energies[idx], s @ reg.J @ s + reg.B @ s)
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
        s = sigma.astype(float)
        assert spec.energies[idx] == s @ reg.J @ s + reg.B @ s
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


# =====================================================================
# One checked conversion for beta and for positive scales
# =====================================================================

FF = FormFactor(radial_exponent=0.5, decay_exponent=2)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def spoiled(valid):
    """The nested list ``valid`` with its first number replaced by a
    string, a boolean, None and 10**400, and with a ragged last row."""
    def first(value, leaf):
        return [first(value[0], leaf), *value[1:]] \
            if isinstance(value, list) else leaf
    last = valid[-1][:-1] if isinstance(valid[-1], list) else [valid[-1]] * 2
    return [first(valid, leaf) for leaf in ("1", True, None, 10 ** 400)] \
        + [[*valid[:-1], last]]

#: every public entry point that takes an inverse temperature
BETA_SITES = {
    "SystemSpec": lambda b: SystemSpec(dim=1, energies=[0.0], couplings=(),
                                       beta=b),
    "build_system": lambda b: build_system([0.0, 1.0], [(0.1, SX, FF)], b),
    "RegisterSpec": lambda b: make_register(2, beta=b),
    "RegisterTemplate": lambda b: RegisterTemplate(0.01, 0.02, FF, FF, b),
    "TruncatedBath": lambda b: TruncatedBath([1.0], [0.1], 1, b),
    "xi": lambda b: xi(FF, b, 0.5),
    "pv_energy_shift": lambda b: pv_energy_shift(FF, b, 0.7),
}


@pytest.mark.parametrize("beta", ["1", True, None, math.nan, math.inf,
                                  0.0, -1.0], ids=repr)
@pytest.mark.parametrize("site", sorted(BETA_SITES))
def test_beta_is_finite_and_positive_at_every_site(site, beta):
    # a zero-temperature bath is refused like any other beta that is
    # not a finite number > 0; a string or boolean is never read as one
    with pytest.raises(NonPositiveBeta, match="beta must be finite and > 0"):
        BETA_SITES[site](beta)


def test_scales_reals_and_form_factor_fields_are_checked():
    spec = build_system([0.0, 1.0], [(0.1, SX, FF)], beta=1.0)
    half = np.eye(2) / 2.0
    qubit = dict(a=0.0, b=0.5, c=1.0, delta=1.0, g=FF, beta=1.0, lam=0.01)
    bath = TruncatedBath([1.0], [0.1], 1, 1.0)
    cases = [
        # positive scales
        *[(f"tol={v!r}", ValidationError, "tol must be finite and > 0",
           lambda v=v: bohr_spectrum(spec, v))
          for v in ("1e-9", True, math.nan, math.inf, 0.0, -1e-9)],
        *[(f"omega_max={v!r}", ValidationError,
           "omega_max must be finite and > 0",
           lambda v=v: discretize_bath(FF, 1.0, 10, v, 2))
          for v in ("3", True, math.nan, math.inf, 0.0, -3.0)],
        *[(f"epsilon={v!r}", ValidationError,
           "epsilon must be finite and > 0",
           lambda v=v: xi_lorentzian_check(FF, 1.0, 0.5, v))
          for v in ("0.1", True, math.nan, math.inf, 0.0)],
        *[(f"VerifyConfig.{name}={v!r}", ValidationError,
           f"{name} must be finite and > 0",
           lambda name=name, v=v: VerifyConfig(**{name: v}))
          for name in ("omega_max", "rate_tolerance", "horizon_factor")
          for v in ("1", True, None)],
        # reals
        *[(f"RegisterTemplate.{name}={v!r}", ValidationError, name,
           lambda name=name, v=v: RegisterTemplate(
               **{**dict(lambda1=0.01, lambda2=0.02, g1=FF, g2=FF,
                         beta=1.0), name: v}))
          for name in ("lambda1", "lambda2")
          for v in ("0.01", True, None, math.nan)],
        *[(f"b_interval={v!r}", ValidationError,
           r"b_interval must be a finite \(low, high\) pair",
           lambda v=v: RegisterTemplate(0.01, 0.02, FF, FF, 1.0,
                                        b_interval=v))
          for v in (("a", "b"), (0.45, True), (None, 0.55),
                    (0.45, math.nan), 0.5)],
        # a NaN rate compares false with the bound
        *[(f"FitResult.rate={v!r}", ValidationError, match,
           lambda v=v: FitResult(v, 0.0))
          for v, match in ((math.nan, "rate must be a finite number"),
                           (-1.0, "rate must be >= 0"))],
        ("VerifyConfig.lambdas=0.02", ValidationError, "lambdas",
         lambda: VerifyConfig(lambdas=0.02)),
        *[(f"xi eta={v!r}", ValidationError, "eta",
           lambda v=v: xi(FF, 1.0, v))
          for v in ("0.5", True, None, math.nan, math.inf, -0.5,
                    np.float32("inf"))],
        *[(f"xi_lorentzian_check eta={v!r}", ValidationError, "eta",
           lambda v=v: xi_lorentzian_check(FF, 1.0, v, 0.1))
          for v in ("0.5", True, math.nan, math.inf, -0.5)],
        # the reservoir's frequencies: a string or boolean is not a
        # number, and NaN or infinity is refused before any quadrature
        *[(f"{site.__name__} {name}={v!r}", ValidationError,
           f"^{name} must be", lambda site=site, v=v: site(FF, 1.0, v))
          for site, name in ((pv_energy_shift, "Delta"),
                             (half_line_transform, "omega"),
                             (thermal_spectral_density, "u"))
          for v in ("1", True, None, math.nan, math.inf)],
        *[(f"one_sided_density eta={v!r}", ValidationError, "^eta must be",
           lambda v=v: one_sided_density(FF, v))
          for v in ("1", True, None, math.nan, math.inf, [1.0, math.inf])],
        ("build_system strength='0.1'", ValidationError, "strength",
         lambda: build_system([0.0, 1.0], [("0.1", SX, FF)], 1.0)),
        # the closed forms' scalars: a boolean is not 1, a string not a
        # number, and g holds a FormFactor
        *[(f"single_qubit_closed_form {name}={v!r}", ValidationError,
           f"^{name} must be",
           lambda name=name, v=v: single_qubit_closed_form(
               **{**qubit, name: v}, rho0=half, times=[0.0]))
          for name, values in (("a", (True, "0", None, math.nan)),
                               ("b", (True, "0.5")),
                               ("lam", ("0.01", True, math.inf)),
                               ("c", (True, "1", None, [1.0, 0.0],
                                      complex(1.0, math.nan))),
                               ("g", ("ff", None, (0.5, 2))))
          for v in values],
        *[(f"dephasing_envelope {name}={v!r}", ValidationError,
           f"^{name} must be a finite number",
           lambda name=name, v=v: dephasing_envelope(
               bath, **{"g_m": 0.0, "g_n": 0.0, name: v}, times=[1.0]))
          for name in ("g_m", "g_n") for v in (True, "1.0", None, math.nan)],
        # arrays: a string, boolean, None, 10**400 or ragged row in any
        # array field is refused, never coerced
        *[(f"{label}={v!r}", BadConfiguration, match,
           lambda call=call, v=v: call(v))
          for label, match, valid, call in (
              ("CouplingTerm matrix", "coupling matrix", SX.tolist(),
               lambda v: CouplingTerm(0.1, v, FF)),
              ("SystemSpec energies", "energies", [0.0, 1.0],
               lambda v: SystemSpec(2, v, (), 1.0)),
              ("DensityMatrix entries", "density matrix entries",
               half.tolist(), lambda v: DensityMatrix(2, v)),
              ("from_array", "density matrix entries", half.tolist(),
               DensityMatrix.from_array),
              ("RegisterSpec J", "J", np.zeros((2, 2)).tolist(),
               lambda v: make_register(2, J=v)),
              ("RegisterSpec B", "B", [0.4, 0.6],
               lambda v: make_register(2, B=v)),
              ("build_system energies", "energies", [0.0, 1.0],
               lambda v: build_system(v, [(0.1, SX, FF)], 1.0)),
              ("initial state", "initial state", half.tolist(),
               lambda v: free_evolution(spec, v, [0.0])),
              ("times", "times", [0.0, 1.0],
               lambda v: free_evolution(spec, half, v)),
              ("TruncatedBath frequencies", "mode frequencies", [1.0, 2.0],
               lambda v: TruncatedBath(v, [0.1, 0.1], 2, 1.0)),
              ("TruncatedBath couplings", "mode couplings", [0.1, 0.1],
               lambda v: TruncatedBath([1.0, 2.0], v, 2, 1.0)),
              ("VerifyConfig.lambdas", "lambdas", [0.01, 0.02],
               lambda v: VerifyConfig(lambdas=v)),
              ("generic_field_check", "B", [0.5, 0.25],
               generic_field_check),
              ("b_interval", r"b_interval must be a finite \(low, high\) "
               "pair", [0.45, 0.55],
               lambda v: RegisterTemplate(0.01, 0.02, FF, FF, 1.0,
                                          b_interval=v)))
          for v in spoiled(valid)],
        # DensityMatrix: dim is an integer, entries are 2-d
        ("from_array(1.0)", DimensionMismatch, "2-d",
         lambda: DensityMatrix.from_array(1.0)),
        ("from_array([0.5, 0.5])", DimensionMismatch, "2-d",
         lambda: DensityMatrix.from_array([0.5, 0.5])),
        *[(f"DensityMatrix dim={v!r}", BadConfiguration,
           "dim must be an integer", lambda v=v: DensityMatrix(v, half))
          for v in (True, 2.5, "2")],
        ("DensityMatrix dim=0", ValidationError, "dim must be >= 1",
         lambda: DensityMatrix(0, np.zeros((0, 0)))),
        ("from_array(zeros((0, 0)))", ValidationError, "dim must be >= 1",
         lambda: DensityMatrix.from_array(np.zeros((0, 0)))),
        # shapes, sizes and coupling entries
        ("CouplingTerm 2x3 matrix", DimensionMismatch,
         r"coupling matrix must be square, got shape \(2, 3\)",
         lambda: CouplingTerm(0.1, np.zeros((2, 3)), FF)),
        ("SystemSpec dim=0", ValidationError, "dim must be >= 1",
         lambda: SystemSpec(0, [], (), 1.0)),
        ("SystemSpec coupling tuple", ValidationError,
         "couplings must be CouplingTerm instances",
         lambda: SystemSpec(2, [0.0, 1.0], [(0.1, SX, FF)], 1.0)),
        ("DensityMatrix dim=3, 2x2 entries", DimensionMismatch,
         r"expected shape \(3, 3\)", lambda: DensityMatrix(3, half)),
        ("RegisterSpec n_qubits=0", ValidationError,
         "n_qubits must be >= 1", lambda: make_register(0)),
        ("RegisterSpec 3x3 J", DimensionMismatch, "J must be 2x2",
         lambda: make_register(2, J=np.zeros((3, 3)))),
        ("TruncatedBath without modes", ValidationError,
         "at least one mode is required",
         lambda: TruncatedBath([], [], 1, 1.0)),
        *[(f"build_system coupling {label}", BadConfiguration,
           r"^couplings\[0\] must be a \(strength, matrix, form_factor\) "
           "triple", lambda v=v: build_system([0.0, 1.0], [v], 1.0))
          for label, v in (("pair", (0.1, np.eye(2))), ("number", 0.1),
                           ("4-tuple", (0.1, np.eye(2), FF, 1.0)))],
        # form-factor fields hold FormFactors
        ("CouplingTerm form_factor=None", ValidationError,
         "form_factor must be a FormFactor",
         lambda: CouplingTerm(0.1, SX, None)),
        ("RegisterSpec g1='x'", ValidationError, "g1 must be a FormFactor",
         lambda: make_register(2, g1="x")),
        ("RegisterSpec g2=None", ValidationError, "g2 must be a FormFactor",
         lambda: make_register(2, g2=None)),
        ("RegisterTemplate g1='x'", ValidationError,
         "g1 must be a FormFactor",
         lambda: RegisterTemplate(0.01, 0.02, "x", FF, 1.0)),
        ("RegisterTemplate g2=(0.5, 2)", ValidationError,
         "g2 must be a FormFactor",
         lambda: RegisterTemplate(0.01, 0.02, FF, (0.5, 2), 1.0)),
    ]
    wrong = []
    for label, error, match, call in cases:
        try:
            call()
        except error as exc:
            if not re.search(match, str(exc)):
                wrong.append(f"{label}: message {str(exc)!r}")
        except Exception as exc:
            wrong.append(f"{label}: {type(exc).__name__}: {exc}")
        else:
            wrong.append(f"{label}: accepted")
    assert wrong == []
    # a numpy float32 is read like any other finite number
    assert xi(FF, np.float32(1.0), np.float32(0.5)) == xi(FF, 1.0, 0.5)
    # an integral float is stored as the int it names
    rho = DensityMatrix(dim=2.0, entries=half)
    assert rho.dim == 2 and type(rho.dim) is int
