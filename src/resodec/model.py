"""Core domain types for open N-level systems collectively coupled to
bosonic thermal reservoirs.

The system Hamiltonian is diagonal, ``H_S = diag(E_1, ..., E_N)`` (units
hbar = k_B = 1).  Each reservoir coupling term contributes
``strength * G (x) field(g)`` where ``G`` is an N x N Hermitian matrix
acting on the system and ``g`` is an isotropic momentum-space form
factor ``g(u) = scale * u**p * exp(-u**m)``.  Multiple coupling terms
model statistically independent reservoir channels.

Qubit registers (all-to-all pair interactions ``J`` and local fields
``B``) of at most MAX_QUBITS qubits are lowered to plain N-level
systems over the 2**n spin basis, ordered lexicographically with the
first spin varying fastest and +1 preceding -1.  All indices in this
package are 0-based.

All types are immutable after construction and safe to share across
threads; every operation here is pure.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadConfiguration,
    DimensionMismatch,
    NonHermitianCoupling,
    NonPositiveBeta,
    RegisterTooLarge,
    ValidationError,
)

__all__ = [
    "FormFactor",
    "CouplingTerm",
    "SystemSpec",
    "DensityMatrix",
    "RegisterSpec",
    "build_system",
    "register_to_system",
    "spin_configuration",
    "collective_z_matrix",
    "collective_x_matrix",
    "gibbs_state",
]

HERMITICITY_TOL = 1e-12
#: largest register that is lowered to a 2**n-level system.  The memory
#: figure is decoherence_rates': its pipeline keeps one array of
#: 2^N 3^N complex entries (the eigenvectors of every group) for each
#: of three channel mixes (0.48 GB at N = 9, 2.9 GB at N = 10), and a
#: 9-qubit run peaks at 0.83 GB.  scaling_study, which evaluates only
#: two group sizes, peaks near 90 MB at N = 9
MAX_QUBITS = 9
#: field-draw seed of register.scaling_study, and the CLI's --seed
#: default
DEFAULT_SEED = 0xD1CE


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


# =====================================================================
# Checked conversions of numbers and arrays
# =====================================================================

def _integer(value, context: str) -> int:
    """An integer or integral float (20.0) as an int; any other value,
    20.7 included, raises BadConfiguration instead of being truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise BadConfiguration(f"{context} must be an integer, got {value!r}")


_NUMBER_TYPES = (int, float, np.integer, np.floating)
_FLOAT_MAX = sys.float_info.max


def _is_real(value) -> bool:
    """A number, not a boolean, that a finite float holds."""
    # a float first: xi checks two on each of its many calls
    if type(value) is float:
        return abs(value) <= _FLOAT_MAX
    if isinstance(value, np.floating):
        # as a float: numpy would cast the bound to a narrower type
        value = float(value)
    return isinstance(value, _NUMBER_TYPES) and not isinstance(value, bool) \
        and abs(value) <= _FLOAT_MAX


def _real(value, context: str) -> float:
    """A finite number as a float; anything else (true, null, "1", NaN,
    10**400) raises BadConfiguration instead of being coerced."""
    if not _is_real(value):
        raise BadConfiguration(
            f"{context} must be a finite number, got {value!r}")
    return float(value)


def _positive(value, context: str) -> float:
    """A finite number > 0 as a float; anything else raises
    ValidationError."""
    if not (_is_real(value) and value > 0):
        raise ValidationError(
            f"{context} must be finite and > 0, got {value!r}")
    return float(value)


def _beta(value) -> float:
    """An inverse temperature: a finite number > 0, as a float.  Anything
    else, infinity included, raises NonPositiveBeta; this is the one
    place that decides a beta."""
    if not (_is_real(value) and value > 0):
        raise NonPositiveBeta(f"beta must be finite and > 0, got {value!r}")
    return float(value)


def _is_complex(value) -> bool:
    """A real number (``_is_real``) or a complex one with finite parts."""
    if isinstance(value, (complex, np.complexfloating)):
        return _is_real(value.real) and _is_real(value.imag)
    return _is_real(value)


#: per dtype: the ndarray kinds checked whole, and the entry check of
#: any other input
_ARRAY_POLICY = {float: ("iuf", _is_real), complex: ("iufc", _is_complex)}


def _reals(value, context: str, ndim: int | None = None, dtype=float,
           what: str | None = None) -> np.ndarray:
    """A rectangular array of finite numbers (of ``ndim`` dimensions when
    given) as a ``dtype`` (float or complex) array.  A numeric ndarray is
    checked whole; anything else entry by entry as an object array, which
    holds a ragged level's lists as entries.  A string, boolean, None,
    non-finite or ragged entry raises BadConfiguration, "<context> must
    be <what>"."""
    kinds, is_entry = _ARRAY_POLICY[dtype]
    if isinstance(value, np.ndarray) and value.dtype.kind in kinds:
        array = np.asarray(value, dtype=dtype)
        valid = np.isfinite(array).all()
    else:
        array = np.array(value, dtype=object)
        valid = all(map(is_entry, array.flat))
    if valid and ndim in (None, array.ndim):
        return array.astype(dtype, copy=False)
    if what is None:
        what = ("an array" if ndim is None else f"a {ndim}-d array") \
            + " of finite numbers"
    raise BadConfiguration(f"{context} must be {what}")


# =====================================================================
# Form factors
# =====================================================================

@dataclass(frozen=True)
class FormFactor:
    """Isotropic momentum-space coupling profile
    ``g(u) = overall_scale * u**radial_exponent * exp(-u**decay_exponent)``,
    the same in every direction, so integrating |g|^2 over directions
    gives the factor 4*pi, and ``overall_scale`` is the one amplitude.

    Square integrability on R^3 requires ``2*radial_exponent + 2 > -1``.
    """

    radial_exponent: float
    decay_exponent: int
    overall_scale: float = 1.0

    def __post_init__(self):
        m = _integer(self.decay_exponent, "decay_exponent")
        if m not in (1, 2):
            raise ValidationError(f"decay_exponent must be 1 or 2, got {m}")
        object.__setattr__(self, "decay_exponent", m)
        _real(self.radial_exponent, "radial_exponent")
        _real(self.overall_scale, "overall_scale")
        if 2.0 * self.radial_exponent + 2.0 <= -1.0:
            raise ValidationError(
                "form factor is not square integrable on R^3: need "
                f"2p + 2 > -1, got p = {self.radial_exponent}")

    @property
    def is_zero(self) -> bool:
        return self.overall_scale == 0.0


def _form_factor(value, context: str) -> None:
    """Refuse a form-factor field that holds anything but a FormFactor."""
    if not isinstance(value, FormFactor):
        raise ValidationError(
            f"{context} must be a FormFactor, got {value!r}")


# =====================================================================
# Coupling terms and system specifications
# =====================================================================

@dataclass(frozen=True)
class CouplingTerm:
    """One reservoir channel: ``strength * G (x) field(form_factor)``."""

    strength: float
    matrix: np.ndarray
    form_factor: FormFactor

    def __post_init__(self):
        _real(self.strength, "coupling strength")
        _form_factor(self.form_factor, "form_factor")
        m = _reals(self.matrix, "coupling matrix", dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(
                f"coupling matrix must be square, got shape {m.shape}")
        dev = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
        if dev > HERMITICITY_TOL:
            raise NonHermitianCoupling(
                f"coupling matrix deviates from Hermiticity by {dev:.3e} "
                f"(tolerance {HERMITICITY_TOL:.0e})")
        # store the exactly Hermitian average so downstream algebra sees
        # no residual asymmetry
        object.__setattr__(self, "matrix", _as_readonly((m + m.conj().T) / 2.0))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SystemSpec:
    """N-level system + reservoir channels + inverse temperature."""

    dim: int
    energies: np.ndarray
    couplings: tuple
    beta: float

    def __post_init__(self):
        dim = _integer(self.dim, "dim")
        if dim < 1:
            raise ValidationError(f"dim must be >= 1, got {dim}")
        e = _reals(self.energies, "energies")
        if e.shape != (dim,):
            raise DimensionMismatch(
                f"expected {dim} energies, got shape {e.shape}")
        _beta(self.beta)
        cpl = tuple(self.couplings)
        for c in cpl:
            if not isinstance(c, CouplingTerm):
                raise ValidationError(
                    "couplings must be CouplingTerm instances")
            if c.dim != dim:
                raise DimensionMismatch(
                    f"coupling matrix is {c.dim}x{c.dim} but the system "
                    f"dimension is {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "energies", _as_readonly(e))
        object.__setattr__(self, "couplings", cpl)

    @property
    def overall_coupling(self) -> float:
        """The perturbation bookkeeping constant: max_r |strength_r|."""
        if not self.couplings:
            return 0.0
        return max(abs(c.strength) for c in self.couplings)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix (Hermitian, unit trace, positive)."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        dim = _integer(self.dim, "dim")
        if dim < 1:
            raise ValidationError(f"dim must be >= 1, got {dim}")
        m = _reals(self.entries, "density matrix entries", dtype=complex)
        if m.shape != (dim, dim):
            raise DimensionMismatch(
                f"expected shape ({dim}, {dim}), got {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValidationError("density matrix must be Hermitian")
        tr = np.trace(m).real
        if abs(tr - 1.0) > 1e-10:
            raise ValidationError(
                f"density matrix trace must be 1, got {tr!r}")
        ev = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
        if ev.min() < -1e-10:
            raise ValidationError(
                f"density matrix has negative eigenvalue {ev.min():.3e}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", _as_readonly(m))

    @classmethod
    def from_array(cls, entries) -> "DensityMatrix":
        entries = _reals(entries, "density matrix entries", dtype=complex)
        if entries.ndim != 2:
            raise DimensionMismatch(
                f"a density matrix is 2-d, got shape {entries.shape}")
        return cls(dim=entries.shape[0], entries=entries)


@dataclass(frozen=True)
class RegisterSpec:
    """Qubit register: pair interactions J, local fields B, and the two
    collective reservoir channels (conserving: lambda1/g1, exchange:
    lambda2/g2)."""

    n_qubits: int
    J: np.ndarray
    B: np.ndarray
    lambda1: float
    lambda2: float
    g1: FormFactor
    g2: FormFactor
    beta: float

    def __post_init__(self):
        n = _integer(self.n_qubits, "n_qubits")
        if n < 1:
            raise ValidationError(f"n_qubits must be >= 1, got {n}")
        J = _reals(self.J, "J")
        B = _reals(self.B, "B")
        if J.shape != (n, n):
            raise DimensionMismatch(f"J must be {n}x{n}, got {J.shape}")
        if B.shape != (n,):
            raise DimensionMismatch(f"B must have length {n}, got {B.shape}")
        if np.max(np.abs(J - J.T), initial=0.0) > HERMITICITY_TOL:
            raise ValidationError("J must be symmetric")
        _real(self.lambda1, "lambda1")
        _real(self.lambda2, "lambda2")
        _form_factor(self.g1, "g1")
        _form_factor(self.g2, "g2")
        _beta(self.beta)
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "J", _as_readonly((J + J.T) / 2.0))
        object.__setattr__(self, "B", _as_readonly(B))


# =====================================================================
# Construction operations
# =====================================================================

def build_system(energies, couplings, beta) -> SystemSpec:
    """Validate and assemble a SystemSpec.

    ``couplings`` is a sequence of ``(strength, matrix, form_factor)``
    tuples.  Energies are stored in the order given (no sorting).
    """
    energies = _reals(energies, "energies", ndim=1)
    terms = tuple(CouplingTerm(strength=_real(strength, "coupling strength"),
                               matrix=matrix, form_factor=ff)
                  for strength, matrix, ff in couplings)
    return SystemSpec(dim=len(energies), energies=energies,
                      couplings=terms, beta=_beta(beta))


def spin_configuration(index, n: int) -> np.ndarray:
    """Spin configurations in the fixed basis order, one row per index.

    The first spin varies fastest and +1 precedes -1, so
    ``index = 0 -> (+1, ..., +1)`` and bit j of ``index`` flips spin j.
    A scalar index gives one configuration of shape (n,); an array of
    indices gives the table of shape (len(index), n).
    """
    bits = (np.asarray(index)[..., None] >> np.arange(n)) & 1
    return (1 - 2 * bits).astype(int)


def collective_z_matrix(n: int) -> np.ndarray:
    """Sum of single-spin z operators in the fixed basis order: the
    diagonal matrix of total magnetizations sum_j sigma_j."""
    magnetization = spin_configuration(np.arange(2 ** n), n).sum(axis=1)
    return np.diag(magnetization.astype(float)).astype(complex)


def collective_x_matrix(n: int) -> np.ndarray:
    """Sum of single-spin flip operators: unit matrix element between
    configurations differing in exactly one spin."""
    index = np.arange(2 ** n)[:, None]
    m = np.zeros((2 ** n, 2 ** n), dtype=complex)
    m[index, index ^ (1 << np.arange(n))] = 1.0
    return m


def register_to_system(reg: RegisterSpec) -> SystemSpec:
    """Lower a qubit register to a 2**n-level SystemSpec.

    The energy of configuration sigma is E(sigma) = sum_ij J_ij sigma_i
    sigma_j + sum_j B_j sigma_j over ordered pairs (i, j), so a
    symmetric J contributes 2 J_ij per unordered pair; energies follow
    the fixed configuration order of ``spin_configuration``.  The two
    collective channels become coupling terms (lambda1, sum_j S_j^z,
    g1) and (lambda2, sum_j S_j^x, g2).
    Registers above MAX_QUBITS qubits raise RegisterTooLarge.
    """
    n = reg.n_qubits
    if n > MAX_QUBITS:
        raise RegisterTooLarge(
            f"register has {n} qubits, maximum is {MAX_QUBITS}")
    spins = spin_configuration(np.arange(2 ** n), n).astype(float)
    energies = np.array([s @ reg.J @ s + reg.B @ s for s in spins])
    couplings = (
        CouplingTerm(strength=reg.lambda1, matrix=collective_z_matrix(n),
                     form_factor=reg.g1),
        CouplingTerm(strength=reg.lambda2, matrix=collective_x_matrix(n),
                     form_factor=reg.g2),
    )
    return SystemSpec(dim=2 ** n, energies=energies, couplings=couplings,
                      beta=reg.beta)


def gibbs_state(spec: SystemSpec) -> DensityMatrix:
    """The system Gibbs state diag(exp(-beta*E_m)) / Z."""
    w = np.exp(-spec.beta * (spec.energies - spec.energies.min()))
    w = w / w.sum()
    return DensityMatrix(dim=spec.dim, entries=np.diag(w.astype(complex)))
