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

from dataclasses import dataclass, field

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
    "energy_of_configuration",
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


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


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
        if self.decay_exponent not in (1, 2):
            raise ValidationError(
                f"decay_exponent must be 1 or 2, got {self.decay_exponent!r}")
        for name in ("radial_exponent", "overall_scale"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v!r}")
        if 2.0 * self.radial_exponent + 2.0 <= -1.0:
            raise ValidationError(
                "form factor is not square integrable on R^3: need "
                f"2p + 2 > -1, got p = {self.radial_exponent}")

    # -- evaluation ----------------------------------------------------

    def radial(self, r):
        """g(r) for r > 0."""
        r = np.asarray(r, dtype=float)
        return (self.overall_scale * r ** self.radial_exponent
                * np.exp(-(r ** self.decay_exponent)))

    @property
    def is_zero(self) -> bool:
        return self.overall_scale == 0.0


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
        if not np.isfinite(self.strength):
            raise ValidationError("coupling strength must be finite")
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(
                f"coupling matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise ValidationError("coupling matrix must be finite")
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
        if self.dim < 1:
            raise ValidationError(f"dim must be >= 1, got {self.dim}")
        e = np.asarray(self.energies, dtype=float)
        if e.shape != (self.dim,):
            raise DimensionMismatch(
                f"expected {self.dim} energies, got shape {e.shape}")
        if not np.all(np.isfinite(e)):
            raise ValidationError("energies must be finite")
        if not (self.beta > 0.0 and np.isfinite(self.beta)):
            raise NonPositiveBeta(f"beta must be > 0, got {self.beta!r}")
        cpl = tuple(self.couplings)
        for c in cpl:
            if not isinstance(c, CouplingTerm):
                raise ValidationError(
                    "couplings must be CouplingTerm instances")
            if c.dim != self.dim:
                raise DimensionMismatch(
                    f"coupling matrix is {c.dim}x{c.dim} but the system "
                    f"dimension is {self.dim}")
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
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise DimensionMismatch(
                f"expected shape ({self.dim}, {self.dim}), got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValidationError("density matrix entries must be finite")
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
        object.__setattr__(self, "entries", _as_readonly(m))

    @classmethod
    def from_array(cls, entries) -> "DensityMatrix":
        entries = np.asarray(entries, dtype=complex)
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
        n = self.n_qubits
        if n < 1:
            raise ValidationError(f"n_qubits must be >= 1, got {n}")
        J = np.asarray(self.J, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if J.shape != (n, n):
            raise DimensionMismatch(f"J must be {n}x{n}, got {J.shape}")
        if B.shape != (n,):
            raise DimensionMismatch(f"B must have length {n}, got {B.shape}")
        if not (np.all(np.isfinite(J)) and np.all(np.isfinite(B))):
            raise ValidationError("J and B must be finite")
        if np.max(np.abs(J - J.T), initial=0.0) > HERMITICITY_TOL:
            raise ValidationError("J must be symmetric")
        for name in ("lambda1", "lambda2"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if not (self.beta > 0.0 and np.isfinite(self.beta)):
            raise NonPositiveBeta(f"beta must be > 0, got {self.beta!r}")
        object.__setattr__(self, "J", _as_readonly((J + J.T) / 2.0))
        object.__setattr__(self, "B", _as_readonly(B))


# =====================================================================
# Construction operations
# =====================================================================

def build_system(energies, couplings, beta) -> SystemSpec:
    """Validate and assemble a SystemSpec.

    ``couplings`` may contain CouplingTerm instances or
    ``(strength, matrix, form_factor)`` tuples.  Energies are stored in
    the order given (no sorting).
    """
    energies = np.asarray(energies, dtype=float)
    terms = []
    for c in couplings:
        if isinstance(c, CouplingTerm):
            terms.append(c)
        else:
            strength, matrix, ff = c
            terms.append(CouplingTerm(strength=float(strength),
                                      matrix=matrix, form_factor=ff))
    return SystemSpec(dim=len(energies), energies=energies,
                      couplings=tuple(terms), beta=float(beta))


def spin_configuration(index, n: int) -> np.ndarray:
    """Spin configurations in the fixed basis order, one row per index.

    The first spin varies fastest and +1 precedes -1, so
    ``index = 0 -> (+1, ..., +1)`` and bit j of ``index`` flips spin j.
    A scalar index gives one configuration of shape (n,); an array of
    indices gives the table of shape (len(index), n).
    """
    bits = (np.asarray(index)[..., None] >> np.arange(n)) & 1
    return (1 - 2 * bits).astype(int)


def _check_configuration(sigma) -> np.ndarray:
    arr = np.asarray(sigma)
    if arr.ndim != 1 or arr.size == 0 or not np.all(np.isin(arr, (-1, 1))):
        raise BadConfiguration(
            "a spin configuration is a nonempty sequence of +1/-1 "
            f"entries, got {sigma!r}")
    return arr.astype(int)


def energy_of_configuration(reg: RegisterSpec, sigma) -> float:
    """E(sigma) = sum_ij J_ij sigma_i sigma_j + sum_j B_j sigma_j.

    The double sum runs over all ordered pairs (i, j), so a symmetric J
    contributes 2*J_ij per unordered pair; diagonal J_ii terms add a
    configuration-independent constant that cancels from all energy
    differences.
    """
    sigma = _check_configuration(sigma)
    if len(sigma) != reg.n_qubits:
        raise BadConfiguration(
            f"expected {reg.n_qubits} spins, got {len(sigma)}")
    s = sigma.astype(float)
    return float(s @ reg.J @ s + reg.B @ s)


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

    Energies follow the fixed configuration order of
    ``spin_configuration``; the two collective channels become coupling
    terms (lambda1, sum_j S_j^z, g1) and (lambda2, sum_j S_j^x, g2).
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
