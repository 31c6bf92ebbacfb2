"""Reduced density-matrix evolution reconstructed from resonance data.

Bohr group e collects the matrix elements (m, n) with E_m - E_n = e,
held as a read-only (d, 2) array of index pairs (see resonances);
under the free dynamics each element just rotates, [rho_t]_{mn} =
e^{i t e} [rho_0]_{mn}.  At second order in the coupling the elements
of one group mix through the level-shift matrix, and the trajectory is
an explicit exponential sum over its eigenmodes,

    v(t) = sum_s e^{i t eps^(s)} W_s v(0),

with spectral weight matrices W_s built from the left/right eigenvector
pairs of the level-shift matrix.  The corrections to the weights and
the exponentially decaying remainder of the underlying expansion are
dropped throughout; reconstructed states therefore satisfy Hermiticity
and positivity only up to O(lambda^2), and ``Trajectory`` stores plain
complex arrays rather than validated density matrices.

The ergodic (infinite-time-average) state keeps exactly the modes with
resonance energy zero; everything else dephases or decays.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .model import CouplingTerm, DensityMatrix, FormFactor, SystemSpec
from .reservoir import (
    mean_inverse_frequency,
    pv_energy_shift,
    thermal_spectral_density,
    xi,
)
from .resonances import (
    ZERO_RESONANCE_TOL,
    ResonanceData,
    bohr_spectrum,
    check_nonoverlap,
    resonance_energies,
)

__all__ = [
    "PropagatorBlock",
    "Trajectory",
    "propagator_blocks",
    "free_evolution",
    "resonance_evolution",
    "ergodic_mean",
    "single_qubit_closed_form",
    "single_qubit_spec",
]


# =====================================================================
# Propagator blocks
# =====================================================================

@dataclass(frozen=True)
class PropagatorBlock:
    """Explicit propagator of one Bohr group.

    ``pairs`` is the group's (d, 2) array of index pairs, ``epsilons``
    holds the distinct resonance energies of the group and
    ``weights[s]`` the spectral weight matrix of mode s, so that the
    group's element vector evolves as
    v(t) = sum_s exp(i t epsilons[s]) weights[s] @ v(0).
    The weights sum to the identity, so at vanishing coupling the block
    reduces to the free rotation e^{i t e}.
    """

    e: float
    pairs: np.ndarray
    epsilons: np.ndarray
    weights: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.pairs)

    def propagate(self, v0: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Element vectors at each time; shape (len(times), dim)."""
        v0 = np.asarray(v0, dtype=complex)
        times = np.atleast_1d(np.asarray(times, dtype=float))
        comps = self.weights @ v0                      # (s, dim)
        phases = np.exp(1j * np.outer(times, self.epsilons))
        return phases @ comps

    def ergodic_component(self, v0: np.ndarray) -> np.ndarray:
        """Contribution of the zero-resonance modes."""
        v0 = np.asarray(v0, dtype=complex)
        out = np.zeros_like(v0)
        for s, eps in enumerate(self.epsilons):
            if abs(eps) <= ZERO_RESONANCE_TOL:
                out += self.weights[s] @ v0
        return out


def _block_from_resonance(data: ResonanceData,
                          left_vectors: np.ndarray) -> PropagatorBlock:
    """Merge eigenmodes with coinciding shift into one spectral weight;
    ``left_vectors`` is the inverse of ``data.right_vectors``."""
    d = len(data.pairs)
    classes = data.classes
    epsilons = np.empty(len(classes), dtype=complex)
    weights = np.empty((len(classes), d, d), dtype=complex)
    for s, idx in enumerate(classes):
        epsilons[s] = np.mean(data.epsilons[idx])
        weights[s] = data.right_vectors[:, idx] @ left_vectors[idx, :]
    return PropagatorBlock(e=data.e, pairs=data.pairs,
                           epsilons=epsilons, weights=weights)


def propagator_blocks(resonances: list) -> list:
    """One PropagatorBlock per Bohr group, in sorted-e order; the
    eigenvector bases of one group size are inverted in one batch."""
    left: dict = {}
    for size in {len(r.pairs) for r in resonances}:
        idx = [i for i, r in enumerate(resonances) if len(r.pairs) == size]
        left.update(zip(idx, np.linalg.inv(
            np.stack([resonances[i].right_vectors for i in idx]))))
    return [_block_from_resonance(r, left[i])
            for i, r in enumerate(resonances)]


# =====================================================================
# Trajectories
# =====================================================================

@dataclass(frozen=True)
class Trajectory:
    """Time series of reconstructed reduced density matrices.

    ``states[k]`` is the complex matrix at ``times[k]``; ``ergodic_mean``
    is the infinite-time average.  Reconstructed matrices satisfy trace
    preservation to 1e-10 but Hermiticity and positivity only to the
    dropped O(lambda^2) order, so entries are stored unvalidated.
    """

    times: np.ndarray
    states: np.ndarray
    ergodic_mean: np.ndarray

    def element(self, m: int, n: int) -> np.ndarray:
        """The (m, n) matrix element as a complex time series."""
        return self.states[:, m, n]

    @property
    def max_trace_deviation(self) -> float:
        traces = np.einsum("tii->t", self.states)
        return float(np.max(np.abs(traces - traces[0])))

    @property
    def max_hermiticity_deviation(self) -> float:
        return float(np.max(np.abs(
            self.states - np.conj(np.swapaxes(self.states, 1, 2)))))


def _as_state_array(rho0) -> np.ndarray:
    if isinstance(rho0, DensityMatrix):
        return np.array(rho0.entries, dtype=complex)
    return np.asarray(rho0, dtype=complex)


# =====================================================================
# Free evolution
# =====================================================================

def free_evolution(spec: SystemSpec, rho0, times) -> Trajectory:
    """Exact uncoupled evolution: element (m, n) rotates with phase
    e^{i t (E_m - E_n)}.  The ergodic mean keeps the elements whose
    Bohr frequency is zero (all diagonals, plus off-diagonals between
    degenerate levels) and averages away the rest.
    """
    rho0 = _as_state_array(rho0)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    E = spec.energies
    freq = E[:, None] - E[None, :]
    phases = np.exp(1j * times[:, None, None] * freq[None, :, :])
    states = phases * rho0[None, :, :]

    mean = np.zeros_like(rho0)
    m, n = bohr_spectrum(spec).groups[0.0].T
    mean[m, n] = rho0[m, n]
    return Trajectory(times=times, states=states, ergodic_mean=mean)


# =====================================================================
# Resonance reconstruction
# =====================================================================

def _reconstruct(resonances: list, rho0: np.ndarray, n: int,
                 times: np.ndarray) -> tuple:
    """(states, ergodic mean) of an n-level system from its blocks."""
    states = np.zeros((len(times), n, n), dtype=complex)
    mean = np.zeros((n, n), dtype=complex)
    for block in propagator_blocks(resonances):
        m, k = block.pairs.T
        v0 = rho0[m, k]
        states[:, m, k] = block.propagate(v0, times)
        mean[m, k] = block.ergodic_component(v0)
    return states, mean


def resonance_evolution(spec: SystemSpec, rho0, times,
                        resonances: list | None = None) -> Trajectory:
    """Second-order resonance reconstruction of the reduced dynamics.

    Each Bohr group's element vector is propagated by its explicit
    exponential sum; groups never mix.  ``resonances`` defaults to
    ``resonance_energies(spec)``.  Warns when the scale separation
    between Bohr gaps and second-order shifts drops below 10 (the
    expansion assumes well-separated resonances).
    """
    rho0 = _as_state_array(rho0)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if resonances is None:
        resonances = resonance_energies(spec)
    report = check_nonoverlap(spec, resonances=resonances)
    if not report.passed:
        warnings.warn(
            "resonance separation margin %.3g is below 10; the "
            "second-order expansion may be inaccurate here"
            % report.margin, UserWarning, stacklevel=2)

    states, mean = _reconstruct(resonances, rho0, spec.dim, times)
    return Trajectory(times=times, states=states, ergodic_mean=mean)


def ergodic_mean(spec: SystemSpec, rho0,
                 resonances: list | None = None) -> np.ndarray:
    """Infinite-time average of the reconstructed evolution, assembled
    directly from the zero-resonance modes without evaluating a
    trajectory.  ``resonances`` defaults to ``resonance_energies(spec)``.
    """
    if resonances is None:
        resonances = resonance_energies(spec)
    return _reconstruct(resonances, _as_state_array(rho0), spec.dim,
                        np.empty(0))[1]


# =====================================================================
# Single-qubit closed form
# =====================================================================

def single_qubit_closed_form(a: float, b: float, c: complex, delta: float,
                             g: FormFactor, beta: float, lam: float,
                             rho0, times) -> Trajectory:
    """Analytic second-order evolution of one qubit.

    The qubit has energies (0, delta) and couples through the matrix
    [[a, c], [conj(c), b]] with strength ``lam`` to a thermal reservoir
    with form factor ``g`` at inverse temperature ``beta``.  Everything
    is evaluated from the reservoir integrals directly -- no level-shift
    matrix is diagonalized -- which makes this an independent check of
    the general reconstruction:

      * populations relax toward the Gibbs weights at rate
        gamma_pop = lam^2 pi |c|^2 xi(delta);
      * the (0, 1) coherence rotates with
        eps = -delta + lam^2 [ (b^2 - a^2) s(0) + |c|^2 (s(delta) -
        s(-delta)) ] + i lam^2 (pi/2) [ (a - b)^2 D(0) + |c|^2
        xi(delta) ],

    with s the dispersive part of the half-line transform expressed
    through the mean inverse frequency and the principal-value shift,
    and D the signed thermal spectral density.
    """
    rho0 = _as_state_array(rho0)
    if rho0.shape != (2, 2):
        raise DimensionMismatch("single-qubit closed form needs a 2x2 state")
    times = np.atleast_1d(np.asarray(times, dtype=float))

    x = xi(g, beta, delta)
    d_plus = thermal_spectral_density(g, beta, delta)
    d_minus = thermal_spectral_density(g, beta, -delta)
    d_zero = thermal_spectral_density(g, beta, 0.0)
    s_zero = 0.5 * mean_inverse_frequency(g)
    s_diff = 0.5 * pv_energy_shift(g, beta, delta)

    c2 = abs(c) ** 2
    gamma_pop = lam ** 2 * np.pi * c2 * x
    eps_coh = (-delta
               + lam ** 2 * ((b * b - a * a) * s_zero + c2 * s_diff)
               + 1j * lam ** 2 * (np.pi / 2.0)
               * ((a - b) ** 2 * d_zero + c2 * x))

    p0, p1 = rho0[0, 0], rho0[1, 1]
    states = np.empty((len(times), 2, 2), dtype=complex)
    if gamma_pop > ZERO_RESONANCE_TOL:
        w0, w1 = d_plus / x, d_minus / x      # Gibbs weights
        amp = -d_minus * p0 + d_plus * p1     # transient component
        decay = np.exp(-gamma_pop * times)
        states[:, 0, 0] = (p0 + p1) * w0 - (amp / x) * decay
        states[:, 1, 1] = (p0 + p1) * w1 + (amp / x) * decay
        mean_diag = np.array([(p0 + p1) * w0, (p0 + p1) * w1])
    else:
        states[:, 0, 0] = p0
        states[:, 1, 1] = p1
        mean_diag = np.array([p0, p1])

    coh = np.exp(1j * eps_coh * times)
    states[:, 0, 1] = rho0[0, 1] * coh
    states[:, 1, 0] = rho0[1, 0] * np.conj(coh)

    mean = np.diag(mean_diag.astype(complex))
    return Trajectory(times=times, states=states, ergodic_mean=mean)


def single_qubit_spec(a: float, b: float, c: complex, delta: float,
                      g: FormFactor, beta: float,
                      lam: float) -> SystemSpec:
    """The SystemSpec matching ``single_qubit_closed_form``'s arguments."""
    matrix = np.array([[a, c], [np.conj(c), b]], dtype=complex)
    return SystemSpec(dim=2, energies=np.array([0.0, delta]),
                      couplings=[CouplingTerm(strength=lam, matrix=matrix,
                                              form_factor=g)],
                      beta=beta)
