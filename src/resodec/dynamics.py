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

from .errors import DimensionMismatch, ValidationError
from .model import DensityMatrix, FormFactor, SystemSpec, _form_factor, \
    _real, _reals
from .reservoir import (
    mean_inverse_frequency,
    pv_energy_shift,
    thermal_spectral_density,
    xi,
)
from .resonances import (
    ZERO_RESONANCE_TOL,
    _check_cover,
    _coinciding,
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
]


# =====================================================================
# Propagator blocks
# =====================================================================

@dataclass(frozen=True)
class PropagatorBlock:
    """Explicit propagator of one Bohr group, as data.

    ``pairs`` is the group's (d, 2) array of index pairs, ``right`` the
    right eigenvectors R of its level-shift matrix and ``left`` their
    inverse L.  Mode s is the class c = classes[s] of coinciding level
    shifts (``ResonanceData.classes``), with weight W_s = R[:, c] @
    L[c, :] and resonance energy ``epsilons[s]``, the mean of the
    class's epsilons, so that the group's element vector evolves as
    v(t) = sum_s exp(i t epsilons[s]) W_s @ v(0)
    (evaluated by ``resonance_evolution`` and ``ergodic_mean``).  The
    weights sum to the identity, so at vanishing coupling the block
    reduces to the free rotation e^{i t e}.  No weight is stored (a
    group of size d would hold d^3 numbers); ``_reconstruct`` forms
    each where it uses it, never as the bit-changing factored product.
    """

    e: float
    pairs: np.ndarray
    epsilons: np.ndarray
    right: np.ndarray
    left: np.ndarray
    classes: tuple


def propagator_blocks(resonances: list) -> list:
    """One PropagatorBlock per Bohr group, in sorted-e order.

    The groups of one size invert their eigenvector bases in one call.
    A group whose deltas the closeness mask (``_coinciding``) finds
    pairwise distinct has one singleton class per index and its own
    epsilons (the mean of one element is that element), without
    calling ``ResonanceData.classes``; any other group has its
    ``classes`` and the mean of each one's epsilons.  No weight is
    formed here.
    """
    blocks = [None] * len(resonances)
    for size in {len(r.pairs) for r in resonances}:
        idx = [i for i, r in enumerate(resonances) if len(r.pairs) == size]
        lefts = np.linalg.inv(
            np.stack([resonances[i].right_vectors for i in idx]))
        merged = _coinciding(np.stack([resonances[i].deltas for i in idx])) \
            .sum(axis=(1, 2)) > size
        singletons = tuple(np.arange(size)[:, None])
        for i, left, m in zip(idx, lefts, merged.tolist()):
            r = resonances[i]
            classes, epsilons = singletons, r.epsilons
            if m:
                classes = r.classes
                epsilons = np.array([r.epsilons[c].mean() for c in classes])
            blocks[i] = PropagatorBlock(e=r.e, pairs=r.pairs,
                                        epsilons=epsilons,
                                        right=r.right_vectors, left=left,
                                        classes=classes)
    return blocks


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
    ``states`` has shape (T, n, n) but may be a strided view over
    element-major storage (``resonance_evolution``'s is: each element's
    time series is contiguous); copy it where a C-contiguous array is
    needed.
    """

    times: np.ndarray
    states: np.ndarray
    ergodic_mean: np.ndarray

    def element(self, m: int, n: int) -> np.ndarray:
        """The (m, n) matrix element as a complex time series."""
        return self.states[:, m, n]

    @property
    def max_trace_deviation(self) -> float:
        """Largest |tr rho_t - tr rho_0| on the grid; 0.0 on an empty one."""
        traces = np.einsum("tii->t", self.states)
        return float(np.max(np.abs(traces - traces[:1]), initial=0.0))

    @property
    def max_hermiticity_deviation(self) -> float:
        """Largest |rho_t - rho_t^dag| entry; 0.0 on an empty grid."""
        return float(np.max(np.abs(
            self.states - np.conj(np.swapaxes(self.states, 1, 2))),
            initial=0.0))


def _as_state_array(rho0, dim: int) -> np.ndarray:
    """The initial state (a DensityMatrix or any array) as a complex
    array; a shape other than (dim, dim) raises DimensionMismatch."""
    if isinstance(rho0, DensityMatrix):
        rho0 = rho0.entries
    rho0 = _reals(rho0, "initial state", dtype=complex)
    if rho0.shape != (dim, dim):
        raise DimensionMismatch(
            f"initial state must be {dim}x{dim}, got shape {rho0.shape}")
    return rho0


def _time_grid(times) -> np.ndarray:
    """The time grid (a scalar or a sequence) as a 1-d float array; a
    grid of more dimensions or with a non-finite time raises
    ValidationError."""
    times = np.atleast_1d(_reals(times, "times"))
    if times.ndim != 1:
        raise ValidationError(
            "times must be a 1-d grid of finite numbers")
    return times


# =====================================================================
# Free evolution
# =====================================================================

def free_evolution(spec: SystemSpec, rho0, times) -> Trajectory:
    """Exact uncoupled evolution: element (m, n) rotates with phase
    e^{i t (E_m - E_n)}.  The ergodic mean keeps the elements whose
    Bohr frequency is zero (all diagonals, plus off-diagonals between
    degenerate levels) and averages away the rest.
    """
    rho0 = _as_state_array(rho0, spec.dim)
    times = _time_grid(times)
    mean = np.zeros_like(rho0)
    m, n = bohr_spectrum(spec)[0.0].T
    mean[m, n] = rho0[m, n]
    return Trajectory(times=times,
                      states=_free_states(spec.energies, rho0, times),
                      ergodic_mean=mean)


def _free_states(energies, rho0: np.ndarray, times: np.ndarray):
    """(T, n, n) states of the uncoupled evolution: element (m, n) of
    rho0 times e^{i t (E_m - E_n)}.  No Bohr clustering enters."""
    freq = energies[:, None] - energies[None, :]
    return np.exp(1j * times[:, None, None] * freq[None, :, :]) \
        * rho0[None, :, :]


# =====================================================================
# Resonance reconstruction
# =====================================================================

def _reconstruct(blocks: list, rho0: np.ndarray, n: int,
                 times: np.ndarray) -> tuple:
    """(states, ergodic mean) of an n-level system from its propagator
    blocks (all of them, in sorted-e order, or a subset): per block, the
    mode components W_s v(0) summed with their phases, and the zero
    modes'.  Elements of no given block stay zero.
    Each weight W_s = R[:, c] @ L[c, :] is formed just before its
    component is taken, so one d x d weight is alive at a time; the
    cheaper factored R[:, c] @ (L[c, :] @ v(0)) changes bits.

    The states are filled element-major, into an (n, n, T) buffer in
    which each block writes its elements' time series as contiguous
    rows, and returned as its (T, n, n) transposed view (no copy).

    Blocks are taken in conjugate pairs, the k-th from each end of the
    sorted-e list, back to back so that one phase array is alive at a
    time.  When the epsilons at -e are exactly -conj of those at +e,
    the phases at -e are the conjugates of those at +e (complex exp
    commutes with conjugation bit for bit), so one exponential serves
    both; any other block exponentiates its own.
    """
    buffer = np.zeros((n, n, len(times)), dtype=complex)
    mean = np.zeros((n, n), dtype=complex)

    def fill(block, phase):
        m, k = block.pairs.T
        v = rho0[m, k]
        comps = np.array([(block.right[:, c] @ block.left[c, :]) @ v
                          for c in block.classes])     # (s, dim)
        if len(m) == 1:
            np.matmul(phase, comps, out=buffer[m[0], k[0]][:, None])
        else:
            buffer[m, k] = (phase @ comps).T
        for comp in comps[np.abs(block.epsilons) <= ZERO_RESONANCE_TOL]:
            mean[m, k] += comp

    def phases(block):
        phase = np.outer(times, 1j * block.epsilons)
        return np.exp(phase, out=phase)

    for block, partner in zip(blocks[:(len(blocks) + 1) // 2],
                              reversed(blocks)):
        phase = phases(block)
        fill(block, phase)
        if partner is block:
            continue
        if np.array_equal(partner.epsilons, -np.conj(block.epsilons)):
            fill(partner, np.conj(phase, out=phase))
        else:
            fill(partner, phases(partner))
    return buffer.transpose(2, 0, 1), mean


def resonance_evolution(spec: SystemSpec, rho0, times,
                        resonances: list | None = None) -> Trajectory:
    """Second-order resonance reconstruction of the reduced dynamics.

    Each Bohr group's element vector is propagated by its explicit
    exponential sum; groups never mix.  ``resonances`` defaults to
    ``resonance_energies(spec)``; a given list whose groups do not cover
    the spec's elements exactly once raises DimensionMismatch (checked
    by ``check_nonoverlap``).  Warns when the scale separation
    between Bohr gaps and second-order shifts drops below 10 (the
    expansion assumes well-separated resonances).
    """
    rho0 = _as_state_array(rho0, spec.dim)
    times = _time_grid(times)
    if resonances is None:
        resonances = resonance_energies(spec)
    report = check_nonoverlap(spec, resonances=resonances)
    if not report.passed:
        warnings.warn(
            "resonance separation margin %.3g is below 10; the "
            "second-order expansion may be inaccurate here"
            % report.margin, UserWarning, stacklevel=2)

    states, mean = _reconstruct(propagator_blocks(resonances), rho0,
                                spec.dim, times)
    return Trajectory(times=times, states=states, ergodic_mean=mean)


def ergodic_mean(spec: SystemSpec, rho0,
                 resonances: list | None = None) -> np.ndarray:
    """Infinite-time average of the reconstructed evolution, assembled
    from the blocks that hold a zero-resonance mode only, without
    evaluating a trajectory.  ``resonances`` defaults to
    ``resonance_energies(spec)``; a given list whose groups do not cover
    the spec's elements exactly once raises DimensionMismatch.
    """
    rho0 = _as_state_array(rho0, spec.dim)
    if resonances is None:
        resonances = resonance_energies(spec)
    else:
        _check_cover(resonances, spec.dim)
    blocks = [b for b in propagator_blocks(resonances)
              if np.any(np.abs(b.epsilons) <= ZERO_RESONANCE_TOL)]
    return _reconstruct(blocks, rho0, spec.dim, np.empty(0))[1]


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
    _real(a, "a")
    _real(b, "b")
    _real(lam, "lam")
    _reals(c, "c", ndim=0, dtype=complex, what="a finite number")
    _form_factor(g, "g")
    rho0 = _as_state_array(rho0, 2)
    times = _time_grid(times)

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
