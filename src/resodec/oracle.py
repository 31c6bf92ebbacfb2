"""Brute-force verification against a truncated multimode reservoir.

The continuum reservoir is replaced by M discrete bosonic modes on a
uniform frequency grid; the coupled system-plus-modes Hamiltonian is
then evolved exactly and the reduced system state extracted by partial
trace.  Nothing from the perturbative pipeline enters: this module only
shares the model types and the spectral weight of the form factor, so
agreement between the two is a genuine cross-check.

Discretization: a mode at omega_k carries squared coupling
kappa_k^2 = J(omega_k) * d_omega, where J is the one-sided emission
density (including the angular 4*pi factor), and enters the interaction
through the position quadrature, lambda G (x) sum_k (kappa_k/sqrt 2)
(a_k + a_k^dag).  With this normalization the golden-rule decay rate of
a qubit reproduces lambda^2 pi |c|^2 xi(Delta) in the continuum limit.

Two evolution engines:

  * dense -- full product-space eigendecomposition with a per-mode
    truncated thermal initial bath state; exact for the truncated
    model, feasible for a handful of modes;
  * sector -- for many modes at low temperature: the bath starts in
    its vacuum and the state space is cut at a total excitation number
    K.  H is applied matrix-free (per channel a real sparse ladder
    operator on the bath index, then the small coupling matrix on the
    system index), propagated by Chebyshev expansion inside Gershgorin
    spectral bounds, and each grid state is traced down to the system
    as soon as it is reached.  Validity requires the coupling-weighted
    thermal occupancy of the modes to be negligible; this is checked
    and refused otherwise.  K is the Fock cutoff unless the sector
    would exceed STATE_SPACE_LIMIT; a lower K is used then and reported
    with a TruncationWarning.

Only the dense engine starts from the truncated thermal bath state, so
only it warns about the thermal weight beyond the Fock cutoff.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.integrate
import scipy.sparse

from .dynamics import Trajectory, _as_state_array, free_evolution, \
    resonance_evolution
from .errors import (
    DimensionTooLarge,
    PoorFit,
    TruncationWarning,
    WeightMismatch,
)
from .model import FormFactor, RegisterSpec, SystemSpec, register_to_system
from .resonances import ZERO_RESONANCE_TOL, resonance_energies
from .reservoir import one_sided_density

__all__ = [
    "TruncatedBath",
    "FitResult",
    "VerifyConfig",
    "VerificationCheck",
    "VerificationReport",
    "discretize_bath",
    "exact_evolve",
    "dephasing_envelope",
    "fit_decay",
    "verify",
]

#: hard ceiling on the evolved state-space dimension
STATE_SPACE_LIMIT = 200_000
#: product-space size up to which the dense engine is chosen automatically
DENSE_AUTO_LIMIT = 2500
#: per-mode thermal tail probability beyond the Fock cutoff that
#: triggers a truncation warning in the dense engine
TAIL_WARN = 1e-4
#: ceiling on the coupling-weighted mode occupancy for the sector engine
SECTOR_OCCUPANCY_TOL = 1e-3
#: bound on the dropped tail of each Chebyshev expansion
CHEBYSHEV_TOL = 1e-13
#: grid times served by one Chebyshev recurrence in the sector engine
CHEBYSHEV_OUTPUTS = 4
#: recurrence vectors summed into the outputs at once
CHEBYSHEV_BATCH = 8
#: sector rows processed together in one recurrence step
SECTOR_ROW_BLOCK = 8192


# =====================================================================
# Bath discretization
# =====================================================================

@dataclass(frozen=True)
class TruncatedBath:
    """A finite collection of bosonic modes standing in for the
    continuum reservoir.

    ``mode_couplings[k]`` is kappa_k, the square root of the spectral
    weight carried by mode k; the interaction amplitude of the mode is
    kappa_k / sqrt(2) through its position quadrature.
    """

    mode_frequencies: np.ndarray
    mode_couplings: np.ndarray
    fock_cutoff: int
    beta: float

    def __post_init__(self):
        freqs = np.asarray(self.mode_frequencies, dtype=float)
        coups = np.asarray(self.mode_couplings, dtype=float)
        if freqs.ndim != 1 or freqs.size < 1:
            raise ValueError("at least one mode is required")
        if np.any(freqs <= 0.0) or not np.all(np.isfinite(freqs)):
            raise ValueError("mode frequencies must be positive and finite")
        if coups.shape != freqs.shape or not np.all(np.isfinite(coups)):
            raise ValueError("mode couplings must be finite and match "
                             "the frequency grid")
        if int(self.fock_cutoff) < 1:
            raise ValueError("fock_cutoff must be >= 1")
        if not (self.beta > 0.0):
            raise ValueError("beta must be > 0")
        object.__setattr__(self, "mode_frequencies", freqs)
        object.__setattr__(self, "mode_couplings", coups)
        object.__setattr__(self, "fock_cutoff", int(self.fock_cutoff))

    @property
    def n_modes(self) -> int:
        return self.mode_frequencies.size

    @property
    def recurrence_time(self) -> float:
        """2*pi over the grid spacing (uniform grids): the horizon
        beyond which the discrete bath echoes back."""
        if self.n_modes < 2:
            return math.inf
        gaps = np.diff(np.sort(self.mode_frequencies))
        return 2.0 * math.pi / float(gaps.min())

    def occupancies(self) -> np.ndarray:
        """Untruncated thermal occupation number per mode."""
        return 1.0 / np.expm1(self.beta * self.mode_frequencies)

    def truncation_tail(self) -> float:
        """Largest per-mode thermal weight beyond the Fock cutoff."""
        return float(np.max(np.exp(
            -self.beta * self.mode_frequencies * (self.fock_cutoff + 1))))


def discretize_bath(form_factor: FormFactor, beta: float, n_modes: int,
                    omega_max: float, fock_cutoff: int) -> TruncatedBath:
    """Midpoint discretization of the reservoir spectral weight.

    Modes sit at the midpoints of a uniform grid on (0, omega_max] and
    carry kappa_k^2 = J(omega_k) * d_omega.  The summed weight must
    reproduce the continuum integral of J over (0, omega_max] within
    1%, otherwise the resolution is refused.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    if not (omega_max > 0.0):
        raise ValueError("omega_max must be > 0")
    step = omega_max / n_modes
    freqs = (np.arange(n_modes) + 0.5) * step
    weights = one_sided_density(form_factor, freqs) * step
    bath = TruncatedBath(mode_frequencies=freqs,
                         mode_couplings=np.sqrt(weights),
                         fock_cutoff=fock_cutoff, beta=beta)
    if not form_factor.is_zero:
        target, _ = scipy.integrate.quad(
            lambda w: float(one_sided_density(form_factor, w)),
            0.0, omega_max, limit=200)
        total = float(weights.sum())
        if abs(total - target) > 0.01 * abs(target):
            raise WeightMismatch(
                f"discretized spectral weight {total:.6g} deviates from "
                f"the continuum integral {target:.6g} by more than 1% "
                f"(n_modes = {n_modes}); refine the grid")
    return bath


def _warn_truncation(baths) -> None:
    """Warn when the truncated thermal bath state of the dense engine
    drops a per-mode tail above TAIL_WARN."""
    tail = max(b.truncation_tail() for b in baths)
    if tail > TAIL_WARN:
        warnings.warn(
            f"thermal weight {tail:.3e} beyond the Fock cutoff exceeds "
            f"{TAIL_WARN:g}; the truncated bath underrepresents thermal "
            "excitation", TruncationWarning, stacklevel=3)


# =====================================================================
# Dense engine
# =====================================================================

def _mode_operators(cutoff: int):
    lower = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)
    position = (lower + lower.T) / math.sqrt(2.0)
    number = np.diag(np.arange(cutoff + 1, dtype=float))
    return number, position


def _thermal_weights(beta: float, omega: float, cutoff: int) -> np.ndarray:
    w = np.exp(-beta * omega * np.arange(cutoff + 1))
    return w / w.sum()


def _active_channels(spec: SystemSpec, bath) -> list:
    """(coupling term, bath) for every coupling that acts; ``bath`` is
    one bath per coupling term, or a single bath when only one term
    couples."""
    single = isinstance(bath, TruncatedBath)
    baths = [bath] * len(spec.couplings) if single else list(bath)
    if len(baths) != len(spec.couplings):
        raise ValueError(
            f"{len(baths)} baths supplied for {len(spec.couplings)} "
            "coupling channels")
    active = [(t, b) for t, b in zip(spec.couplings, baths)
              if t.strength != 0.0 and not t.form_factor.is_zero]
    if single and len(active) > 1:
        raise ValueError(
            "a single bath cannot serve several active coupling "
            "channels; pass one bath per channel")
    return active


def _dense_evolve(spec: SystemSpec, active, rho0, times) -> np.ndarray:
    """Exact evolution by eigendecomposition of the product-space H."""
    n_sys = spec.dim
    # (cutoff, frequency, amplitude, channel matrix) per mode; the
    # 1/sqrt(2) lives in the position quadrature operator
    modes = [(bath.fock_cutoff, omega, term.strength * kappa, term.matrix)
             for term, bath in active
             for omega, kappa in zip(bath.mode_frequencies,
                                     bath.mode_couplings)]
    dims = [cut + 1 for cut, _, _, _ in modes]
    bath_dim = math.prod(dims)
    dim = n_sys * bath_dim
    if dim > STATE_SPACE_LIMIT:
        raise DimensionTooLarge(
            f"product space of dimension {dim} exceeds the cap "
            f"{STATE_SPACE_LIMIT}")

    h_total = np.kron(np.diag(spec.energies).astype(complex),
                      np.eye(bath_dim))
    bath_thermal = np.ones(1)
    for idx, (cut, omega, amp, gmat) in enumerate(modes):
        number, position = _mode_operators(cut)
        left = np.eye(math.prod(dims[:idx]))
        right = np.eye(math.prod(dims[idx + 1:]))
        lift = np.kron(np.kron(left, number), right)
        h_total += omega * np.kron(np.eye(n_sys), lift).astype(complex)
        h_total += amp * np.kron(gmat, np.kron(np.kron(left, position),
                                               right))
        bath_thermal = np.kron(bath_thermal,
                               _thermal_weights(spec.beta, omega, cut))

    energies, vectors = np.linalg.eigh(h_total)
    rho_full = np.kron(rho0, np.diag(bath_thermal).astype(complex))
    rho_tilde = vectors.conj().T @ rho_full @ vectors

    phases = np.exp(1j * np.outer(times, energies))       # (T, dim)
    v3 = vectors.reshape(n_sys, bath_dim, dim)
    states = np.empty((len(times), n_sys, n_sys), dtype=complex)
    for m in range(n_sys):
        for n in range(m, n_sys):
            overlap = v3[m].T @ v3[n].conj()              # (dim, dim)
            kernel = rho_tilde * overlap
            vals = np.einsum("td,dk,tk->t", phases, kernel,
                             phases.conj(), optimize=True)
            states[:, m, n] = vals
            if n != m:
                states[:, n, m] = vals.conj()
    return states


# =====================================================================
# Excitation-sector engine
# =====================================================================

def _sector_dimension(n_sys: int, n_modes: int, cap: int) -> int:
    return n_sys * sum(math.comb(n_modes + j - 1, j)
                       for j in range(cap + 1))


def _sector_ladder(freqs: np.ndarray, cap: int):
    """Bath states with at most ``cap`` quanta, stacked by level from
    the vacuum (index 0) up, level j as the sorted j-tuples of occupied
    modes in lexicographic order.  Returns their energies and, for every
    creation move source --a_k^dag--> target, the arrays (target,
    source, k, sqrt(n_k + 1))."""
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


def _sector_evolve(spec: SystemSpec, active, rho0, times) -> np.ndarray:
    """Chebyshev evolution in the low-excitation sector of a cold bath."""
    occupancy = _weighted_occupancy(active)
    if occupancy > SECTOR_OCCUPANCY_TOL:
        raise DimensionTooLarge(
            "state space too large for dense evolution and the bath is "
            f"too warm for the excitation-sector method (coupling-"
            f"weighted occupancy {occupancy:.2e} > "
            f"{SECTOR_OCCUPANCY_TOL:g})")

    n_sys = spec.dim
    freqs = np.concatenate([bath.mode_frequencies for _, bath in active])
    requested = min(b.fock_cutoff for _, b in active)
    caps = [k for k in range(requested, 1, -1)
            if _sector_dimension(n_sys, freqs.size, k) <= STATE_SPACE_LIMIT]
    if not caps:
        raise DimensionTooLarge(
            "even the two-excitation sector exceeds the cap "
            f"{STATE_SPACE_LIMIT} ({_sector_dimension(n_sys, freqs.size, 2)}"
            f" states for {freqs.size} modes)")
    cap = caps[0]
    if cap < requested:
        warnings.warn(
            f"excitation cap lowered from the requested {requested} to "
            f"{cap} to fit the state-space cap {STATE_SPACE_LIMIT} "
            f"(sector dimension {_sector_dimension(n_sys, freqs.size, cap)}"
            f" for {freqs.size} modes)", TruncationWarning, stacklevel=3)

    # H = diag(E_i + bath energy) + sum_r G_r (x) A_r, with A_r the real
    # symmetric ladder operator sum_k amp_k (a_k + a_k^dag) of channel r
    # on the sector
    energy, target, source, mode, factor = _sector_ladder(freqs, cap)
    n_bath = energy.size
    diag = energy[:, None] + spec.energies[None, :]
    terms, radius, coupling_norm, start = [], np.zeros_like(diag), 0.0, 0
    for term, bath in active:
        amps = term.strength * bath.mode_couplings / math.sqrt(2.0)
        own = (mode >= start) & (mode < start + bath.n_modes)
        up = scipy.sparse.csr_matrix(
            (amps[mode[own] - start] * factor[own],
             (target[own], source[own])), shape=(n_bath, n_bath))
        start += bath.n_modes
        ladder = (up + up.T).tocsr()
        terms.append((ladder, term.matrix))
        radius += np.outer(abs(ladder).sum(axis=1),
                           np.abs(term.matrix).sum(axis=1))
        # the creation part of A_r takes j quanta to j + 1 with norm at
        # most |amp| sqrt(j + 1), so |A_r| <= 2 sqrt(cap) |amp|
        coupling_norm += (2.0 * math.sqrt(cap) * np.linalg.norm(amps)
                          * np.linalg.norm(term.matrix, 2))
    # Gershgorin discs, intersected with |H - diag| <= coupling_norm
    lo = max(float(np.min(diag - radius)), diag.min() - coupling_norm)
    hi = min(float(np.max(diag + radius)), diag.max() + coupling_norm)
    return _chebyshev_states(diag, terms, lo, hi, rho0, times)


def _chebyshev_states(diag, terms, lo, hi, rho0, times) -> np.ndarray:
    """Reduced states e^{itH} rho0 e^{-itH} on the time grid for
    H Z = diag * Z + sum_r A_r Z G_r^T on (n_bath, n_sys) arrays Z with
    spectrum in [lo, hi]; rho0 sits on the bath vacuum, row 0.

    Chebyshev expansion (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967
    (1984)): exp(i dt H) = e^{i c dt} sum_k (2 - delta_k0) i^k J_k(h dt)
    T_k((H - c) / h), c and h the center and half-width of [lo, hi],
    cut where the tail falls below CHEBYSHEV_TOL.  CHEBYSHEV_OUTPUTS
    grid times share one recurrence, so the Bessel tail beyond h dt is
    paid once per group; the recurrence runs in row blocks, which stay
    in cache and keep the small coupling products single-threaded (a
    threaded BLAS costs more to wake than these products take), and its
    vectors are summed into the outputs CHEBYSHEV_BATCH at a time.
    """
    from scipy.special import jv

    n_bath, n_sys = diag.shape
    center, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    diag2 = (2.0 / half) * (diag - center)
    g2t = [(2.0 / half) * gmat.T for _, gmat in terms]
    row_blocks = [slice(a, a + SECTOR_ROW_BLOCK)
                  for a in range(0, n_bath, SECTOR_ROW_BLOCK)]
    ladder_rows = [[ladder[rows] for rows in row_blocks]
                   for ladder, _ in terms]
    # ring[2:] holds a batch of recurrence vectors, ring[:2] the two before
    ring = np.empty((CHEBYSHEV_BATCH + 2, n_bath, n_sys), dtype=complex)
    outs = np.empty((CHEBYSHEV_OUTPUTS, n_bath, n_sys), dtype=complex)

    def step(prev, cur, out):
        # out = 2 T cur - prev for T = (H - center) / half, or T cur
        for b, rows in enumerate(row_blocks):
            block = out[rows]
            np.multiply(diag2[rows], cur[rows], out=block)
            for ladders, g in zip(ladder_rows, g2t):
                # real sparse product on the interleaved re/im parts
                block += (ladders[b] @ cur.view(np.float64)) \
                    .view(np.complex128) @ g
            if prev is None:
                block *= 0.5
            else:
                block -= prev[rows]

    def propagate(vec, steps):
        """outs[j] = exp(i steps[j] H) vec from one recurrence."""
        ks = np.arange(int(1.5 * half * np.abs(steps).max()) + 40)
        table = jv(ks, half * steps[:, None]) \
            * np.array([1, 1j, -1, -1j])[ks % 4] \
            * np.where(ks > 0, 2.0, 1.0) \
            * np.exp(1j * center * steps)[:, None]
        tail = np.cumsum(np.abs(table[:, ::-1]), axis=1)[:, ::-1]
        table[tail < CHEBYSHEV_TOL] = 0.0
        n_terms = np.count_nonzero(tail >= CHEBYSHEV_TOL, axis=1).max()
        ring[2] = vec              # before outs, which may hold vec
        outs[:steps.size] = 0.0
        for k0 in range(0, n_terms, CHEBYSHEV_BATCH):
            count = min(CHEBYSHEV_BATCH, n_terms - k0)
            for slot in range(2 + (k0 == 0), 2 + count):
                step(ring[slot - 2] if k0 + slot > 3 else None,
                     ring[slot - 1], ring[slot])
            coef = table[:, k0:k0 + count]
            for rows in row_blocks:
                outs[:steps.size, rows] += (coef @ ring[2:2 + count, rows]
                                            .reshape(count, -1)) \
                    .reshape(steps.size, -1, n_sys)
            ring[:2] = ring[count:count + 2]

    states = np.zeros((len(times), n_sys, n_sys), dtype=complex)
    evals, evecs = np.linalg.eigh(rho0)
    for weight, sys_vec in zip(evals, evecs.T):
        if weight <= 1e-12:
            continue
        vec = np.zeros((n_bath, n_sys), dtype=complex)
        vec[0] = sys_vec
        t_now = 0.0
        for first in range(0, len(times), CHEBYSHEV_OUTPUTS):
            group = times[first:first + CHEBYSHEV_OUTPUTS]
            propagate(vec, group - t_now)
            for j, out in enumerate(outs[:group.size]):
                states[first + j] += weight * (out.T @ out.conj())
            vec, t_now = outs[group.size - 1], group[-1]
    return states


def _weighted_occupancy(active) -> float:
    weights = np.concatenate([b.mode_couplings ** 2 for _, b in active])
    occupancies = np.concatenate([b.occupancies() for _, b in active])
    total = float(weights.sum())
    return float(weights @ occupancies) / total if total > 0.0 else 0.0


# =====================================================================
# Entry point
# =====================================================================

def exact_evolve(spec: SystemSpec, bath, rho0, times,
                 method: str = "auto") -> Trajectory:
    """Exact reduced evolution of the system coupled to truncated
    reservoir modes.

    ``bath`` is a TruncatedBath (single coupling channel) or one bath
    per coupling term.  ``method`` selects the engine: "dense" for the
    full product space, "sector" for the low-excitation sparse space,
    "auto" to pick dense for small products and fall back to the
    sector engine otherwise.  The trajectory's ergodic mean is the
    empirical average over the second half of the time grid.
    """
    rho0 = _as_state_array(rho0)
    if rho0.shape != (spec.dim, spec.dim):
        raise ValueError("initial state dimension does not match the system")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    active = _active_channels(spec, bath)
    if not active:
        return free_evolution(spec, rho0, times)

    if method == "auto":
        product_dim = spec.dim
        for _, b in active:
            product_dim *= (b.fock_cutoff + 1) ** b.n_modes
            if product_dim > 10 * STATE_SPACE_LIMIT:
                break
        method = "dense" if product_dim <= DENSE_AUTO_LIMIT else "sector"
    if method == "dense":
        _warn_truncation([b for _, b in active])
        states = _dense_evolve(spec, active, rho0, times)
    elif method == "sector":
        states = _sector_evolve(spec, active, rho0, times)
    else:
        raise ValueError(f"unknown method {method!r}")

    return Trajectory(times=times, states=states,
                      ergodic_mean=states[len(times) // 2:].mean(axis=0))


# =====================================================================
# Pure-dephasing closed form
# =====================================================================

def dephasing_envelope(bath: TruncatedBath, g_m: float, g_n: float,
                       times) -> np.ndarray:
    """Exact bath factor of a coherence under pure dephasing.

    When the system coupling matrix is diagonal, the full Hamiltonian
    is block diagonal in the system index and each mode contributes an
    independent trace factor,

        F(t) = prod_k Tr[ e^{i t H_k(g_m)} rho_k e^{-i t H_k(g_n)} ],

    with H_k(g) = omega_k n_k + g (kappa_k/sqrt 2)(a_k + a_k^dag) on
    the truncated mode space and rho_k the truncated thermal state.
    ``g_m`` and ``g_n`` are the full diagonal coupling values (strength
    included) of the two levels.  The coherence itself is
    [rho_t]_{mn} = e^{i t (E_m - E_n)} F(t) [rho_0]_{mn}.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    envelope = np.ones(len(times), dtype=complex)
    for omega, kappa in zip(bath.mode_frequencies, bath.mode_couplings):
        number, position = _mode_operators(bath.fock_cutoff)
        h_m = omega * number + g_m * kappa * position
        h_n = omega * number + g_n * kappa * position
        rho_k = np.diag(_thermal_weights(bath.beta, omega,
                                         bath.fock_cutoff))
        em, um = np.linalg.eigh(h_m)
        en, un = np.linalg.eigh(h_n)
        weight = (um.conj().T @ rho_k @ un) * (un.conj().T @ um).T
        phase_m = np.exp(1j * np.outer(times, em))
        phase_n = np.exp(-1j * np.outer(times, en))
        envelope *= np.einsum("tp,pq,tq->t", phase_m, weight, phase_n,
                              optimize=True)
    return envelope


# =====================================================================
# Decay fitting
# =====================================================================

@dataclass(frozen=True)
class FitResult:
    """Exponential-decay fit of one matrix element.

    ``rate`` and ``frequency`` come from log-linear fits of the
    magnitude and unwrapped phase of the element minus its tail-average
    asymptote; ``residual`` is the RMS log-magnitude misfit over the
    fitted window.
    """

    rate: float
    frequency: float
    residual: float
    window: tuple

    def __post_init__(self):
        if self.rate < 0.0:
            raise ValueError("rate must be >= 0")


def fit_decay(trajectory: Trajectory, element: tuple,
              residual_threshold: float = 0.2) -> FitResult:
    """Fit |x(t) - asymptote| = C e^{-rate t} with phase drift.

    The asymptote is the average over the last quarter of the samples;
    the fit window keeps samples whose deviation exceeds 2% of the
    initial deviation (so a biased tail cannot pollute the slope).
    Raises PoorFit for too few samples, a window under two measured
    e-folds, or an RMS log-residual above ``residual_threshold``.
    """
    m, n = element
    y = trajectory.element(m, n)
    t = trajectory.times
    if len(t) < 20:
        raise PoorFit(f"{len(t)} samples; at least 20 are required")

    tail = max(5, len(t) // 4)
    asymptote = y[-tail:].mean()
    dev = y - asymptote
    amp = np.abs(dev)
    scale = float(amp.max())
    if scale <= 1e-12 * max(1.0, abs(asymptote)):
        return FitResult(rate=0.0, frequency=0.0, residual=0.0,
                         window=(float(t[0]), float(t[-1])))

    keep = amp >= 0.02 * scale
    # fit a contiguous leading window: stop at the first drop-out
    cut = np.argmin(keep) if not keep.all() else len(keep)
    if cut < 20:
        raise PoorFit(
            f"only {cut} samples before the signal reaches the tail "
            "floor; enlarge the grid density")
    tk, devk, ampk = t[:cut], dev[:cut], amp[:cut]

    efolds = math.log(ampk[0] / ampk[-1]) if ampk[-1] > 0.0 else math.inf
    if efolds < 2.0:
        raise PoorFit(
            f"window spans {efolds:.2f} e-folds; at least 2 are needed "
            "for a stable rate fit")

    log_amp = np.log(ampk)
    slope, intercept = np.polyfit(tk, log_amp, 1)
    residual = float(np.sqrt(np.mean(
        (log_amp - (slope * tk + intercept)) ** 2)))
    if residual > residual_threshold:
        raise PoorFit(
            f"RMS log-residual {residual:.3g} exceeds "
            f"{residual_threshold:g}; the window or bath resolution is "
            "inadequate")
    phase = np.unwrap(np.angle(devk))
    frequency = float(np.polyfit(tk, phase, 1)[0])
    return FitResult(rate=max(0.0, -float(slope)), frequency=frequency,
                     residual=residual,
                     window=(float(tk[0]), float(tk[-1])))


# =====================================================================
# Verification orchestrator
# =====================================================================

@dataclass(frozen=True)
class VerifyConfig:
    """Benchmark parameters for the oracle-versus-theory suite."""

    n_modes: int = 150
    omega_max: float = 3.0
    fock_cutoff: int = 3
    lambdas: tuple = (0.02,)
    rate_tolerance: float = 0.2
    num_times: int = 161
    horizon_factor: float = 5.0
    method: str = "auto"

    def __post_init__(self):
        if self.n_modes < 1 or not (self.omega_max > 0.0):
            raise ValueError("n_modes >= 1 and omega_max > 0 required")
        if self.fock_cutoff < 1:
            raise ValueError("fock_cutoff must be >= 1")
        if self.num_times < 20:
            raise ValueError("num_times must be >= 20")
        if self.method not in ("auto", "dense", "sector"):
            raise ValueError(f"method must be 'auto', 'dense' or 'sector', "
                             f"got {self.method!r}")
        object.__setattr__(self, "lambdas",
                           tuple(float(v) for v in self.lambdas))


@dataclass(frozen=True)
class VerificationCheck:
    name: str
    deviation: float
    tolerance: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list:
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = (f"{status}  {c.name}: deviation {c.deviation:.3e} "
                    f"(tolerance {c.tolerance:.3e})")
            if c.detail:
                line += f"  [{c.detail}]"
            out.append(line)
        out.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return out


def _scaled_spec(spec: SystemSpec, lam: float) -> SystemSpec:
    base = spec.overall_coupling
    if lam == 0.0:
        factor = 0.0
    elif base == 0.0:
        raise ValueError("cannot rescale a spec with zero coupling to a "
                         "nonzero lambda")
    else:
        factor = lam / base
    return replace(spec, couplings=[replace(t, strength=t.strength * factor)
                                    for t in spec.couplings])


def verify(system, config: VerifyConfig = VerifyConfig(),
           rho0=None) -> VerificationReport:
    """Run the oracle-versus-theory comparison suite.

    ``system`` is a SystemSpec or RegisterSpec; for each lambda in the
    config the coupling is rescaled, the truncated-bath oracle and the
    resonance reconstruction are both evolved from ``rho0`` (default:
    the uniform pure superposition, which populates every matrix
    element), and trajectory deviation, per-element decay rates, and
    the long-time state are compared.  The report carries one PASS/FAIL
    entry per check; nothing is raised for a failed comparison.
    """
    if isinstance(system, RegisterSpec):
        system = register_to_system(system)
    n = system.dim
    if rho0 is None:
        vec = np.ones(n) / math.sqrt(n)
        rho0 = np.outer(vec, vec).astype(complex)
    else:
        rho0 = _as_state_array(rho0)

    checks = []
    try:
        baths = [discretize_bath(t.form_factor, system.beta,
                                 config.n_modes, config.omega_max,
                                 config.fock_cutoff)
                 for t in system.couplings]
    except WeightMismatch as exc:
        return VerificationReport(checks=(VerificationCheck(
            name="bath-discretization", deviation=math.inf,
            tolerance=0.01, passed=False, detail=str(exc)),))

    for lam in config.lambdas:
        tag = f"lambda={lam:g}"
        spec = _scaled_spec(system, lam)
        resonances = resonance_energies(spec)
        gammas = [r.gamma for r in resonances if r.gamma > 0.0]
        t_rec = min(b.recurrence_time for b in baths)
        horizon = config.horizon_factor / min(gammas) if gammas else 20.0
        horizon = min(horizon, 0.7 * t_rec)
        times = np.linspace(0.0, horizon, config.num_times)

        oracle_traj = exact_evolve(spec, baths, rho0, times,
                                   method=config.method)
        recon = resonance_evolution(spec, rho0, times,
                                    resonances=resonances)

        dev = float(np.max(np.abs(oracle_traj.states - recon.states)))
        if lam == 0.0:
            tol = 1e-10
        else:
            change = float(np.max(np.abs(
                oracle_traj.states - oracle_traj.states[0][None])))
            tol = max(5.0 * lam ** 2, 0.05 * change)
        checks.append(VerificationCheck(
            name=f"{tag}:trajectory", deviation=dev, tolerance=tol,
            passed=dev <= tol))

        if lam > 0.0:
            gamma_of = {}
            for r in resonances:
                for pair in r.pairs:
                    gamma_of[pair] = r.gamma
            for (m, k), gamma in sorted(gamma_of.items()):
                if m >= k or gamma <= ZERO_RESONANCE_TOL:
                    continue
                if gamma * horizon < 2.5:
                    continue
                name = f"{tag}:rate({m},{k})"
                try:
                    fit = fit_decay(oracle_traj, (m, k))
                except PoorFit as exc:
                    checks.append(VerificationCheck(
                        name=name, deviation=math.inf,
                        tolerance=config.rate_tolerance, passed=False,
                        detail=f"PoorFit: {exc}"))
                    continue
                rel = abs(fit.rate - gamma) / gamma
                checks.append(VerificationCheck(
                    name=name, deviation=rel,
                    tolerance=config.rate_tolerance,
                    passed=rel <= config.rate_tolerance,
                    detail=f"fitted {fit.rate:.4e} vs {gamma:.4e}"))

            theory_mean = recon.ergodic_mean
            dev_mean = float(np.max(np.abs(
                oracle_traj.ergodic_mean - theory_mean)))
            tol_mean = max(0.05, 5.0 * lam ** 2)
            checks.append(VerificationCheck(
                name=f"{tag}:ergodic", deviation=dev_mean,
                tolerance=tol_mean, passed=dev_mean <= tol_mean))
    return VerificationReport(checks=tuple(checks))
