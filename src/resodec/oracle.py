"""Brute-force verification against a truncated multimode reservoir.

The continuum reservoir is replaced by M discrete bosonic modes on a
uniform frequency grid; the coupled system-plus-modes Hamiltonian is
then evolved exactly and the reduced system state extracted by partial
trace.  Nothing from the perturbative pipeline enters: this module only
shares the model types and the spectral weight J of the form factor,
whose integral (a closed form) gates the grid, so agreement between
the two is a genuine cross-check.

Discretization: a mode at omega_k carries squared coupling
kappa_k^2 = J(omega_k) * d_omega, where J is the one-sided emission
density (including the angular 4*pi factor), and enters the interaction
through the position quadrature, lambda G (x) sum_k (kappa_k/sqrt 2)
(a_k + a_k^dag).  With this normalization the golden-rule decay rate of
a qubit reproduces lambda^2 pi |c|^2 xi(Delta) in the continuum limit.

One evolution engine, the excitation sector: the bath starts in its
vacuum and the state space is cut at a total excitation number K.  A
warm bath is first made a vacuum problem by thermofield doubling (de
Vega and Banuls, PRA 92, 052116 (2015); Tamascelli et al., PRL 123,
090402 (2019)): a mode at omega_k with thermal occupation n_k is
exactly a mode at omega_k with coupling kappa_k sqrt(1 + n_k) plus a
partner mode at -omega_k with coupling kappa_k sqrt(n_k), both started
in the vacuum.  Modes whose thermal weight kappa_k^2 n_k is negligible
(their sum within SECTOR_OCCUPANCY_TOL of sum kappa^2) are started in
the vacuum as they are, without a partner.  H is applied matrix-free.
Per channel, the real sparse creation half of the ladder operator,
which raises the states below the top excitation level by one quantum,
and its transpose act on the bath index; the small coupling matrix acts
on the system index of the sub-top rows only, never on the top level
that holds most of the sector.  The sparse products are scipy's
compiled kernels ``csr_matvecs`` and ``csc_matvecs``, the ones behind
``scipy.sparse``'s products, called on CSR arrays built from the
ladder, without importing the ``scipy.sparse`` package.  The state is
propagated by Chebyshev expansion inside Gershgorin spectral bounds,
and each grid state is traced down to the system as soon as it is
reached.  K is the Fock cutoff unless the sector, partner modes
included, would exceed STATE_SPACE_LIMIT; a lower K is used then and
reported with a TruncationWarning.

The pure-dephasing envelope of a diagonal coupling is the
independent-boson closed form, with no Fock cutoff.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .dynamics import Trajectory, _as_state_array, _free_states, \
    _time_grid, resonance_evolution
from .errors import (
    DimensionTooLarge,
    PoorFit,
    TruncationWarning,
    ValidationError,
    WeightMismatch,
)
from .model import FormFactor, SystemSpec, _beta, _integer, _positive, \
    _real, _reals
from .resonances import ZERO_RESONANCE_TOL, resonance_energies
from .reservoir import _radial_moment, _scipy_extension, _special_ufunc, \
    one_sided_density

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
#: no engine reads this; it is kept, at 0, only for the benchmark
#: harness's engine emulation and goes with ROADMAP item 1's rewrite
#: of that harness
DENSE_AUTO_LIMIT = 0
#: share of the summed squared coupling sum kappa^2 that the thermal
#: weights kappa^2 n of the modes started without a thermofield
#: partner may add up to
SECTOR_OCCUPANCY_TOL = 1e-3
#: bound on the dropped tail of each Chebyshev expansion
CHEBYSHEV_TOL = 1e-13
#: grid times served by one Chebyshev recurrence in the sector engine
CHEBYSHEV_OUTPUTS = 4
#: recurrence vectors summed into the outputs at once
CHEBYSHEV_BATCH = 8
#: sector rows summed into the outputs together
SECTOR_ROW_BLOCK = 8192
#: largest RMS log-residual of an accepted decay fit
FIT_RESIDUAL_LIMIT = 0.2


# =====================================================================
# Bath discretization
# =====================================================================

@dataclass(frozen=True)
class TruncatedBath:
    """A finite collection of bosonic modes standing in for the
    continuum reservoir.

    ``mode_couplings[k]`` is kappa_k, the square root of the spectral
    weight carried by mode k; the interaction amplitude of the mode is
    kappa_k / sqrt(2) through its position quadrature.  ``beta`` is
    finite and > 0, as everywhere in the package: a zero-temperature
    bath (beta = infinity) raises NonPositiveBeta.
    """

    mode_frequencies: np.ndarray
    mode_couplings: np.ndarray
    fock_cutoff: int
    beta: float

    def __post_init__(self):
        freqs = _reals(self.mode_frequencies, "mode frequencies")
        coups = _reals(self.mode_couplings, "mode couplings")
        if freqs.ndim != 1 or freqs.size < 1:
            raise ValidationError("at least one mode is required")
        if np.any(freqs <= 0.0):
            raise ValidationError("mode frequencies must be positive")
        if coups.shape != freqs.shape:
            raise ValidationError(
                "mode couplings must match the frequency grid")
        cap = _integer(self.fock_cutoff, "fock_cutoff")
        if cap < 1:
            raise ValidationError("fock_cutoff must be >= 1")
        _beta(self.beta)
        object.__setattr__(self, "mode_frequencies", freqs)
        object.__setattr__(self, "mode_couplings", coups)
        object.__setattr__(self, "fock_cutoff", cap)

    @property
    def n_modes(self) -> int:
        return self.mode_frequencies.size

    @property
    def recurrence_time(self) -> float:
        """2*pi over the smallest nonzero gap between mode frequencies
        (the spacing of a uniform grid): the horizon beyond which the
        discrete bath echoes back; infinite when all modes coincide."""
        gaps = np.diff(np.sort(self.mode_frequencies))
        gaps = gaps[gaps > 0.0]
        return 2.0 * math.pi / float(gaps.min()) if gaps.size else math.inf

    def occupancies(self) -> np.ndarray:
        """Untruncated thermal occupation number per mode (0 where
        beta * omega overflows expm1)."""
        with np.errstate(over="ignore"):
            return 1.0 / np.expm1(self.beta * self.mode_frequencies)


def discretize_bath(form_factor: FormFactor, beta: float, n_modes: int,
                    omega_max: float, fock_cutoff: int) -> TruncatedBath:
    """Midpoint discretization of the reservoir spectral weight.

    Modes sit at the midpoints of a uniform grid on (0, omega_max] and
    carry kappa_k^2 = J(omega_k) * d_omega.  The summed weight must
    reproduce the continuum integral of J over (0, omega_max], a closed
    form, within 1%, otherwise the resolution is refused.
    """
    n_modes = _integer(n_modes, "n_modes")
    if n_modes < 1:
        raise ValidationError("n_modes must be >= 1")
    _positive(omega_max, "omega_max")
    step = omega_max / n_modes
    freqs = (np.arange(n_modes) + 0.5) * step
    weights = one_sided_density(form_factor, freqs) * step
    bath = TruncatedBath(mode_frequencies=freqs,
                         mode_couplings=np.sqrt(weights),
                         fock_cutoff=fock_cutoff, beta=beta)
    if not form_factor.is_zero:
        target = _radial_moment(form_factor, 2, omega_max)
        total = float(weights.sum())
        if abs(total - target) > 0.01 * abs(target):
            raise WeightMismatch(
                f"discretized spectral weight {total:.6g} deviates from "
                f"the continuum integral {target:.6g} by more than 1% "
                f"(n_modes = {n_modes}); refine the grid")
    return bath


# =====================================================================
# Excitation-sector engine
# =====================================================================

def _active_channels(spec: SystemSpec, bath) -> list:
    """(coupling term, bath) for every coupling that acts; ``bath`` is
    one bath per coupling term, or a single bath when only one term
    couples."""
    single = isinstance(bath, TruncatedBath)
    baths = [bath] * len(spec.couplings) if single else list(bath)
    if len(baths) != len(spec.couplings):
        raise ValidationError(
            f"{len(baths)} baths supplied for {len(spec.couplings)} "
            "coupling channels")
    active = [(t, b) for t, b in zip(spec.couplings, baths)
              if t.strength != 0.0 and not t.form_factor.is_zero]
    if single and len(active) > 1:
        raise ValidationError(
            "a single bath cannot serve several active coupling "
            "channels; pass one bath per channel")
    return active


def _sector_dimension(n_sys: int, n_modes: int, cap: int) -> int:
    return n_sys * sum(math.comb(n_modes + j - 1, j)
                       for j in range(cap + 1))


def _sector_ladder(freqs: np.ndarray, cap: int):
    """Bath states with at most ``cap`` quanta, stacked by level from
    the vacuum (index 0) up, level j as the sorted j-tuples of occupied
    modes in lexicographic order.  Returns their energies and, for the
    n_low states s below the top level, the (n_low, M) move tables
    a_k^dag: s --> target[s, k] with factor[s, k] = sqrt(n_k + 1).

    A move's target is found by rank, not by search: among the sorted
    j-tuples of M modes, those that agree with (a_1, ..., a_j) before
    place i and hold v < a_i there number C(M - v + r - 1, r) for each
    v in [a_(i-1), a_i) (a_0 = 0, r = j - i places left), which sums to
    C(M - a_(i-1) + r, r + 1) - C(M - a_i + r, r + 1)."""
    n_modes = freqs.size
    level = np.zeros((1, 0), dtype=np.intp)
    energy, target, factor = [np.zeros(1)], [], []
    offset = 0
    for j in range(1, cap + 1):
        n_level = len(level)
        src = np.repeat(np.arange(n_level), n_modes)
        k = np.tile(np.arange(n_modes), n_level)
        parent = level[src]
        factor.append(np.sqrt(1.0 + np.count_nonzero(
            parent == k[:, None], axis=1)).reshape(n_level, n_modes))
        grown = np.sort(np.column_stack([parent, k]), axis=1)
        # rest[:, i] = M - a_i, with a_0 = 0 in column 0
        rest = n_modes - np.column_stack([np.zeros(len(grown), np.intp),
                                          grown])
        dest = np.zeros(len(grown), dtype=np.intp)
        for i in range(j):
            r = j - 1 - i
            count = np.array([math.comb(x + r, r + 1)
                              for x in range(n_modes + 1)], dtype=np.intp)
            dest += count[rest[:, i]] - count[rest[:, i + 1]]
        level = np.empty((math.comb(n_modes + j - 1, j), j), dtype=np.intp)
        level[dest] = grown
        offset += n_level
        target.append((offset + dest).reshape(n_level, n_modes))
        energy.append(freqs[level].sum(axis=1))
    return tuple(map(np.concatenate, (energy, target, factor)))


def _thermofield_modes(active) -> list:
    """Per active channel, the frequencies and couplings kappa of the
    modes that start in the vacuum: the bath's own modes, then the
    thermofield partners of its warm ones.

    The modes of all channels are sorted stably by their thermal weight
    kappa_k^2 n_k.  The longest prefix whose summed weight stays within
    SECTOR_OCCUPANCY_TOL * sum kappa^2 is kept as it is; every other
    mode k takes the coupling kappa_k sqrt(1 + n_k) and a partner at
    -omega_k with coupling kappa_k sqrt(n_k), appended to its own
    channel's modes so that each channel's modes stay contiguous."""
    weights = np.concatenate([b.mode_couplings ** 2 for _, b in active])
    occupancies = np.concatenate([b.occupancies() for _, b in active])
    thermal = weights * occupancies
    order = np.argsort(thermal, kind="stable")
    n_cold = np.searchsorted(np.cumsum(thermal[order]),
                             SECTOR_OCCUPANCY_TOL * weights.sum(),
                             side="right")
    warm = np.zeros(thermal.size, dtype=bool)
    warm[order[n_cold:]] = True
    modes, start = [], 0
    for _, bath in active:
        span = slice(start, start + bath.n_modes)
        pair, occ, kappa = warm[span], occupancies[span], bath.mode_couplings
        start += bath.n_modes
        modes.append((
            np.concatenate([bath.mode_frequencies,
                            -bath.mode_frequencies[pair]]),
            np.concatenate([np.where(pair, kappa * np.sqrt(1.0 + occ), kappa),
                            kappa[pair] * np.sqrt(occ[pair])])))
    return modes


def _sector_evolve(spec: SystemSpec, active, rho0, times) -> np.ndarray:
    """Chebyshev evolution in the low-excitation sector of the
    thermofield-doubled bath vacuum."""
    n_sys = spec.dim
    modes = _thermofield_modes(active)
    freqs = np.concatenate([f for f, _ in modes])
    requested = min(b.fock_cutoff for _, b in active)
    # the cap is never lowered below 2 (or below a requested 1)
    smallest = min(requested, 2)
    caps = [k for k in range(requested, smallest - 1, -1)
            if _sector_dimension(n_sys, freqs.size, k) <= STATE_SPACE_LIMIT]
    if not caps:
        raise DimensionTooLarge(
            f"even the {smallest}-excitation sector exceeds the cap "
            f"{STATE_SPACE_LIMIT} "
            f"({_sector_dimension(n_sys, freqs.size, smallest)}"
            f" states for {freqs.size} modes)")
    cap = caps[0]
    if cap < requested:
        warnings.warn(
            f"excitation cap lowered from the requested {requested} to "
            f"{cap} to fit the state-space cap {STATE_SPACE_LIMIT} "
            f"(sector dimension {_sector_dimension(n_sys, freqs.size, cap)}"
            f" for {freqs.size} modes)", TruncationWarning, stacklevel=3)

    # H = diag(E_i + bath energy) + sum_r G_r (x) (U_r + U_r^T), with U_r
    # = sum_k amp_k a_k^dag the real creation half of channel r's ladder.
    # U_r only creates, so its columns are the n_low states below the
    # top level, and U_r^T only lands on them
    sparsetools = _scipy_extension("scipy.sparse._sparsetools")
    energy, target, factor = _sector_ladder(freqs, cap)
    n_bath, n_low = energy.size, len(target)
    diag = energy[:, None] + spec.energies[None, :]
    terms, radius, coupling_norm, start = [], np.zeros_like(diag), 0.0, 0
    for (term, _), (_, kappa) in zip(active, modes):
        amps = term.strength * kappa / math.sqrt(2.0)
        own = slice(start, start + kappa.size)
        # U_r^T (n_low x n_bath) as canonical CSR arrays, which read
        # column-wise are U_r: row s holds the moves of source s by the
        # channel's own modes, whose targets rise with the mode, so the
        # columns are sorted and distinct.  The state-space limit keeps
        # every index below 2**31
        indptr = (kappa.size * np.arange(n_low + 1)).astype(np.int32)
        indices = target[:, own].ravel().astype(np.int32)
        data = (amps * factor[:, own]).ravel()
        start += kappa.size
        terms.append(((indptr, indices, data), term.matrix))
        # U_r and U_r^T share no entry, so the row sums of |U_r + U_r^T|
        # are the column sums of |U_r^T| plus its row sums on the low
        # rows, each summed in scipy.sparse's order: a product with ones
        # from zero, and a reduction over each row (none is empty)
        magnitude = np.abs(data)
        row_sums = np.zeros(n_bath)
        sparsetools.csc_matvec(n_bath, n_low, indptr, indices, magnitude,
                               np.ones(n_low), row_sums)
        row_sums[:n_low] += np.add.reduceat(magnitude, indptr[:-1])
        radius += np.outer(row_sums, np.abs(term.matrix).sum(axis=1))
        # U_r takes j quanta to j + 1 with norm at most |amp| sqrt(j + 1),
        # so |U_r + U_r^T| <= 2 sqrt(cap) |amp|
        coupling_norm += (2.0 * math.sqrt(cap) * np.linalg.norm(amps)
                          * np.linalg.norm(term.matrix, 2))
    # the ladder's index arrays would otherwise live through the recurrence
    del energy, target, factor, magnitude
    # Gershgorin discs, intersected with |H - diag| <= coupling_norm
    lo = max(float(np.min(diag - radius)), diag.min() - coupling_norm)
    hi = min(float(np.max(diag + radius)), diag.max() + coupling_norm)
    return _chebyshev_states(diag, terms, lo, hi, rho0, times)


def _real_product(kernel, up_t, array, result):
    """result = A array for a complex array, as one real product on the
    interleaved real and imaginary parts.  ``kernel`` is scipy's
    compiled ``csr_matvecs``, for A = U^T with ``up_t`` the CSR arrays
    (indptr, indices, data) of U^T, or ``csc_matvecs``, for A = U, the
    same arrays read column-wise.  The kernels add into ``result``, so
    it is zeroed first, as in ``scipy.sparse``'s product."""
    result.fill(0.0)
    kernel(result.shape[0], array.shape[0], 2 * result.shape[1], *up_t,
           array.view(np.float64).ravel(), result.view(np.float64).ravel())


def _chebyshev_states(diag, terms, lo, hi, rho0, times) -> np.ndarray:
    """Reduced states e^{itH} rho0 e^{-itH} on the time grid for
    H Z = diag * Z + sum_r (U_r + U_r^T) Z G_r^T on (n_bath, n_sys)
    arrays Z with spectrum in [lo, hi]; rho0 sits on the bath vacuum,
    row 0.

    ``terms`` holds per channel G_r and the canonical CSR arrays
    (indptr, indices, data) of the transpose U_r^T (n_low x n_bath) of
    the real creation half U_r of the bath ladder; the n_low columns of
    U_r are the states below the top excitation level, stacked first.
    H Z is applied as diag * Z + sum_r [U_r (Z[:n_low] G_r^T), plus
    (U_r^T Z) G_r^T on rows :n_low], so the system-side matrix products
    run on the n_low sub-top rows only, never on the top level that
    holds most of the sector.  The sparse products are scipy's compiled
    ``csc_matvecs`` (U_r) and ``csr_matvecs`` (U_r^T), taken from
    ``scipy.sparse._sparsetools`` without importing the ``scipy.sparse``
    package (``_scipy_extension``); each writes into a scratch array
    allocated once per run, which is then added to the output.

    Chebyshev expansion (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967
    (1984)): exp(i dt H) = e^{i c dt} sum_k (2 - delta_k0) i^k J_k(h dt)
    T_k((H - c) / h), c and h the center and half-width of [lo, hi],
    cut where the tail falls below CHEBYSHEV_TOL.  CHEBYSHEV_OUTPUTS
    grid times share one recurrence, so the Bessel tail beyond h dt is
    paid once per group; the recurrence vectors are summed into the
    outputs CHEBYSHEV_BATCH at a time, each output taking only the
    terms it needs, in row blocks of SECTOR_ROW_BLOCK so that no
    output-sized temporary is formed.  The Bessel functions J_k are
    scipy.special's ufunc ``jv``, taken from its compiled module without
    importing the ``scipy.special`` package (``_special_ufunc``).
    """
    jv = _special_ufunc("jv")
    sparsetools = _scipy_extension("scipy.sparse._sparsetools")

    n_bath, n_sys = diag.shape
    n_low = terms[0][0][0].size - 1
    center, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    diag2 = (2.0 / half) * (diag - center)
    ops = [(up_t, (2.0 / half) * gmat.T) for up_t, gmat in terms]
    row_blocks = [slice(a, a + SECTOR_ROW_BLOCK)
                  for a in range(0, n_bath, SECTOR_ROW_BLOCK)]
    # ring[2:] holds a batch of recurrence vectors, ring[:2] the two before
    ring = np.empty((CHEBYSHEV_BATCH + 2, n_bath, n_sys), dtype=complex)
    outs = np.empty((CHEBYSHEV_OUTPUTS, n_bath, n_sys), dtype=complex)
    # the sparse products' outputs, added to the step's output after
    # each product: the kernels add into their output, and summing into
    # the step's output straight away would reorder the additions
    wide = np.empty((n_bath, n_sys), dtype=complex)
    narrow = np.empty((n_low, n_sys), dtype=complex)

    def step(prev, cur, out):
        # out = 2 T cur - prev for T = (H - center) / half, or T cur
        np.multiply(diag2, cur, out=out)
        low = out[:n_low]
        for up_t, g in ops:
            _real_product(sparsetools.csc_matvecs, up_t, cur[:n_low] @ g,
                          wide)
            out += wide
            _real_product(sparsetools.csr_matvecs, up_t, cur, narrow)
            low += narrow @ g
        if prev is None:
            out *= 0.5
        else:
            out -= prev

    def propagate(vec, steps):
        """outs[j] = exp(i steps[j] H) vec from one recurrence."""
        ks = np.arange(int(1.5 * half * np.abs(steps).max()) + 40)
        table = jv(ks, half * steps[:, None]) \
            * np.array([1, 1j, -1, -1j])[ks % 4] \
            * np.where(ks > 0, 2.0, 1.0) \
            * np.exp(1j * center * steps)[:, None]
        tail = np.cumsum(np.abs(table[:, ::-1]), axis=1)[:, ::-1]
        table[tail < CHEBYSHEV_TOL] = 0.0
        needed = np.count_nonzero(tail >= CHEBYSHEV_TOL, axis=1)
        n_terms = needed.max()
        ring[2] = vec              # before outs, which may hold vec
        outs[:steps.size] = 0.0
        for k0 in range(0, n_terms, CHEBYSHEV_BATCH):
            count = min(CHEBYSHEV_BATCH, n_terms - k0)
            for slot in range(2 + (k0 == 0), 2 + count):
                step(ring[slot - 2] if k0 + slot > 3 else None,
                     ring[slot - 1], ring[slot])
            # outputs from the first that still takes terms at k0 on
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
        for first in range(0, len(times), CHEBYSHEV_OUTPUTS):
            group = times[first:first + CHEBYSHEV_OUTPUTS]
            propagate(vec, group - t_now)
            for j, out in enumerate(outs[:group.size]):
                states[first + j] += weight * (out.T @ out.conj())
            vec, t_now = outs[group.size - 1], group[-1]
    return states


# =====================================================================
# Entry point
# =====================================================================

def exact_evolve(spec: SystemSpec, bath, rho0, times) -> Trajectory:
    """Exact reduced evolution of the system coupled to truncated
    reservoir modes in their thermal state.

    ``bath`` is a TruncatedBath (single coupling channel) or one bath
    per coupling term.  ``rho0`` may be any Hermitian matrix, not only
    a density matrix: the evolution is linear in it.  The trajectory's
    ergodic mean is the empirical average over the second half of the
    time grid, so an empty grid raises ValidationError.
    """
    rho0 = _as_state_array(rho0, spec.dim)
    if not np.all(np.abs(rho0 - rho0.conj().T) <= 1e-10):
        raise ValidationError(
            "the initial matrix must be finite and Hermitian")
    times = _time_grid(times)
    if len(times) == 0:
        raise ValidationError(
            "times must hold at least one time: the ergodic mean "
            "averages the second half of the grid")
    active = _active_channels(spec, bath)
    states = _sector_evolve(spec, active, rho0, times) if active \
        else _free_states(spec.energies, rho0, times)
    return Trajectory(times=times, states=states,
                      ergodic_mean=states[len(times) // 2:].mean(axis=0))


# =====================================================================
# Pure-dephasing closed form
# =====================================================================

def dephasing_envelope(bath: TruncatedBath, g_m: float, g_n: float,
                       times) -> np.ndarray:
    """Exact bath factor of a coherence under pure dephasing.

    When the system coupling matrix is diagonal, the full Hamiltonian
    is block diagonal in the system index and each mode, started in its
    thermal state, contributes an independent-boson factor:

        F(t) = exp sum_k [ -((g_m - g_n) c_k / omega_k)^2
                             coth(beta omega_k / 2) (1 - cos omega_k t)
                           - i (g_m^2 - g_n^2) (c_k / omega_k)^2
                             (omega_k t - sin omega_k t) ],

    with c_k = kappa_k / sqrt 2 and no Fock cutoff.  ``g_m`` and ``g_n``
    are the full diagonal coupling values (strength included) of the two
    levels.  The coherence itself is
    [rho_t]_{mn} = e^{i t (E_m - E_n)} F(t) [rho_0]_{mn}.
    """
    _real(g_m, "g_m")
    _real(g_n, "g_n")
    times = _time_grid(times)
    omega = bath.mode_frequencies
    ratio = (bath.mode_couplings / math.sqrt(2.0) / omega) ** 2
    phase = np.outer(times, omega)
    exponent = ((g_m - g_n) ** 2 * (1.0 - np.cos(phase))
                @ (ratio / np.tanh(0.5 * bath.beta * omega))
                + 1j * (g_m ** 2 - g_n ** 2)
                * ((phase - np.sin(phase)) @ ratio))
    return np.exp(-exponent)


# =====================================================================
# Decay fitting
# =====================================================================

@dataclass(frozen=True)
class FitResult:
    """Exponential-decay fit of one matrix element.

    ``rate`` comes from a log-linear fit of the magnitude of the element
    minus its tail-average asymptote; ``residual`` is the RMS
    log-magnitude misfit over the fitted window.
    """

    rate: float
    residual: float

    def __post_init__(self):
        rate = _real(self.rate, "rate")
        if rate < 0.0:
            raise ValidationError(f"rate must be >= 0, got {rate!r}")
        object.__setattr__(self, "rate", rate)


def fit_decay(trajectory: Trajectory, element: tuple) -> FitResult:
    """Fit |x(t) - asymptote| = C e^{-rate t}.

    The asymptote is the average over the last quarter of the samples;
    the fit window keeps samples whose deviation exceeds 2% of the
    initial deviation (so a biased tail cannot pollute the slope).
    Raises PoorFit for too few samples, a window under two measured
    e-folds, or an RMS log-residual above ``FIT_RESIDUAL_LIMIT``.
    """
    m, n = element
    y = trajectory.element(m, n)
    t = trajectory.times
    if len(t) < 20:
        raise PoorFit(f"{len(t)} samples; at least 20 are required")

    tail = max(5, len(t) // 4)
    asymptote = y[-tail:].mean()
    amp = np.abs(y - asymptote)
    scale = float(amp.max())
    if scale <= 1e-12 * max(1.0, abs(asymptote)):
        return FitResult(rate=0.0, residual=0.0)

    keep = amp >= 0.02 * scale
    # fit a contiguous leading window: stop at the first drop-out
    cut = np.argmin(keep) if not keep.all() else len(keep)
    if cut < 20:
        raise PoorFit(
            f"only {cut} samples before the signal reaches the tail "
            "floor; enlarge the grid density")
    tk, ampk = t[:cut], amp[:cut]

    efolds = math.log(ampk[0] / ampk[-1]) if ampk[-1] > 0.0 else math.inf
    if efolds < 2.0:
        raise PoorFit(
            f"window spans {efolds:.2f} e-folds; at least 2 are needed "
            "for a stable rate fit")

    log_amp = np.log(ampk)
    slope, intercept = np.polyfit(tk, log_amp, 1)
    residual = float(np.sqrt(np.mean(
        (log_amp - (slope * tk + intercept)) ** 2)))
    if residual > FIT_RESIDUAL_LIMIT:
        raise PoorFit(
            f"RMS log-residual {residual:.3g} exceeds "
            f"{FIT_RESIDUAL_LIMIT:g}; the window or bath resolution is "
            "inadequate")
    return FitResult(rate=max(0.0, -float(slope)), residual=residual)


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

    def __post_init__(self):
        for name, least in (("n_modes", 1), ("fock_cutoff", 1),
                            ("num_times", 20)):
            value = _integer(getattr(self, name), name)
            if value < least:
                raise ValidationError(f"{name} must be >= {least}")
            object.__setattr__(self, name, value)
        for name in ("omega_max", "rate_tolerance", "horizon_factor"):
            _positive(getattr(self, name), name)
        lambdas = tuple(_reals(self.lambdas, "lambdas", ndim=1).tolist())
        if not lambdas:
            raise ValidationError("lambdas must be a nonempty sequence of "
                                  f"couplings, got {self.lambdas!r}")
        object.__setattr__(self, "lambdas", lambdas)


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
        raise ValidationError("cannot rescale a spec with zero coupling "
                              "to a nonzero lambda")
    else:
        factor = lam / base
    return replace(spec, couplings=[replace(t, strength=t.strength * factor)
                                    for t in spec.couplings])


def verify(system: SystemSpec, config: VerifyConfig = VerifyConfig(),
           rho0=None) -> VerificationReport:
    """Run the oracle-versus-theory comparison suite.

    ``system`` is a SystemSpec (lower a register with
    ``register_to_system`` first); for each lambda in the config the
    coupling is rescaled, the truncated-bath oracle and the
    resonance reconstruction are both evolved from ``rho0`` (default:
    the uniform pure superposition, which populates every matrix
    element), and trajectory deviation, per-element decay rates, and
    the long-time state are compared.  The report carries one PASS/FAIL
    entry per check; nothing is raised for a failed comparison.  A
    nonzero lambda on a system whose coupling strengths are all zero
    raises ValidationError before any bath is discretized.
    """
    n = system.dim
    if rho0 is None:
        vec = np.ones(n) / math.sqrt(n)
        rho0 = np.outer(vec, vec).astype(complex)
    else:
        rho0 = _as_state_array(rho0, n)

    specs = [_scaled_spec(system, lam) for lam in config.lambdas]
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

    for lam, spec in zip(config.lambdas, specs):
        tag = f"lambda={lam:g}"
        resonances = resonance_energies(spec)
        gammas = [r.gamma for r in resonances if r.gamma > 0.0]
        t_rec = min(b.recurrence_time for b in baths)
        horizon = config.horizon_factor / min(gammas) if gammas else 20.0
        horizon = min(horizon, 0.7 * t_rec)
        times = np.linspace(0.0, horizon, config.num_times)

        oracle_traj = exact_evolve(spec, baths, rho0, times)
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

        if lam != 0.0:
            gamma_of = np.zeros((n, n))
            for r in resonances:
                gamma_of[r.pairs[:, 0], r.pairs[:, 1]] = r.gamma
            for m, k in combinations(range(n), 2):
                gamma = float(gamma_of[m, k])
                if gamma <= ZERO_RESONANCE_TOL:
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
