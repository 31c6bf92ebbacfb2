"""Bohr-frequency groups, level-shift matrices, resonance energies and
decay rates.

Matrix elements (m, n) of the reduced density matrix are labelled by
their Bohr frequency e = E_m - E_n; all pairs sharing an e (up to a
clustering tolerance) form a group, one read-only (d, 2) integer array
of pairs in lexicographic order, whose elements rho[pairs[:, 0],
pairs[:, 1]] evolve jointly under its second-order level-shift matrix:

    L_e[(m,n),(k,l)] = i K[m,k] delta_{nl} [E_m = E_k]
                     + i conj(K[n,l]) delta_{mk} [E_n = E_l]
                     - i pi D(E_k - E_m) G[m,k] G[l,n]

with K[m,k] = sum_j G[m,j] G[j,k] W(E_m - E_j), W the one-sided
reservoir correlation transform and D the signed thermal spectral
density (reservoir module).  Several coupling channels add with weights
(strength_r / lam)^2 where lam = max_r |strength_r|.  Eigenvalues
delta_e^(s) of L_e give resonance energies
eps_e^(s) = e + lam^2 delta_e^(s); the group decay rate is the smallest
Im eps over the nonzero resonance energies.

Inside a group the brackets are implied: pairs (m,n) and (k,n) of one
group have E_m = E_k, and pairs (m,n) and (m,l) have E_n = E_l.  So the
K terms read group membership alone, and the clustering of
``bohr_spectrum`` is the one judge of equal energies.

Each channel's K and D tables are built once per spec, each channel's
matrices are assembled once per group, and all groups of one size are
diagonalized in one batched call.  Channel mixes of the same spec
(the register's channel attribution) share all of that and differ only
in the weighted sum that is diagonalized.  Output is in sorted-e order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AmbiguousClustering,
    DefectiveLevelShift,
    DimensionMismatch,
)
from .model import SystemSpec, _positive
from .reservoir import _half_line_transforms, thermal_spectral_density

__all__ = [
    "ResonanceData",
    "NonoverlapReport",
    "bohr_spectrum",
    "default_cluster_tolerance",
    "level_shift_operator",
    "resonance_energies",
    "check_nonoverlap",
]

#: a resonance energy is treated as exactly zero below this modulus
ZERO_RESONANCE_TOL = 1e-12
#: eigenvalue distinctness tolerance when counting the splitting
DISTINCTNESS_TOL = 1e-10
#: eigenvector-basis condition number above which a level-shift matrix
#: is reported as non-diagonalizable
DEFECTIVE_COND = 1e8


# =====================================================================
# Bohr spectrum
# =====================================================================

def default_cluster_tolerance(energies: np.ndarray) -> float:
    """1e-9 times the largest level spacing magnitude, floored at 1e-12."""
    energies = np.asarray(energies, dtype=float)
    spread = float(energies.max() - energies.min()) if energies.size else 0.0
    return max(1e-9 * spread, 1e-12)


def bohr_spectrum(spec: SystemSpec, tol: float | None = None) -> dict:
    """Cluster all energy differences E_m - E_n into Bohr groups.

    Returns a dict mapping each representative Bohr frequency e to a
    read-only (d, 2) integer array of the 0-based index pairs (m, n)
    with E_m - E_n = e up to the clustering tolerance, in lexicographic
    order.  The e = 0 group always contains all diagonal pairs.

    Single-linkage clustering: sorted differences are split wherever the
    gap exceeds ``tol``.  The representative frequency is the cluster
    mean, snapped to exactly 0.0 for the cluster containing the
    diagonal pairs (whose differences are exactly 0.0).  Raises
    AmbiguousClustering when two distinct clusters approach each other
    within 10*tol, and ValidationError when tol is not finite and > 0.
    """
    if tol is None:
        tol = default_cluster_tolerance(spec.energies)
    _positive(tol, "tol")
    n = spec.dim
    e_vals = spec.energies
    diffs = (e_vals[:, None] - e_vals[None, :]).ravel()

    order = np.argsort(diffs, kind="stable")
    sorted_diffs = diffs[order]
    gaps = np.diff(sorted_diffs)
    boundaries = np.nonzero(gaps > tol)[0]
    starts = np.concatenate(([0], boundaries + 1))
    ends = np.concatenate((boundaries + 1, [len(sorted_diffs)]))

    # stability guard: neighbouring clusters must be separated by a
    # comfortable multiple of the tolerance
    close = gaps[boundaries] < 10.0 * tol
    if close.any():
        gap = gaps[boundaries[np.argmax(close)]]
        raise AmbiguousClustering(
            "energy-difference clusters separated by only "
            f"{gap:.3e} (tolerance {tol:.3e}); grouping is unstable")

    # flat indices m*n + k sorted within each cluster: lexicographic
    cluster = np.repeat(np.arange(len(starts)), ends - starts)
    pairs = np.stack(divmod(order[np.lexsort((order, cluster))], n), axis=1)
    pairs.flags.writeable = False
    # the cluster holding the exact 0.0 of every diagonal difference
    zero = cluster[np.searchsorted(sorted_diffs, 0.0)]

    # cluster means, one batch per cluster size: a row mean sums in the
    # same pairwise order as the mean of the 1-d slice.  The sizes come
    # from bincount; np.unique would import numpy.ma (10 ms per process)
    sizes = ends - starts
    reps = np.empty(len(starts))
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        which = np.nonzero(sizes == size)[0]
        reps[which] = sorted_diffs[starts[which, None]
                                   + np.arange(size)].mean(axis=1)
    reps[zero] = 0.0
    return {e_rep: pairs[a:b] for e_rep, a, b
            in zip(reps.tolist(), starts.tolist(), ends.tolist())}


# =====================================================================
# Level-shift assembly
# =====================================================================

def _channel_tables(spec: SystemSpec, mixes) -> list:
    """Tables of every channel that some mix switches on, built once.

    ``mixes`` holds one strength per coupling term for each channel
    mix.  Each entry is (r, G, K, D) for coupling term r: its matrix G,
    K[m, k] = sum_j G[m, j] G[j, k] W(E_m - E_j), and the density table
    D[a, b] = D(E_b - E_a) on G's support (zero elsewhere), the only
    entries any group's jump term reads.  Gaps are rounded to 1e-12, so
    gaps equal up to clustering noise share one W and one D value.  D
    is evaluated once per key; D(-k) is read from key -k, which G's
    exactly Hermitian support (see CouplingTerm) always holds.
    """
    E = spec.energies
    tables = []
    for r, term in enumerate(spec.couplings):
        if all(mix[r] == 0.0 for mix in mixes):
            continue
        ff = term.form_factor
        G = term.matrix
        m, j = np.nonzero(np.abs(G) > 0.0)
        gaps = [round(g, 12) for g in (E[m] - E[j]).tolist()]
        keys = sorted(set(gaps))
        density = {k: thermal_spectral_density(ff, spec.beta, k)
                   for k in keys}
        w_of = dict(zip(keys, _half_line_transforms(
            ff, spec.beta, keys, list(density.values()))))
        d_of = {k: density[-k] for k in keys}
        W = np.zeros_like(G)
        D = np.zeros(G.shape)
        W[m, j] = [w_of[g] for g in gaps]
        D[m, j] = [d_of[g] for g in gaps]
        tables.append((r, G, (G * W) @ G, D))
    return tables


def _channel_level_shifts(tables, pairs: np.ndarray) -> dict:
    """Level-shift matrices of each channel on a stack of same-size Bohr
    groups.  ``pairs`` has shape (groups, d, 2); returns
    {r: (groups, d, d) array} keyed like ``_channel_tables``."""
    m_idx, n_idx = pairs[..., 0], pairs[..., 1]
    mm = (m_idx[:, :, None], m_idx[:, None, :])
    nn = (n_idx[:, :, None], n_idx[:, None, :])
    same_m = mm[0] == mm[1]
    same_n = nn[0] == nn[1]

    out = {}
    for r, G, K, D in tables:
        lam_mat = np.zeros(same_m.shape, dtype=complex)
        lam_mat += 1j * K[mm] * same_n
        lam_mat += 1j * np.conj(K[nn]) * same_m
        # amp[g, p, q] = G[m_p, m_q] * G[n_q, n_p]
        amp = G[mm] * G[nn[::-1]]
        nzj = np.abs(amp) > 0.0
        hit = nzj.any(axis=(1, 2))
        dens = np.where(nzj[hit], D[mm][hit], 0.0)
        lam_mat[hit] -= 1j * np.pi * dens * amp[hit]
        out[r] = lam_mat
    return out


def _mixed_level_shift(parts: dict, tables, strengths, shape) -> tuple:
    """(lam, stack) of one channel mix: lam = max_r |strength_r| and the
    channel matrices added in channel order with weights
    (strength_r / lam)^2."""
    lam = max((abs(s) for s in strengths), default=0.0)
    out = np.zeros(shape, dtype=complex)
    if lam != 0.0:
        for r, *_ in tables:
            if strengths[r] != 0.0:
                out += (strengths[r] / lam) ** 2 * parts[r]
    return lam, out


def level_shift_operator(spec: SystemSpec, group) -> np.ndarray:
    """The second-order level-shift matrix on one Bohr group.

    ``group`` is a (d, 2) array of index pairs and must be a group of
    ``bohr_spectrum(spec)``: its membership decides which levels count
    as degenerate.  Channels are summed with weights
    (strength_r / lam)^2, lam = max_r |strength_r|.
    """
    strengths = [term.strength for term in spec.couplings]
    tables = _channel_tables(spec, [strengths])
    pairs = np.asarray(group, dtype=int).reshape(1, -1, 2)
    d = pairs.shape[1]
    parts = _channel_level_shifts(tables, pairs)
    return _mixed_level_shift(parts, tables, strengths, (1, d, d))[1][0]


# =====================================================================
# Resonance data
# =====================================================================

def _coinciding(deltas: np.ndarray) -> np.ndarray:
    """The (..., d, d) mask of level shifts that coincide, for a stack
    (..., d) of deltas: |delta_i - delta_j| <= DISTINCTNESS_TOL, with
    the diagonal set.  The one judge of which shifts share a mode."""
    close = np.abs(deltas[..., :, None] - deltas[..., None, :]) \
        <= DISTINCTNESS_TOL
    close |= np.eye(deltas.shape[-1], dtype=bool)
    return close


@dataclass(frozen=True)
class ResonanceData:
    """Spectral data of one Bohr group.

    ``pairs`` is the group's read-only (d, 2) array of index pairs;
    epsilons[s] = e + lam^2 * deltas[s]; the columns of right_vectors
    are eigenvectors of ``level_shift_operator(spec, pairs)``; gamma =
    min Im eps over resonance energies with |eps| > 1e-12, or 0.0 when
    there is none.  ``classes`` groups the indices of coinciding deltas
    and ``nu`` counts them.
    """

    e: float
    pairs: np.ndarray
    deltas: np.ndarray
    epsilons: np.ndarray
    right_vectors: np.ndarray
    gamma: float

    @cached_property
    def classes(self) -> tuple:
        """Index arrays of the distinct deltas: in sorted order, each
        delta joins the first class whose first member coincides with
        it (``_coinciding``), or opens a new class."""
        close = _coinciding(self.deltas)
        free = np.ones(len(self.deltas), dtype=bool)
        classes = []
        while free.any():
            members = free & close[np.argmax(free)]
            classes.append(np.flatnonzero(members))
            free &= ~members
        return tuple(classes)

    @property
    def nu(self) -> int:
        """Number of distinct deltas at tolerance DISTINCTNESS_TOL."""
        return len(self.classes)


def _plain_diagonal(lam_mats: np.ndarray) -> np.ndarray:
    """Mask of the stacked matrices whose off-diagonal entries are all
    exactly zero and whose diagonal is finite: every size-1 group, and
    every group that only a diagonal channel couples."""
    d = lam_mats.shape[-1]
    off = (lam_mats != 0) & ~np.eye(d, dtype=bool)
    return ~off.any(axis=(-2, -1)) & np.isfinite(
        np.diagonal(lam_mats, axis1=-2, axis2=-1)).all(axis=-1)


def _diagonalize_groups(es, groups, lam_mats: np.ndarray,
                        lam: float) -> list:
    """ResonanceData of same-size Bohr groups, sorted by e, from their
    stacked level-shift matrices (one batched eigendecomposition).

    A diagonal matrix (``_plain_diagonal``) takes its diagonal and the
    identity basis, which are LAPACK's eig results bit for bit (as long
    as no entry is so large or small that eig rescales the matrix), and
    is never defective.  Raises DefectiveLevelShift naming the first
    other group whose eigenvector basis has condition number above
    DEFECTIVE_COND.
    """
    plain = _plain_diagonal(lam_mats)
    deltas = np.diagonal(lam_mats, axis1=-2, axis2=-1).astype(complex)
    vr = np.zeros(lam_mats.shape, dtype=complex)
    vr[plain] = np.eye(lam_mats.shape[-1])
    hard = np.flatnonzero(~plain)
    if hard.size:
        hard_deltas, hard_vr = np.linalg.eig(lam_mats[hard])
        cond = np.linalg.cond(hard_vr)
        defective = ~np.isfinite(cond) | (cond > DEFECTIVE_COND)
        if defective.any():
            i = int(np.argmax(defective))
            raise DefectiveLevelShift(
                f"level-shift matrix of group e = {es[hard[i]]:.6g} has "
                f"eigenvector condition number {cond[i]:.3e} "
                f"(> {DEFECTIVE_COND:.0e})")
        deltas[hard], vr[hard] = hard_deltas, hard_vr
    order = np.lexsort((deltas.imag.round(12), deltas.real.round(12)),
                       axis=-1)
    deltas = np.take_along_axis(deltas, order, axis=-1)
    vr = np.take_along_axis(vr, order[:, None, :], axis=-1)
    epsilons = np.asarray(es, dtype=float)[:, None] + lam ** 2 * deltas
    nonzero = np.abs(epsilons) > ZERO_RESONANCE_TOL
    gammas = np.where(nonzero, epsilons.imag, np.inf).min(axis=1)
    gammas[~nonzero.any(axis=1)] = 0.0
    return [ResonanceData(e=e, pairs=groups[i], deltas=deltas[i],
                          epsilons=epsilons[i], right_vectors=vr[i],
                          gamma=float(gammas[i]))
            for i, e in enumerate(es)]


def _resonance_mixes(spec: SystemSpec, mixes, spectrum: dict) -> list:
    """``resonance_energies`` for several channel mixes of one spec.

    ``mixes`` is a list of strength vectors, one strength per coupling
    term of ``spec`` (a zero switches the channel off).  The groups of
    ``spectrum`` (the caller's ``bohr_spectrum(spec)``), the channel
    tables and each channel's matrices are shared by all mixes; only
    the weighted sums are diagonalized per mix.  The groups of one size
    are one batch, so a ``spectrum`` that keeps whole size classes of
    ``bohr_spectrum(spec)`` gives their data bit-identical to a full
    pass.  Returns one sorted-e list of ResonanceData per mix.
    """
    tables = _channel_tables(spec, mixes)
    keys = sorted(spectrum)
    by_size: dict = {}
    for e in keys:
        by_size.setdefault(len(spectrum[e]), []).append(e)
    results = [{} for _ in mixes]
    for es in by_size.values():
        groups = [spectrum[e] for e in es]
        pairs = np.stack(groups)
        parts = _channel_level_shifts(tables, pairs)
        shape = (len(es), pairs.shape[1], pairs.shape[1])
        for found, strengths in zip(results, mixes):
            lam, lam_mats = _mixed_level_shift(parts, tables, strengths,
                                               shape)
            found.update(zip(es, _diagonalize_groups(es, groups, lam_mats,
                                                     lam)))
    return [[found[e] for e in keys] for found in results]


def resonance_energies(spec: SystemSpec, tol: float | None = None,
                       parallel: int | None = None) -> list:
    """Level-shift matrices, resonance energies and decay rates for
    every Bohr group, sorted by Bohr frequency.

    ``parallel`` is accepted for compatibility and ignored: the groups
    are diagonalized in batches in one thread.
    """
    strengths = [term.strength for term in spec.couplings]
    return _resonance_mixes(spec, [strengths], bohr_spectrum(spec, tol))[0]


# =====================================================================
# Non-overlap diagnostic
# =====================================================================

@dataclass(frozen=True)
class NonoverlapReport:
    """Scale separation between Bohr-frequency gaps and second-order
    shifts: margin = min gap / max |lam^2 delta|; PASS at margin >= 10."""

    margin: float
    min_gap: float
    max_shift: float
    passed: bool


def _check_cover(resonances: list, dim: int) -> None:
    """Raise DimensionMismatch unless the groups' pairs cover each
    element of a dim x dim matrix exactly once, as the groups of one
    dim-level spec do."""
    pairs = np.concatenate([r.pairs for r in resonances]
                           or [np.empty((0, 2), dtype=int)])
    if not (len(pairs) == dim * dim and pairs.min(initial=0) >= 0
            and pairs.max(initial=0) < dim
            and np.all(np.bincount(pairs[:, 0] * dim + pairs[:, 1]) == 1)):
        raise DimensionMismatch(
            f"the resonance groups do not cover the {dim}x{dim} "
            f"elements of this spec exactly once")


def check_nonoverlap(spec: SystemSpec,
                     resonances: list | None = None) -> NonoverlapReport:
    """The non-overlapping-resonances margin of ``resonances``
    (default ``resonance_energies(spec)``).  A list whose groups do not
    cover the spec's elements exactly once raises DimensionMismatch."""
    if resonances is None:
        resonances = resonance_energies(spec)
    else:
        _check_cover(resonances, spec.dim)
    es = np.array([r.e for r in resonances])
    if len(es) < 2:
        min_gap = np.inf
    else:
        min_gap = float(np.diff(np.sort(es)).min())
    lam = spec.overall_coupling
    shifts = np.concatenate([r.deltas for r in resonances])
    max_shift = float(np.max(np.abs(lam ** 2 * shifts), initial=0.0))
    margin = np.inf if max_shift == 0.0 else min_gap / max_shift
    return NonoverlapReport(margin=float(margin), min_gap=min_gap,
                            max_shift=float(max_shift),
                            passed=bool(margin >= 10.0))
