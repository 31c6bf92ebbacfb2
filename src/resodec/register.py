"""Qubit-register specialization: Bohr frequencies of configuration
pairs, Hamming data, generic-field diagnostics, per-group decoherence
rates with channel attribution, and system-size scaling studies.

A register of N qubits couples collectively to two reservoirs: a
dephasing channel through the total magnetization (conserving the
register energy when the internal couplings vanish) and an exchange
channel through the total spin-flip operator.  Matrix elements are
labelled by configuration pairs (sigma, tau) in {+1,-1}^N; the pair's
Bohr frequency, Hamming distance D = sum |sigma_j - tau_j| and
magnetization difference e0 = sum (sigma_j - tau_j) organize the decay
rates.  Channel attribution is operational: the rates of the register
with both channels, with the dephasing channel only and with the
exchange channel only come from one resonance-pipeline pass that shares
the Bohr groups and each channel's level-shift matrices across the
three mixes; the cross contribution is the difference.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import BadConfiguration, RegisterTooLarge, \
    TooLargeForExhaustiveCheck
from .model import (
    MAX_QUBITS,
    FormFactor,
    RegisterSpec,
    _check_configuration,
    energy_of_configuration,
    register_to_system,
    spin_configuration,
)
from .resonances import _resonance_mixes

__all__ = [
    "PairLabel",
    "RateReport",
    "GenericFieldReport",
    "RegisterTemplate",
    "ScalingRow",
    "ScalingTable",
    "register_bohr",
    "hamming_and_e0",
    "generic_field_check",
    "decoherence_rates",
    "scaling_study",
]


# =====================================================================
# Configuration pairs
# =====================================================================

@dataclass(frozen=True)
class PairLabel:
    """A pair of spin configurations labelling one matrix element."""

    sigma: tuple
    tau: tuple

    def __post_init__(self):
        if len(self.sigma) != len(self.tau):
            raise BadConfiguration("configurations must have equal length")


def register_bohr(reg: RegisterSpec, sigma, tau) -> float:
    """Bohr frequency e(sigma, tau) = E(sigma) - E(tau) of a register
    matrix element; computed exactly as the energy difference."""
    return energy_of_configuration(reg, sigma) \
        - energy_of_configuration(reg, tau)


def hamming_and_e0(sigma, tau) -> tuple:
    """(D, e0, N0): Hamming distance D = sum |sigma_j - tau_j|,
    magnetization difference e0 = sum (sigma_j - tau_j), and the count
    N0 of agreeing positions.  D + 2 N0 = 2 N always holds."""
    sigma = _check_configuration(sigma)
    tau = _check_configuration(tau)
    if len(sigma) != len(tau):
        raise BadConfiguration("configurations must have equal length")
    d = int(np.abs(sigma - tau).sum())
    e0 = int((sigma - tau).sum())
    n0 = int(np.count_nonzero(sigma == tau))
    assert d + 2 * n0 == 2 * len(sigma)
    return d, e0, n0


# =====================================================================
# Generic-field check
# =====================================================================

@dataclass(frozen=True)
class GenericFieldReport:
    """Result of the integer-relation scan over the field values.

    ``passed`` is True when no nonzero integer vector n with entries in
    {-n_max..n_max} annihilates B; otherwise ``witness`` holds one such
    vector (degenerate fields merge Bohr groups).
    """

    passed: bool
    witness: tuple | None = None


def generic_field_check(B, n_max: int = 2) -> GenericFieldReport:
    """Exhaustively scan integer combinations of the field values.

    FAIL with a witness when some nonzero n in {0,+-1,..,+-n_max}^N has
    |sum_j B_j n_j| <= 1e-12 max|B|; registers beyond N = 12 are
    rejected (the scan is exponential).
    """
    B = np.asarray(B, dtype=float)
    n = B.size
    if n > 12:
        raise TooLargeForExhaustiveCheck(
            f"generic-field scan is exhaustive over (2 n_max + 1)^N "
            f"vectors; N = {n} > 12 is not supported")
    scale = float(np.max(np.abs(B))) if n else 0.0
    threshold = 1e-12 * scale
    # small entries first, so a returned witness is a simplest relation
    values = [0]
    for k in range(1, n_max + 1):
        values.extend((k, -k))
    for vec in product(values, repeat=n):
        if all(v == 0 for v in vec):
            continue
        if abs(float(np.dot(B, vec))) <= threshold:
            return GenericFieldReport(passed=False, witness=vec)
    return GenericFieldReport(passed=True, witness=None)


# =====================================================================
# Decoherence rates with channel attribution
# =====================================================================

@dataclass(frozen=True)
class RateReport:
    """Decay data of one register Bohr group.

    ``gamma`` is the full two-channel rate; ``gamma_conserving`` and
    ``gamma_exchange`` are the rates with the other channel switched
    off, and ``gamma_cross`` is the remainder.  ``e0`` and ``hamming``
    are those of the group's first configuration pair; ``merged`` is
    True when the group's pairs do not all share them (a degenerate
    field merges groups).
    """

    e: float
    gamma: float
    gamma_conserving: float
    gamma_exchange: float
    gamma_cross: float
    e0: int
    hamming: int
    group_pairs: tuple
    merged: bool


def decoherence_rates(reg: RegisterSpec, tol: float | None = None,
                      parallel: int | None = None) -> list:
    """Per-group decay rates of a register, attributed by channel.

    The resonance data of both channels, of the conserving channel
    alone and of the exchange channel alone come from one pass; the
    Bohr groups coincide because they depend only on the energies.
    Warns when the field values fail the generic check (groups merge)
    -- the rates are still computed for the merged groups, which
    ``RateReport.merged`` flags.  A register above MAX_QUBITS raises
    RegisterTooLarge before any work.  ``parallel`` is accepted for
    compatibility and ignored.
    """
    spec = register_to_system(reg)
    field_ok = generic_field_check(reg.B)
    if not field_ok.passed and reg.n_qubits > 1:
        warnings.warn(
            "field values admit the integer relation "
            f"{field_ok.witness}; Bohr groups merge and rate "
            "labels use merged-group representatives", UserWarning,
            stacklevel=2)
    # With no pair interaction and the default clustering, a field
    # that passes the check leaves one (D, e0) per group; a merged
    # group is then a grouping error, not a degenerate field.
    labels_unique = (field_ok.passed and tol is None
                     and not np.any(reg.J - np.diag(np.diag(reg.J))))

    spins = spin_configuration(np.arange(spec.dim), reg.n_qubits)
    rows = [tuple(row) for row in spins.tolist()]
    lam1, lam2 = reg.lambda1, reg.lambda2
    full, conserving, exchange = _resonance_mixes(
        spec, [(lam1, lam2), (lam1, 0.0), (0.0, lam2)], tol)
    reports = []
    for r, r_cons, r_exch in zip(full, conserving, exchange):
        labels = tuple(PairLabel(sigma=rows[m], tau=rows[n])
                       for m, n in r.pairs)
        index = np.array(r.pairs)
        diff = spins[index[:, 0]] - spins[index[:, 1]]
        jumps = list(zip(np.abs(diff).sum(axis=1).tolist(),
                         diff.sum(axis=1).tolist()))
        d, e0 = jumps[0]
        merged = len(set(jumps)) > 1
        if merged and labels_unique:
            raise RuntimeError(
                f"Bohr group e = {r.e:.6g} holds pairs with different "
                f"(D, e0) {sorted(set(jumps))} although the field passed "
                "the generic check")
        reports.append(RateReport(
            e=r.e, gamma=r.gamma, gamma_conserving=r_cons.gamma,
            gamma_exchange=r_exch.gamma,
            gamma_cross=r.gamma - r_cons.gamma - r_exch.gamma,
            e0=e0, hamming=d, group_pairs=labels, merged=merged))
    return reports


# =====================================================================
# Scaling studies
# =====================================================================

@dataclass(frozen=True)
class RegisterTemplate:
    """Size-independent register data for scaling studies.

    Field values are drawn i.i.d. uniform from ``b_interval`` (a fresh
    draw for each register size, from a seed-and-size keyed stream);
    internal couplings J are zero.
    """

    lambda1: float
    lambda2: float
    g1: FormFactor
    g2: FormFactor
    beta: float
    b_interval: tuple = (0.45, 0.55)

    def __post_init__(self):
        lo, hi = self.b_interval
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError("b_interval must be a finite (low, high) "
                             "pair with low < high")

    def realize(self, n_qubits: int, seed: int,
                attenuate: bool = False) -> RegisterSpec:
        """Concrete register of ``n_qubits`` qubits with drawn fields."""
        rng = np.random.default_rng([seed, n_qubits])
        lo, hi = self.b_interval
        B = rng.uniform(lo, hi, n_qubits)
        lam1, lam2 = self.lambda1, self.lambda2
        if attenuate:
            lam1 = lam1 / n_qubits
            lam2 = lam2 / np.sqrt(n_qubits)
        return RegisterSpec(n_qubits=n_qubits,
                            J=np.zeros((n_qubits, n_qubits)),
                            B=B, lambda1=lam1, lambda2=lam2,
                            g1=self.g1, g2=self.g2, beta=self.beta)


@dataclass(frozen=True)
class ScalingRow:
    """Scaling observables at one register size."""

    n_qubits: int
    max_gamma_conserving: float
    max_gamma_exchange: float
    gamma0: float


@dataclass(frozen=True)
class ScalingTable:
    """Scaling rows plus fitted log-log exponents.

    ``conserving_exponent`` and ``exchange_exponent`` are least-squares
    slopes of log(max rate) against log N; ``gamma0_spread`` is the
    relative spread (max - min)/mean of the thermalization rate of the
    exchange channel across sizes.
    """

    rows: tuple
    conserving_exponent: float
    exchange_exponent: float
    gamma0_spread: float


def _loglog_slope(ns, values) -> float:
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = values > 0.0
    if keep.sum() < 2:
        return float("nan")
    slope = np.polyfit(np.log(ns[keep]), np.log(values[keep]), 1)[0]
    return float(slope)


def scaling_study(template: RegisterTemplate, n_list,
                  seed: int = 0xD1CE, attenuate: bool = False,
                  tol: float | None = None,
                  parallel: int | None = None) -> ScalingTable:
    """Decay-rate scaling with register size.

    For each N the template is realized with freshly drawn fields and
    one resonance-pipeline pass yields both single-channel spectra: the
    conserving-only one gives max_e gamma_e, the exchange-only one gives
    max_e gamma_e and the e = 0 thermalization rate gamma0.  Exponents
    are log-log least-squares fits across the sizes.  An ``n_list``
    above MAX_QUBITS raises RegisterTooLarge before any size is
    computed.  ``parallel`` is accepted for compatibility and ignored.
    """
    n_list = sorted(int(n) for n in n_list)
    if not n_list:
        raise ValueError("n_list must be nonempty")
    if n_list[-1] > MAX_QUBITS:
        raise RegisterTooLarge(
            f"n_list reaches {n_list[-1]} qubits, maximum is {MAX_QUBITS}")
    rows = []
    for n in n_list:
        reg = template.realize(n, seed, attenuate=attenuate)
        cons, exch = _resonance_mixes(
            register_to_system(reg),
            [(reg.lambda1, 0.0), (0.0, reg.lambda2)], tol)
        rows.append(ScalingRow(
            n_qubits=n,
            max_gamma_conserving=max(r.gamma for r in cons),
            max_gamma_exchange=max(r.gamma for r in exch),
            gamma0=next(r.gamma for r in exch if r.e == 0.0)))
    ns = [row.n_qubits for row in rows]
    gamma0s = np.array([row.gamma0 for row in rows])
    spread = float((gamma0s.max() - gamma0s.min()) / gamma0s.mean()) \
        if np.all(gamma0s > 0.0) else float("nan")
    return ScalingTable(
        rows=tuple(rows),
        conserving_exponent=_loglog_slope(
            ns, [row.max_gamma_conserving for row in rows]),
        exchange_exponent=_loglog_slope(
            ns, [row.max_gamma_exchange for row in rows]),
        gamma0_spread=spread)
