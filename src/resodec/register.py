"""Qubit-register specialization: Hamming data of configuration pairs,
a generic-field diagnostic, per-group decoherence rates with channel
attribution, and system-size scaling studies.

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

``bohr_spectrum``'s clustering alone decides which pairs share a group;
``generic_field_check`` is a diagnostic the pipeline does not consult.
``decoherence_rates`` evaluates every group.  ``scaling_study`` needs
three numbers per size, and with J = 0 a spectrum of 3^N groups is the
partition into flip patterns (sigma_j - tau_j per qubit): the group of
a flip pattern holds 2^(agreeing qubits) pairs, the fastest conserving
and exchange rates sit on the all-flipped groups (size 1: |e0| = 2N,
and the exchange rate adds up over the flipped qubits), and gamma0 on
the e = 0 group, the only one of size 2^N.  It evaluates only those
two size classes, in one pass for both channels; any other group count
warns and evaluates every group.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
# numpy.random is loaded with the module (about 12 ms), not by the
# first register that realize draws
from numpy.random import default_rng

from .errors import BadConfiguration, RegisterTooLarge, \
    TooLargeForExhaustiveCheck, ValidationError
from .model import (
    DEFAULT_SEED,
    MAX_QUBITS,
    FormFactor,
    RegisterSpec,
    _beta,
    _form_factor,
    _integer,
    _real,
    _reals,
    register_to_system,
    spin_configuration,
)
from .resonances import _resonance_mixes, bohr_spectrum

__all__ = [
    "RateReport",
    "GenericFieldReport",
    "RegisterTemplate",
    "ScalingRow",
    "ScalingTable",
    "hamming_and_e0",
    "generic_field_check",
    "decoherence_rates",
    "scaling_study",
]


# =====================================================================
# Configuration pairs
# =====================================================================

def _check_configuration(sigma) -> np.ndarray:
    """A nonempty 1-d spin configuration as an int array; each spin
    passes _integer (so True is refused) and must be +1 or -1."""
    entries = np.asarray(sigma, dtype=object)
    if entries.ndim != 1 or entries.size == 0 or any(
            _integer(s, "a spin") not in (-1, 1) for s in entries):
        raise BadConfiguration(
            "a spin configuration is a nonempty sequence of +1/-1 "
            f"entries, got {sigma!r}")
    return entries.astype(int)


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

#: entries of the scanned integer vectors, smallest first
_FIELD_DIGITS = (0, 1, -1, 2, -2)

@dataclass(frozen=True)
class GenericFieldReport:
    """Result of the integer-relation scan over the field values.

    ``passed`` is True when no nonzero integer vector n with entries in
    {0, +-1, +-2} annihilates B; otherwise ``witness`` holds one such
    vector (degenerate fields merge Bohr groups).
    """

    passed: bool
    witness: tuple | None = None


def _combination_sums(B: np.ndarray) -> np.ndarray:
    """sum_j B_j n_j for each n in product(_FIELD_DIGITS, repeat=len(B)),
    in that order."""
    digits = np.array(_FIELD_DIGITS, dtype=float)
    sums = np.zeros(1)
    for b in B.tolist():
        sums = (sums[:, None] + b * digits[None, :]).ravel()
    return sums


def generic_field_check(B) -> GenericFieldReport:
    """Exhaustively scan integer combinations of the field values (a
    diagnostic the pipeline does not consult).

    FAIL with a witness when some nonzero n in {0, +-1, +-2}^N has
    |sum_j B_j n_j| <= 1e-12 max|B|; registers beyond N = 12 are
    rejected (the scan is exponential).  Vectors are scanned in
    product order, small entries first, so the witness is a simplest
    relation: each prefix sum against one table of suffix sums.
    """
    B = _reals(B, "B", ndim=1)
    n = B.size
    if n > 12:
        raise TooLargeForExhaustiveCheck(
            "generic-field scan is exhaustive over 5^N "
            f"vectors; N = {n} > 12 is not supported")
    scale = float(np.max(np.abs(B))) if n else 0.0
    threshold = 1e-12 * scale
    split = max(n - 7, 0)           # at most 5^7 suffix sums at once
    suffix = _combination_sums(B[split:])
    for i, head in enumerate(_combination_sums(B[:split]).tolist()):
        hits = np.abs(head + suffix) <= threshold
        hits[0] &= i > 0          # the zero vector is no relation
        if hits.any():
            index = i * suffix.size + int(np.argmax(hits))
            witness = tuple(_FIELD_DIGITS[d]
                            for d in np.unravel_index(index, (5,) * n))
            return GenericFieldReport(passed=False, witness=witness)
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
    field merges groups).  ``pairs`` holds the group's (sigma, tau)
    basis indices as a read-only (d, 2) array; ``spin_configuration``
    turns a row into the two configurations.
    """

    e: float
    gamma: float
    gamma_conserving: float
    gamma_exchange: float
    gamma_cross: float
    e0: int
    hamming: int
    pairs: np.ndarray
    merged: bool


def decoherence_rates(reg: RegisterSpec, tol: float | None = None,
                      parallel: int | None = None) -> list:
    """Per-group decay rates of a register, attributed by channel.

    The resonance data of both channels, of the conserving channel
    alone and of the exchange channel alone come from one pass over the
    groups of ``bohr_spectrum(spec, tol)``.  A group whose pairs do not
    all share one (D, e0) still gets its rates; ``RateReport.merged``
    flags it, and a UserWarning is issued exactly when some group is
    merged.  A register above MAX_QUBITS raises RegisterTooLarge before
    any work.  ``parallel`` is accepted for compatibility and ignored.
    """
    spec = register_to_system(reg)
    lam1, lam2 = reg.lambda1, reg.lambda2
    full, conserving, exchange = _resonance_mixes(
        spec, [(lam1, lam2), (lam1, 0.0), (0.0, lam2)],
        bohr_spectrum(spec, tol))

    # (D, e0) of every pair, group after group: merged where they vary
    sizes = [len(r.pairs) for r in full]
    firsts = np.cumsum(sizes) - sizes
    spins = spin_configuration(np.arange(spec.dim), reg.n_qubits)
    diff = np.subtract(*spins[np.concatenate([r.pairs for r in full]).T])
    labels = np.stack([np.abs(diff).sum(axis=1), diff.sum(axis=1)], axis=1)
    merged = np.any(np.minimum.reduceat(labels, firsts)
                    != np.maximum.reduceat(labels, firsts), axis=1)
    if merged.any():
        warnings.warn(
            f"{int(merged.sum())} of {len(full)} Bohr groups hold pairs "
            "with different (D, e0); RateReport.merged flags them",
            UserWarning, stacklevel=2)
    return [RateReport(e=r.e, gamma=r.gamma, gamma_conserving=r_cons.gamma,
                       gamma_exchange=r_exch.gamma,
                       gamma_cross=r.gamma - r_cons.gamma - r_exch.gamma,
                       e0=e0, hamming=d, pairs=r.pairs, merged=m)
            for r, r_cons, r_exch, (d, e0), m in zip(
                full, conserving, exchange, labels[firsts].tolist(),
                merged.tolist())]


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
        _real(self.lambda1, "lambda1")
        _real(self.lambda2, "lambda2")
        _form_factor(self.g1, "g1")
        _form_factor(self.g2, "g2")
        _beta(self.beta)
        pair = "a finite (low, high) pair with low < high"
        interval = _reals(self.b_interval, "b_interval", what=pair)
        if not (interval.shape == (2,) and interval[0] < interval[1]):
            raise ValidationError(f"b_interval must be {pair}")
        object.__setattr__(self, "b_interval", tuple(interval.tolist()))

    def realize(self, n_qubits: int, seed: int,
                attenuate: bool = False) -> RegisterSpec:
        """Concrete register of ``n_qubits`` qubits with drawn fields."""
        rng = default_rng([seed, n_qubits])
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
                  seed: int = DEFAULT_SEED, attenuate: bool = False,
                  tol: float | None = None,
                  parallel: int | None = None) -> ScalingTable:
    """Decay-rate scaling with register size.

    For each N the template is realized with freshly drawn fields and
    one resonance-pipeline pass yields both single-channel spectra:
    the conserving-only one gives max_e gamma_e, the exchange-only one
    gives max_e gamma_e and the e = 0 thermalization rate gamma0.
    Exponents are log-log least-squares fits across the sizes.

    When ``bohr_spectrum(spec, tol)`` has 3^N groups, each is one flip
    pattern (J is zero), and the pass gets only the groups of size 1
    (the 2^N all-flipped ones, which carry both maxima) and of size
    2^N (the e = 0 group alone, whose conserving rate is 0).  Each
    channel's tables and each mix's sums do not depend on the other
    channel, and each size class is the batch a full pass would use,
    so every value is bit-identical to evaluating all 3^N groups.  Any
    other group count warns, and every group is evaluated.

    A size that is not an integer or integral float, below 1 or
    repeated raises BadConfiguration (a log-log fit needs distinct
    sizes), and an ``n_list`` above MAX_QUBITS raises RegisterTooLarge,
    before any size is computed.  ``parallel`` is accepted for
    compatibility and ignored.
    """
    n_list = sorted(_integer(n, "n_list") for n in n_list)
    if not n_list:
        raise BadConfiguration("n_list must be nonempty")
    if n_list[0] < 1 or len(set(n_list)) < len(n_list):
        raise BadConfiguration(
            f"n_list must hold distinct sizes >= 1, got {n_list}")
    if n_list[-1] > MAX_QUBITS:
        raise RegisterTooLarge(
            f"n_list reaches {n_list[-1]} qubits, maximum is {MAX_QUBITS}")
    rows = []
    for n in n_list:
        reg = template.realize(n, seed, attenuate=attenuate)
        spec = register_to_system(reg)
        groups = bohr_spectrum(spec, tol)
        if len(groups) == 3 ** n:
            groups = {e: pairs for e, pairs in groups.items()
                      if len(pairs) in (1, 2 ** n)}
        else:
            warnings.warn(
                f"the Bohr spectrum of the N = {n} field has "
                f"{len(groups)} groups, not one per flip pattern "
                f"(3^{n}); every group is evaluated", UserWarning,
                stacklevel=2)
        cons, exch = _resonance_mixes(
            spec, [(reg.lambda1, 0.0), (0.0, reg.lambda2)], groups)
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
