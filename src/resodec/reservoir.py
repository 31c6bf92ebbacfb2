"""Thermal reservoir spectral functions.

For a form factor ``g`` (see model.FormFactor) at inverse temperature
``beta`` this module provides:

* ``xi(g, beta, eta)`` — the delta-concentrated, coth-weighted spectral
  function: ``xi(eta) = eta**2 * coth(beta*eta/2) * S(eta)`` where
  ``S(eta)`` is the angular integral of ``|g(eta, .)|**2``.  At
  ``eta = 0`` the one-sided limit is taken, which is finite exactly when
  the infrared exponent equals -1/2.
* ``thermal_spectral_density(g, beta, u)`` — the signed-frequency
  emission/absorption density
  ``D(u) = xi(|u|) * (1 + sign(u)*tanh(beta*|u|/2)) / 2`` obeying the
  detailed-balance relation ``D(-u) = exp(-beta*u) * D(u)``.
* ``pv_energy_shift`` / ``mean_inverse_frequency`` — the two real
  integrals entering second-order energy shifts.
* ``half_line_transform`` — ``W(omega) = (pi/2) D(omega) + i s(omega)``
  with ``s`` the principal-value Hilbert-type transform of ``D``; this
  is the one-sided reservoir correlation transform from which level
  shifts are assembled.
* ``glued_form_factor`` / ``check_condition_A`` — the positive- and
  negative-frequency gluing of the form factor at temperature beta and
  the exact decision whether it is analytic at frequency zero.

Everything is a pure function of immutable inputs.  Importing this
module costs numpy alone: ``xi_lorentzian_check`` integrates with the
package's own port of QUADPACK (``_quadpack``), which returns
``scipy.integrate.quad``'s bits without loading scipy.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._quadpack import quad
from .errors import (
    InfraredDivergent,
    NumericalError,
    QuadratureNotConverged,
    ValidationError,
)
from .model import FormFactor

__all__ = [
    "ThermalFormFactor",
    "ConditionAReport",
    "glued_form_factor",
    "check_condition_A",
    "angular_square",
    "xi",
    "xi_lorentzian_check",
    "pv_energy_shift",
    "mean_inverse_frequency",
    "thermal_spectral_density",
    "one_sided_density",
    "half_line_transform",
]

#: infrared exponent threshold: xi(0) is finite iff p == IR_CRITICAL,
#: zero for p above it, divergent below
IR_CRITICAL = -0.5

#: the solid angle, over which an isotropic |g|^2 is integrated
_FOUR_PI = 4.0 * np.pi
_QUAD_KW = dict(epsabs=1e-11, epsrel=1e-11, limit=400)
_PV_TOL = 1e-8
#: first step of the principal-value rules, and the steps tried in all
_DE_STEP, _DE_LEVELS = 1.0 / 32.0, 4
_PV_BLOCK = 512


# =====================================================================
# Data types
# =====================================================================

@dataclass(frozen=True)
class ThermalFormFactor:
    """A form factor glued across frequency zero at inverse temperature
    beta with gluing phase chi."""

    base: FormFactor
    beta: float
    chi: float = 0.0

    def __post_init__(self):
        if not (self.beta > 0.0 and np.isfinite(self.beta)):
            raise ValidationError(f"beta must be > 0, got {self.beta!r}")
        if not np.isfinite(self.chi):
            raise ValidationError("chi must be finite")


@dataclass(frozen=True)
class ConditionAReport:
    """Result of the frequency-zero analyticity decision: the lowest
    one-sided derivative order that no gluing phase matches (None when
    the glued form factor is analytic), and the best phase."""

    passed: bool
    best_chi: float
    mismatch_order: int | None


# =====================================================================
# Spectral functions
# =====================================================================

def _square_scalar(base: FormFactor, eta: float) -> float:
    """S(eta) for scalar eta > 0, on the fast pure-Python path (xi runs
    once per table entry and inside scalar quadrature integrands)."""
    return (_FOUR_PI * base.overall_scale ** 2
            * eta ** (2.0 * base.radial_exponent)
            * math.exp(-2.0 * eta ** base.decay_exponent))


def angular_square(base: FormFactor, eta):
    """S(eta): the angular integral of |g(eta, .)|^2 (isotropic closed
    form: 4*pi*scale^2 * eta^(2p) * exp(-2 eta^m))."""
    eta = np.asarray(eta, dtype=float)
    return (_FOUR_PI * base.overall_scale ** 2
            * eta ** (2.0 * base.radial_exponent)
            * np.exp(-2.0 * eta ** base.decay_exponent))


def one_sided_density(base: FormFactor, eta):
    """J(eta) = eta^2 * S(eta): zero-temperature emission density."""
    eta = np.asarray(eta, dtype=float)
    return eta ** 2 * angular_square(base, eta)


def xi(base: FormFactor, beta: float, eta: float) -> float:
    """The coth-weighted spectral function at frequency eta >= 0.

    eta > 0: eta^2 * coth(beta*eta/2) * S(eta).
    eta = 0: the eta -> 0+ limit — 0 for p > -1/2, the finite value
    (2/beta) * 4*pi*scale^2 for p = -1/2, divergent otherwise.
    """
    if not (beta > 0.0):
        raise ValidationError(f"beta must be > 0, got {beta!r}")
    if eta < 0.0:
        raise ValidationError(f"eta must be >= 0, got {eta!r}")
    if base.is_zero:
        return 0.0
    p = base.radial_exponent
    if eta == 0.0:
        if p > IR_CRITICAL + 1e-12:
            return 0.0
        if abs(p - IR_CRITICAL) <= 1e-12:
            return (2.0 / beta) * _FOUR_PI * base.overall_scale ** 2
        raise InfraredDivergent(
            f"xi(0) diverges for radial exponent p = {p} < -1/2")
    eta = float(eta)
    return eta * eta * _square_scalar(base, eta) / math.tanh(beta * eta / 2.0)


def xi_lorentzian_check(base: FormFactor, beta: float, eta: float,
                        epsilon: float) -> float:
    """Pre-limit Lorentzian-smoothed value of xi(eta) for eta > 0:
    (1/pi) * int_0^inf xi(r) * eps / ((r-eta)^2 + eps^2) dr.

    Used only as a quadrature cross-check oracle for ``xi``; converges
    to xi(eta) as epsilon decreases.
    """
    if not (math.isfinite(eta) and eta >= 0.0):
        raise ValidationError(f"eta must be finite and >= 0, got {eta!r}")
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValidationError(
            f"epsilon must be finite and > 0, got {epsilon!r}")
    if base.is_zero:
        return 0.0

    def f(r):
        return (xi(base, beta, r) * epsilon
                / ((r - eta) ** 2 + epsilon ** 2) / np.pi)

    pts = sorted({max(eta - 10 * epsilon, 0.0), eta,
                  eta + 10 * epsilon})
    total, err = 0.0, 0.0
    edges = [0.0] + [p for p in pts if p > 0.0] + [np.inf]
    for a, b in zip(edges[:-1], edges[1:]):
        v, e, ier = quad(f, a, b, **_QUAD_KW)
        if ier:
            raise QuadratureNotConverged(
                f"Lorentzian check on [{a:g}, {b:g}] stopped with QUADPACK "
                f"code {ier}")
        total += v
        err += e
    if err > max(1e-6, 1e-6 * abs(total)):
        raise QuadratureNotConverged(
            f"Lorentzian check error estimate {err:.2e} too large")
    return total


def thermal_spectral_density(base: FormFactor, beta: float, u: float) -> float:
    """Signed-frequency emission/absorption density
    D(u) = xi(|u|) (1 + sign(u) tanh(beta|u|/2)) / 2.

    D(u) for u > 0 weights decay processes releasing energy u into the
    reservoir, D(-u) = exp(-beta*u) D(u) the reverse absorption.
    """
    x = xi(base, beta, abs(u))
    if u == 0.0:
        return 0.5 * x
    t = math.tanh(beta * abs(u) / 2.0)
    return 0.5 * x * (1.0 + t if u > 0.0 else 1.0 - t)


def _radial_moment(base: FormFactor, k: int,
                   upper: float = math.inf) -> float:
    """int_0^upper r^k S(r) dr = 4*pi*scale^2 * Gamma(s)
    P(s, 2 upper^m) / (m * 2^s), s = (2p + 1 + k)/m, P = gammainc (1,
    and no scipy, for upper = inf).  Past an overflow (of Gamma(s) from
    s ~ 171.6 on) Gamma(s) P / 2^s is taken in log space; a moment
    outside the float range raises NumericalError."""
    m = base.decay_exponent
    s = (2.0 * base.radial_exponent + 1.0 + k) / m
    share = 1.0
    if math.isfinite(upper):
        from scipy.special import gammainc
        share = float(gammainc(s, 2.0 * upper ** m))
    prefactor = _FOUR_PI * base.overall_scale ** 2
    moment = math.inf
    with contextlib.suppress(OverflowError):
        moment = prefactor * math.gamma(s) * share / (m * 2.0 ** s)
    if not math.isfinite(moment):
        with contextlib.suppress(OverflowError, ValueError):
            moment = prefactor * math.exp(
                math.lgamma(s) - s * math.log(2.0) + math.log(share)) / m
    if not math.isfinite(moment):
        raise NumericalError(
            f"moment int_0^{upper:g} r^{k} S(r) dr is outside the float "
            f"range for radial exponent p = {base.radial_exponent}, "
            f"decay exponent m = {m} (s = {s:g})")
    return moment


def mean_inverse_frequency(base: FormFactor) -> float:
    """The inverse-frequency moment int |g(k)|^2 / |k| d^3k
    (= int_0^inf r * S(r) dr), finite for p > -1, in closed form."""
    if base.is_zero:
        return 0.0
    if 2.0 * base.radial_exponent + 1.0 <= -1.0:
        raise InfraredDivergent(
            "inverse-frequency moment diverges for radial exponent "
            f"p = {base.radial_exponent} <= -1")
    return _radial_moment(base, 1)


# =====================================================================
# Principal-value machinery
# =====================================================================

def _xi_array(base: FormFactor, beta: float, u):
    """Xi(u) = xi(|u|) elementwise, for u != 0."""
    eta = np.abs(u)
    return one_sided_density(base, eta) / np.tanh(beta * eta / 2.0)


def _density_array(base: FormFactor, beta: float, u):
    """D(u) elementwise, for u != 0."""
    return 0.5 * _xi_array(base, beta, u) \
        * (1.0 + np.sign(u) * np.tanh(beta * np.abs(u) / 2.0))


def _pv_transform(f, poles) -> np.ndarray:
    """P.V. int_R f(u) / (u - pole) du at every pole, in one batch.

    f acts elementwise, decays at infinity and may kink only at 0.  A
    window of half-width w = min(1, |pole|/2) (1 at pole 0) takes the
    odd part (f(pole+s) - f(pole-s))/s; f(u)/(u - pole) is integrated
    over the piece between 0 and the nearer window edge and two tails.
    Double-exponential rules (Takahasi and Mori, Publ. RIMS 9, 721,
    1974) with error estimate |S_h - S_2h|; a pole above _PV_TOL is
    redone alone at h/2.  Sums run along one pole's row, so no value
    depends on the batch, and blocks of _PV_BLOCK poles (about 15 MB of
    work arrays) bound the memory.
    """
    poles = np.asarray(poles, dtype=float)
    if poles.size > _PV_BLOCK:
        return np.concatenate([_pv_transform(f, poles[i:i + _PV_BLOCK])
                               for i in range(0, poles.size, _PV_BLOCK)])
    out = np.empty(poles.shape)
    todo = np.arange(poles.size)
    for level in range(_DE_LEVELS):
        total, err = _de_pass(f, poles[todo, None], _DE_STEP / 2 ** level)
        ok = err <= np.maximum(_PV_TOL, _PV_TOL * np.abs(total))
        out[todo[ok]] = total[ok]
        todo, err = todo[~ok], err[~ok]
        if not todo.size:
            return out
    raise QuadratureNotConverged(
        f"principal-value error estimate {err[0]:.2e} at pole "
        f"{poles[todo[0]]!r} exceeds tolerance")


def _de_pass(f, p: np.ndarray, h: float) -> tuple:
    """(S_h, |S_h - S_2h|) of _pv_transform's pieces at poles p (n, 1)."""
    # tanh-sinh, t in [-5, 5]: nodes kept as their distance q (in units
    # of b - a) to the nearer end, which they never round onto
    k = np.arange(-round(5.0 / h), round(5.0 / h) + 1)
    q = 1.0 / (1.0 + np.exp(np.pi * np.sinh(np.abs(k * h))))
    ts_w = np.pi * np.cosh(k * h) * q * (1.0 - q)
    # exp-sinh on [0, inf), t in [-5.5, 2.5]: nodes from 1e-83 to 1e4
    j = np.arange(-round(5.5 / h), round(2.5 / h) + 1)
    y = np.exp(0.5 * np.pi * np.sinh(j * h))
    es_w = 0.5 * np.pi * np.cosh(j * h) * y
    near = np.abs(p) <= 1e-14
    pos, neg = (p > 0.0) & ~near, (p < 0.0) & ~near
    w = np.where(near, 1.0, np.minimum(1.0, np.abs(p) / 2.0))
    lo, hi = p - w, p + w

    def finite(a, b):
        return np.where(k > 0, b - (b - a) * q, a + (b - a) * q), \
            (b - a) * ts_w

    def g(u):
        return f(u) / (u - p)

    s, ds = finite(0.0, w)
    x, dx = finite(np.where(pos, 0.0, hi),
                   np.where(pos, lo, np.where(neg, 0.0, hi)))
    total = err = 0.0
    for v, even in (((f(p + s) - f(p - s)) / s * ds, k % 2 == 0),
                    (g(x) * dx, k % 2 == 0),
                    (g(np.where(pos, 0.0, lo) - y) * es_w, j % 2 == 0),
                    (g(np.where(neg, 0.0, hi) + y) * es_w, j % 2 == 0)):
        fine = h * v.sum(axis=1)
        total += fine
        err += np.abs(fine - 2.0 * h * v[:, even].sum(axis=1))
    return total, err


def pv_energy_shift(base: FormFactor, beta: float, Delta: float) -> float:
    """P.V. int_R  u^2 S(|u|) coth(beta|u|/2) / (u - Delta) du.

    The integrand is the even extension Xi(u) = xi(|u|); any |c|^2/2
    style prefactor is the caller's business.  Finite for p > -1.
    """
    if base.is_zero:
        return 0.0
    if base.radial_exponent <= -1.0:
        raise InfraredDivergent(
            "principal-value shift integrand is not integrable at zero "
            f"frequency for p = {base.radial_exponent} <= -1")
    return float(_pv_transform(partial(_xi_array, base, beta),
                               [float(Delta)])[0])


def _half_line_transforms(base: FormFactor, beta: float, omegas) -> list:
    """W at every omega, with one batched principal-value transform."""
    densities = [thermal_spectral_density(base, beta, o) for o in omegas]
    shifts = np.zeros(len(omegas)) if base.is_zero else 0.5 * \
        _pv_transform(partial(_density_array, base, beta), omegas)
    return [complex(0.5 * np.pi * d, float(s))
            for d, s in zip(densities, shifts)]


def half_line_transform(base: FormFactor, beta: float,
                        omega: float) -> complex:
    """One-sided reservoir correlation transform
    W(omega) = (pi/2) D(omega) + i s(omega).

    Its real part drives golden-rule decay at Bohr gap omega, its
    imaginary part the corresponding energy (Lamb-type) shift.
    """
    return _half_line_transforms(base, beta, [float(omega)])[0]


# =====================================================================
# Glued form factor and Condition (A)
# =====================================================================

def _glue_prefactor(beta: float, u) -> float:
    """sqrt(u / (1 - exp(-beta*u))), stable through u = 0."""
    bu = beta * np.asarray(u, dtype=float)
    with np.errstate(invalid="ignore"):
        ratio = np.where(np.abs(bu) < 1e-8,
                         (1.0 + bu / 2.0 + bu * bu / 12.0) / beta,
                         np.asarray(u) / -np.expm1(-bu))
    return np.sqrt(ratio)


def glued_form_factor(tf: ThermalFormFactor, u: float) -> complex:
    """The two-sided (emission/absorption) form factor at temperature
    beta:

        sqrt(u / (1 - e^(-beta u))) * |u|^(1/2) *
            { g(u)                   for u >= 0,
              -e^(i chi) * conj(g)(-u) for u < 0 }

    (isotropic: g has no angular argument).  At u = 0 the u -> 0+
    limit is returned: 0 for p > -1/2, scale/sqrt(beta) for
    p = -1/2 (the two-sided limit then exists only for the smoothly
    gluing chi, which is check_condition_A's concern), divergent below.
    """
    base, beta = tf.base, tf.beta
    if base.is_zero:
        return 0.0 + 0.0j
    p = base.radial_exponent
    if u == 0.0:
        if p > IR_CRITICAL + 1e-12:
            return 0.0 + 0.0j
        if abs(p - IR_CRITICAL) <= 1e-12:
            return complex(base.overall_scale / np.sqrt(beta))
        raise InfraredDivergent(
            f"glued form factor diverges at u=0 for p = {p} < -1/2")
    pref = float(_glue_prefactor(beta, u)) * np.sqrt(abs(u))
    if u > 0.0:
        return complex(pref * float(base.radial(u)))
    return complex(-np.exp(1j * tf.chi)
                   * pref * np.conj(float(base.radial(-u))))


def check_condition_A(tf: ThermalFormFactor) -> ConditionAReport:
    """Decide Condition (A): is the glued form factor analytic at
    frequency zero for some gluing phase chi?

    The thermal prefactor sqrt(u / (1 - e^(-beta u))) is analytic and
    positive near u = 0, so only the real branch V(s) = A s^q e^(-s^m),
    q = p + 1/2, matters: V(u) on the right, -e^(i chi) V(-u) on the
    left.  The right branch continues analytically through 0 exactly
    when q is a non-negative integer (within 1e-12), to A u^q e^(-u^m);
    on the left that reads A (-1)^q |u|^q e^(-(-1)^m |u|^m).  With
    m = 2 both sides agree for e^(i chi) = (-1)^(q+1) (chi = pi for
    even q, 0 for odd q): PASS.  With m = 1 that chi matches orders up
    to q, and the one-sided derivatives of order q + 1 differ.  A
    non-integer q >= 0 first fails at order ceil(q), where the right
    branch's derivative diverges, and q < 0 fails at order 0.
    ``mismatch_order`` is the lowest one-sided derivative order that no
    chi matches (None on a PASS); ``best_chi`` is the chi that matches
    the orders below it, and ``tf.chi`` when every chi does.  The
    decision is exact and the same at every beta, so no frequency
    window enters.
    """
    if tf.base.is_zero:
        return ConditionAReport(passed=True, best_chi=tf.chi,
                                mismatch_order=None)
    q = tf.base.radial_exponent + 0.5
    k = round(q)
    if abs(q - k) > 1e-12 or k < 0:
        order, chi = max(math.ceil(q), 0), tf.chi
    else:
        order = None if tf.base.decay_exponent == 2 else k + 1
        chi = np.pi if k % 2 == 0 else 0.0
    return ConditionAReport(passed=order is None, best_chi=chi,
                            mismatch_order=order)

