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
  a numeric smoothness diagnostic at frequency zero.

Everything is a pure function of immutable inputs; ``ReservoirTransforms``
adds a per-(form factor, beta) memo table, filled for a whole channel by
one batched double-exponential principal-value transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np
from scipy import integrate, optimize

from .errors import (
    InfraredDivergent,
    OmegaPrimeOutOfRange,
    QuadratureNotConverged,
    ValidationError,
)
from .model import FormFactor

__all__ = [
    "ThermalFormFactor",
    "SpectralProfile",
    "ConditionAReport",
    "glued_form_factor",
    "check_condition_A",
    "xi",
    "xi_lorentzian_check",
    "pv_energy_shift",
    "mean_inverse_frequency",
    "thermal_spectral_density",
    "one_sided_density",
    "half_line_transform",
    "spectral_profile",
    "ReservoirTransforms",
]

#: infrared exponent threshold: xi(0) is finite iff p == IR_CRITICAL,
#: zero for p above it, divergent below
IR_CRITICAL = -0.5

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
class SpectralProfile:
    """xi sampled on a frequency grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape:
            raise ValidationError("grid and values must be 1-d, same length")
        if g.size and (np.any(np.diff(g) <= 0) or g[0] < 0):
            raise ValidationError("grid must be strictly increasing, >= 0")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise ValidationError("xi values must be finite and >= 0")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ConditionAReport:
    """Result of the numeric frequency-zero smoothness check.

    This is a necessary-condition proxy (one-sided derivative matching
    at orders 0..3), not a proof of analyticity.
    """

    passed: bool
    best_chi: float
    max_mismatch: float
    mismatch_by_order: tuple
    spacing: float
    omega_prime: float


# =====================================================================
# Spectral functions
# =====================================================================

def _square_scalar(base: FormFactor, eta: float) -> float:
    """S(eta) for scalar eta > 0, on the fast pure-Python path (xi runs
    once per table entry and inside scalar quadrature integrands)."""
    return (base.angular_square_integral * base.overall_scale ** 2
            * eta ** (2.0 * base.radial_exponent)
            * math.exp(-2.0 * eta ** base.decay_exponent))


def angular_square(base: FormFactor, eta):
    """S(eta): the angular integral of |g(eta, .)|^2 (isotropic closed
    form: 4*pi*(scale*weight)^2 * eta^(2p) * exp(-2 eta^m))."""
    eta = np.asarray(eta, dtype=float)
    return (base.angular_square_integral * base.overall_scale ** 2
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
    (2/beta) * 4*pi*(scale*weight)^2 for p = -1/2, divergent otherwise.
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
            return (2.0 / beta) * base.angular_square_integral \
                * base.overall_scale ** 2
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
    if epsilon <= 0.0:
        raise ValidationError(f"epsilon must be > 0, got {epsilon!r}")
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
        v, e = integrate.quad(f, a, b, **_QUAD_KW)
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


def mean_inverse_frequency(base: FormFactor) -> float:
    """The inverse-frequency moment int |g(k)|^2 / |k| d^3k
    (= int_0^inf r * S(r) dr), finite for p > -1."""
    if base.is_zero:
        return 0.0
    if 2.0 * base.radial_exponent + 1.0 <= -1.0:
        raise InfraredDivergent(
            "inverse-frequency moment diverges for radial exponent "
            f"p = {base.radial_exponent} <= -1")
    val, err = integrate.quad(lambda r: r * angular_square(base, r),
                              0.0, np.inf, **_QUAD_KW)
    if err > max(_PV_TOL, _PV_TOL * abs(val)):
        raise QuadratureNotConverged(
            f"inverse-frequency moment error estimate {err:.2e} too large")
    return val


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


class ReservoirTransforms:
    """Memoized W(omega) and D(omega) for one (form factor, beta) pair.

    Frequencies are keyed after rounding to 1e-12 so that Bohr gaps
    equal up to clustering noise share a table entry.
    """

    def __init__(self, base: FormFactor, beta: float):
        self.base = base
        self.beta = beta
        self._w = {}
        self._d = {}

    @staticmethod
    def _key(omega: float) -> float:
        return round(float(omega), 12)

    def precompute(self, omegas) -> None:
        """Fill W at every new key of ``omegas`` in one batch."""
        keys = sorted({self._key(o) for o in omegas} - self._w.keys())
        if keys:
            self._w.update(zip(keys, _half_line_transforms(
                self.base, self.beta, keys)))

    def wplus(self, omega: float) -> complex:
        k = self._key(omega)
        if k not in self._w:
            self.precompute([k])
        return self._w[k]

    def density(self, omega: float) -> float:
        k = self._key(omega)
        if k not in self._d:
            self._d[k] = thermal_spectral_density(self.base, self.beta, k)
        return self._d[k]


# =====================================================================
# Glued form factor and the smoothness diagnostic
# =====================================================================

def _glue_prefactor(beta: float, u) -> float:
    """sqrt(u / (1 - exp(-beta*u))), stable through u = 0."""
    bu = beta * np.asarray(u, dtype=float)
    with np.errstate(invalid="ignore"):
        ratio = np.where(np.abs(bu) < 1e-8,
                         (1.0 + bu / 2.0 + bu * bu / 12.0) / beta,
                         np.asarray(u) / -np.expm1(-bu))
    return np.sqrt(ratio)


def glued_form_factor(tf: ThermalFormFactor, u: float, sigma=None) -> complex:
    """The two-sided (emission/absorption) form factor at temperature
    beta:

        sqrt(u / (1 - e^(-beta u))) * |u|^(1/2) *
            { g(u, sigma)                   for u >= 0,
              -e^(i chi) * conj(g)(-u, sigma) for u < 0 }.

    ``sigma`` is accepted for interface symmetry; only isotropic angular
    weights exist, so it is ignored.  At u = 0 the u -> 0+ limit is
    returned: 0 for p > -1/2, scale*weight/sqrt(beta) for p = -1/2
    (the two-sided limit then exists only for the smoothly gluing chi,
    which is check_condition_A's concern), divergent below.
    """
    base, beta = tf.base, tf.beta
    if base.is_zero:
        return 0.0 + 0.0j
    p = base.radial_exponent
    if u == 0.0:
        if p > IR_CRITICAL + 1e-12:
            return 0.0 + 0.0j
        if abs(p - IR_CRITICAL) <= 1e-12:
            return complex(base.overall_scale * base.angular_weight
                           / np.sqrt(beta))
        raise InfraredDivergent(
            f"glued form factor diverges at u=0 for p = {p} < -1/2")
    pref = float(_glue_prefactor(beta, u)) * np.sqrt(abs(u))
    if u > 0.0:
        return complex(pref * float(base.radial(u)))
    return complex(-np.exp(1j * tf.chi)
                   * pref * np.conj(float(base.radial(-u))))


@lru_cache(maxsize=None)
def _one_sided_derivative_weights(npts: int = 6, max_order: int = 3):
    """Exact rational finite-difference weights for the k-th derivative
    at 0 from one-sided nodes {1, 2, ..., npts} (in units of the
    spacing), k = 0..max_order.  Solved over Fractions so the weights
    carry no roundoff of their own."""
    nodes = [Fraction(i) for i in range(1, npts + 1)]
    # Vandermonde system: sum_i w_i * nodes[i]^j = j! * delta_{jk}
    weights = []
    for k in range(max_order + 1):
        a = [[nodes[i] ** j for i in range(npts)] for j in range(npts)]
        b = [Fraction(0)] * npts
        b[k] = Fraction(1)
        for j in range(2, k + 1):
            b[k] *= j
        # Gaussian elimination over Fractions
        for col in range(npts):
            piv = next(r for r in range(col, npts) if a[r][col] != 0)
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
            inv = Fraction(1) / a[col][col]
            a[col] = [x * inv for x in a[col]]
            b[col] = b[col] * inv
            for r in range(npts):
                if r != col and a[r][col] != 0:
                    factor = a[r][col]
                    a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
                    b[r] = b[r] - factor * b[col]
        weights.append(tuple(b))
    return weights


def check_condition_A(tf: ThermalFormFactor,
                      omega_prime: float) -> ConditionAReport:
    """Numeric smoothness diagnostic of the glued form factor at
    frequency zero.

    The glued function factors as q(u) * V(u) where the thermal
    prefactor q(u) = sqrt(u / (1 - e^(-beta u))) is analytic and
    strictly positive near u = 0 and carries no chi dependence, so it
    is divided out before differencing: only the branch part
    V(u) = |u|^(1/2) * g(|u|) (conjugated and phased on the left) can
    break smoothness.  One-sided derivatives of V at orders 0..3 are
    estimated with exact-rational stencils evaluated in extended
    precision, which pushes stencil cancellation far below the pass
    threshold; the residual is pure truncation error, ~1e-10 for
    genuinely smooth gluings and O(1) (growing as the spacing shrinks)
    across a derivative jump or fractional power.  The gluing phase chi
    is scanned over [0, 2*pi) (the left derivatives are linear in
    -e^(i chi), so the scan is cheap) and the smallest achievable
    maximum mismatch is reported.  PASS iff that minimum is <= 1e-8.
    A necessary-condition proxy only: it can confirm a derivative jump,
    never analyticity.
    """
    beta = tf.beta
    if not (0.0 < omega_prime < 2.0 * np.pi / beta):
        raise OmegaPrimeOutOfRange(
            f"omega_prime must lie in (0, 2*pi/beta) = "
            f"(0, {2.0 * np.pi / beta:.6g}), got {omega_prime!r}")
    h = Fraction(1, 256)
    npts, max_order = 10, 3
    if tf.base.is_zero:
        return ConditionAReport(passed=True, best_chi=tf.chi,
                                max_mismatch=0.0,
                                mismatch_by_order=(0.0,) * (max_order + 1),
                                spacing=float(h), omega_prime=omega_prime)

    import mpmath  # only this diagnostic needs it; kept off the import path

    weights = _one_sided_derivative_weights(npts, max_order)
    base = tf.base

    with mpmath.workdps(60):
        hc = mpmath.mpf(h.numerator) / mpmath.mpf(h.denominator)
        amp = mpmath.mpf(base.overall_scale) * mpmath.mpf(base.angular_weight)
        q_exp = mpmath.mpf(base.radial_exponent) + mpmath.mpf(1) / 2
        m_exp = int(base.decay_exponent)
        # V(s) = s^(1/2) * g(s) = amp * s^(p + 1/2) * exp(-s^m), s > 0
        vals = [amp * mpmath.power(i * hc, q_exp)
                * mpmath.exp(-mpmath.power(i * hc, m_exp))
                for i in range(1, npts + 1)]
        r_der = np.array([complex(mpmath.fsum(
            (mpmath.mpf(w.numerator) / mpmath.mpf(w.denominator)) * v
            for w, v in zip(wk, vals)) / hc ** k)
            for k, wk in enumerate(weights)])
    # left side: conjugated branch on mirrored nodes; derivative of
    # order k picks up (-1)^k
    l_der = np.array([((-1.0) ** k) * d.conjugate()
                      for k, d in enumerate(r_der)])

    def mismatch(chi):
        d = np.abs(-np.exp(1j * chi) * l_der - r_der)
        return float(d.max())

    grid = np.linspace(0.0, 2.0 * np.pi, 2049)[:-1]
    grid_vals = np.array([mismatch(c) for c in grid])
    i0 = int(np.argmin(grid_vals))
    lo = grid[(i0 - 1) % len(grid)]
    hi = grid[(i0 + 1) % len(grid)]
    if hi < lo:
        hi += 2.0 * np.pi
    res = optimize.minimize_scalar(mismatch, bounds=(lo, hi),
                                   method="bounded",
                                   options={"xatol": 1e-12})
    candidates = [(mismatch(tf.chi), tf.chi % (2.0 * np.pi)),
                  (float(res.fun), float(res.x) % (2.0 * np.pi))]
    best_val, best_chi = min(candidates, key=lambda t: t[0])
    by_order = tuple(
        float(abs(-np.exp(1j * best_chi) * l_der[k] - r_der[k]))
        for k in range(max_order + 1))
    return ConditionAReport(passed=bool(best_val <= 1e-8),
                            best_chi=best_chi,
                            max_mismatch=best_val,
                            mismatch_by_order=by_order,
                            spacing=float(h), omega_prime=omega_prime)


def spectral_profile(base: FormFactor, beta: float, grid) -> SpectralProfile:
    """Sample xi on a frequency grid."""
    grid = np.asarray(grid, dtype=float)
    vals = np.array([xi(base, beta, g) for g in grid])
    return SpectralProfile(grid=grid, values=vals)
