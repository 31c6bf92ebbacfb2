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
* ``check_condition_A`` — the exact decision of Condition (A), whether
  the form factor glued across frequency zero is analytic there; it
  reads only the radial and decay exponents p and m.

Everything is a pure function of immutable inputs.  Importing this
module costs numpy alone.  ``xi_lorentzian_check`` integrates with
QUADPACK (``_quad``): scipy's compiled extension, the one behind
``scipy.integrate.quad``, loaded on first use without importing the
``scipy.integrate`` package (about 0.5 s); ``_radial_moment`` takes
``gammainc`` from ``scipy.special``'s compiled ufunc module the same way
(``_special_ufunc``), without the ``scipy.special`` package where the
installed scipy has that module.
"""

from __future__ import annotations

import contextlib
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    InfraredDivergent,
    NumericalError,
    QuadratureNotConverged,
    ValidationError,
)
from .model import FormFactor, _beta, _positive, _real, _reals

__all__ = [
    "ConditionAReport",
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
#: pole magnitudes per principal-value batch: up to twice as many
#: poles, with about 2 MB of work arrays
_PV_BLOCK = 32


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
    form: 4*pi*scale^2 * eta^(2p) * exp(-2 eta^m)).  eta is a number or
    an array of finite numbers (ValidationError otherwise)."""
    return _angular_square(base, _reals(eta, "eta"))


def _angular_square(base: FormFactor, eta: np.ndarray) -> np.ndarray:
    """S(eta) elementwise for a float array eta, unchecked."""
    return (_FOUR_PI * base.overall_scale ** 2
            * eta ** (2.0 * base.radial_exponent)
            * np.exp(-2.0 * eta ** base.decay_exponent))


def one_sided_density(base: FormFactor, eta):
    """J(eta) = eta^2 * S(eta): zero-temperature emission density.  eta
    is a number or an array of finite numbers (ValidationError
    otherwise)."""
    eta = _reals(eta, "eta")
    return eta ** 2 * angular_square(base, eta)


def _one_sided_density(base: FormFactor, eta: np.ndarray) -> np.ndarray:
    """J(eta) elementwise for a float array eta, unchecked: the
    principal-value kernels evaluate it at nodes they built."""
    return eta ** 2 * _angular_square(base, eta)


def xi(base: FormFactor, beta: float, eta: float) -> float:
    """The coth-weighted spectral function at frequency eta >= 0.

    eta > 0: eta^2 * coth(beta*eta/2) * S(eta).
    eta = 0: the eta -> 0+ limit — 0 for p > -1/2, the finite value
    (2/beta) * 4*pi*scale^2 for p = -1/2, divergent otherwise.

    beta must be finite and > 0 (NonPositiveBeta otherwise, infinity
    included), and eta a finite number >= 0 (ValidationError).
    """
    _beta(beta)
    eta = _real(eta, "eta")
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
    return _xi_positive(base, beta, eta)


def _xi_positive(base: FormFactor, beta: float, eta: float) -> float:
    """xi(eta) for a checked beta and a float eta > 0, unchecked."""
    return eta * eta * _square_scalar(base, eta) / math.tanh(beta * eta / 2.0)


def xi_lorentzian_check(base: FormFactor, beta: float, eta: float,
                        epsilon: float) -> float:
    """Pre-limit Lorentzian-smoothed value of xi(eta) for eta > 0:
    (1/pi) * int_0^inf xi(r) * eps / ((r-eta)^2 + eps^2) dr.

    Used only as a quadrature cross-check oracle for ``xi``; converges
    to xi(eta) as epsilon decreases.
    """
    _beta(beta)
    eta = _real(eta, "eta")
    if eta < 0.0:
        raise ValidationError(f"eta must be >= 0, got {eta!r}")
    epsilon = _positive(epsilon, "epsilon")
    if base.is_zero:
        return 0.0

    def f(r):
        # QUADPACK's nodes are interior, so r > 0
        return (_xi_positive(base, beta, r) * epsilon
                / ((r - eta) ** 2 + epsilon ** 2) / np.pi)

    pts = sorted({max(eta - 10 * epsilon, 0.0), eta,
                  eta + 10 * epsilon})
    total, err = 0.0, 0.0
    edges = [0.0] + [p for p in pts if p > 0.0] + [np.inf]
    for a, b in zip(edges[:-1], edges[1:]):
        v, e, ier = _quad(f, a, b, **_QUAD_KW)
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


def _scipy_extension(name: str):
    """scipy's compiled module ``name``, "scipy.<subpackage>.<module>",
    loaded from the subpackage's directory once, after scipy's core
    alone, and registered under ``name``.  The subpackage's __init__
    never runs (``scipy.integrate``'s costs about 0.5 s;
    ``scipy.special``'s 75-113 ms and 5.6 MB, against 1 ms and 1.3 MB
    for ``_special_ufuncs``; ``scipy.sparse``'s about 300 modules and
    22 MB, against 2.3 MB for ``_sparsetools``), a module that scipy has
    loaded already is reused, and a later import of the subpackage finds
    this one.  Loaded in this order, the module is never set as an
    attribute of its subpackage: once the subpackage is imported, the
    attribute lookup ``scipy.sparse._sparsetools`` fails, while an
    import statement naming the module gives it.  A scipy release
    without the module raises ModuleNotFoundError."""
    module = sys.modules.get(name)
    if module is None:
        import scipy
        subpackage = name.split(".")[1]
        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(d, subpackage) for d in scipy.__path__])
        if spec is None:
            raise ModuleNotFoundError(
                f"scipy {scipy.__version__} has no module {name}", name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module


def _special_ufunc(fn: str):
    """scipy.special's ufunc ``fn``, from its compiled module
    ``_special_ufuncs`` (see ``_scipy_extension``).  On a scipy release
    whose compiled modules are laid out otherwise (older releases keep
    their ufuncs in ``_ufuncs``) ``fn`` comes from the ``scipy.special``
    package, the same object by another import path."""
    try:
        return getattr(_scipy_extension("scipy.special._special_ufuncs"), fn)
    except (ImportError, AttributeError):
        import scipy.special
        return getattr(scipy.special, fn)


def _quad(f, a: float, b: float, epsabs: float, epsrel: float,
          limit: int) -> tuple:
    """(value, abserr, ier) of QUADPACK's QAGS over [a, b], or of its
    QAGI over [a, inf) for b = inf: the calls that scipy.integrate.quad
    makes, on the same extension module, so the bits are scipy's."""
    quadpack = _scipy_extension("scipy.integrate._quadpack")
    if b == math.inf:
        return quadpack._qagie(f, a, 1, (), 0, epsabs, epsrel, limit)
    return quadpack._qagse(f, a, b, (), 0, epsabs, epsrel, limit)


def thermal_spectral_density(base: FormFactor, beta: float, u: float) -> float:
    """Signed-frequency emission/absorption density
    D(u) = xi(|u|) (1 + sign(u) tanh(beta|u|/2)) / 2.

    D(u) for u > 0 weights decay processes releasing energy u into the
    reservoir, D(-u) = exp(-beta*u) D(u) the reverse absorption.  u
    must be a finite number (ValidationError).
    """
    u = _real(u, "u")
    x = xi(base, beta, abs(u))
    if u == 0.0:
        return 0.5 * x
    t = math.tanh(beta * abs(u) / 2.0)
    return 0.5 * x * (1.0 + t if u > 0.0 else 1.0 - t)


def _radial_moment(base: FormFactor, k: int,
                   upper: float = math.inf) -> float:
    """int_0^upper r^k S(r) dr = 4*pi*scale^2 * Gamma(s)
    P(s, 2 upper^m) / (m * 2^s), s = (2p + 1 + k)/m, P = gammainc (1,
    and no scipy, for upper = inf; otherwise the ufunc that
    scipy.special re-exports, taken from its compiled module).  Past an
    overflow (of Gamma(s) from s ~ 171.6 on) Gamma(s) P / 2^s is taken
    in log space; a moment outside the float range raises
    NumericalError."""
    m = base.decay_exponent
    s = (2.0 * base.radial_exponent + 1.0 + k) / m
    share = 1.0
    if math.isfinite(upper):
        share = float(_special_ufunc("gammainc")(s, 2.0 * upper ** m))
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

def _xi_pair(base: FormFactor, beta: float, eta):
    """(Xi(eta), Xi(-eta)) elementwise for eta > 0: Xi(u) = xi(|u|)."""
    xi_eta = _one_sided_density(base, eta) / np.tanh(beta * eta / 2.0)
    return xi_eta, xi_eta


def _density_pair(base: FormFactor, beta: float, eta):
    """(D(eta), D(-eta)) elementwise for eta > 0."""
    t = np.tanh(beta * eta / 2.0)
    xi_eta = _one_sided_density(base, eta) / t
    return 0.5 * xi_eta * (1.0 + t), 0.5 * xi_eta * (1.0 - t)


def _pv_transform(pair, poles) -> np.ndarray:
    """P.V. int_R f(u) / (u - pole) du at every pole, in one batch.

    pair(eta) gives (f(eta), f(-eta)) elementwise for eta > 0; f decays
    at infinity and may kink only at 0.  A window of half-width
    w = min(1, |pole|/2) (1 at pole 0) takes the odd part
    (f(pole+s) - f(pole-s))/s; f(u)/(u - pole) is integrated over the
    piece between 0 and the nearer window edge and two tails.
    Double-exponential rules (Takahasi and Mori, Publ. RIMS 9, 721,
    1974) with error estimate |S_h - S_2h|; a pole above _PV_TOL is
    redone alone at h/2.  The poles +P and -P share one evaluation of
    pair (see _de_pass).  Sums run along one pole's row, so no value
    depends on the batch, and blocks of _PV_BLOCK magnitudes |pole|
    (about 2 MB of work arrays) bound the memory.
    """
    poles = np.asarray(poles, dtype=float)
    mags, index = _magnitudes(poles)
    if mags.size > _PV_BLOCK:
        block = index // _PV_BLOCK
        out = np.empty(poles.shape)
        for b in range(block.max() + 1):
            at = block == b
            out[at] = _pv_transform(pair, poles[at])
        return out
    out = np.empty(poles.shape)
    todo = np.arange(poles.size)
    for level in range(_DE_LEVELS):
        total, err = _de_pass(pair, poles[todo], _DE_STEP / 2 ** level)
        ok = err <= np.maximum(_PV_TOL, _PV_TOL * np.abs(total))
        out[todo[ok]] = total[ok]
        todo, err = todo[~ok], err[~ok]
        if not todo.size:
            return out
    raise QuadratureNotConverged(
        f"principal-value error estimate {err[0]:.2e} at pole "
        f"{poles[todo[0]]!r} exceeds tolerance")


def _magnitudes(poles: np.ndarray) -> tuple:
    """(the distinct |pole| in increasing order, each pole's index into
    them).  A sorted set: np.unique imports numpy.ma (about 15 ms and
    0.4 MB) on its first call, and np.sort's vectorized sort pages in
    about 0.2 MB that the register pipeline otherwise never loads."""
    mags = np.array(sorted(set(np.abs(poles).tolist())), dtype=float)
    return mags, np.searchsorted(mags, np.abs(poles))


def _de_pass(pair, p: np.ndarray, h: float) -> tuple:
    """(S_h, |S_h - S_2h|) of _pv_transform's pieces at the poles p.

    The poles +P and -P of a magnitude P > 1e-14 read pair once, at the
    nodes u > 0 of +P.  IEEE negation is exact and rounding symmetric,
    so the nodes of -P are exactly -u: its finite piece runs over them
    in reverse k order, its tails are those of +P swapped, and the tail
    from 0 is the same for every pole.  Each row therefore holds, in the
    same order, the values an evaluation of its own pole gives.  A pole
    within 1e-14 of 0 has nodes on both sides of 0 and is evaluated
    alone.
    """
    # tanh-sinh, t in [-5, 5]: nodes kept as their distance q (in units
    # of b - a) to the nearer end, which they never round onto
    k = np.arange(-round(5.0 / h), round(5.0 / h) + 1)
    q = 1.0 / (1.0 + np.exp(np.pi * np.sinh(np.abs(k * h))))
    ts_w = np.pi * np.cosh(k * h) * q * (1.0 - q)
    # exp-sinh on [0, inf), t in [-5.5, 2.5]: nodes from 1e-83 to 1e4
    j = np.arange(-round(5.5 / h), round(2.5 / h) + 1)
    y = np.exp(0.5 * np.pi * np.sinh(j * h))
    es_w = 0.5 * np.pi * np.cosh(j * h) * y

    def finite(a, b):
        return np.where(k > 0, b - (b - a) * q, a + (b - a) * q), \
            (b - a) * ts_w

    def g(u, f_u, pole):
        return f_u / (u - pole)

    def sums(*pieces):
        total = err = 0.0
        for v, even in pieces:
            fine = h * v.sum(axis=1)
            total += fine
            err += np.abs(fine - 2.0 * h * v[:, even].sum(axis=1))
        return total, err

    even_k, even_j = k % 2 == 0, j % 2 == 0
    total, err = np.empty(p.shape), np.empty(p.shape)
    near = np.abs(p) <= 1e-14
    if near.any():
        # window [p - 1, p + 1]; the piece between 0 and it is empty
        def f(u):
            return np.where(u > 0.0, *pair(np.abs(u)))

        c = p[near, None]
        s, ds = finite(0.0, 1.0)
        left, right = (c - 1.0) - y, (c + 1.0) + y
        total[near], err[near] = sums(
            ((f(c + s) - f(c - s)) / s * ds, even_k),
            (g(left, f(left), c) * es_w, even_j),
            (g(right, f(right), c) * es_w, even_j))
    if near.all():
        return total, err
    mags, row = _magnitudes(p[~near])
    c = mags[:, None]
    w = np.minimum(1.0, c / 2.0)
    lo, hi = c - w, c + w
    s, ds = finite(0.0, w)
    x, dx = finite(0.0, lo)
    t = hi + y
    (a_plus, a_minus), (b_plus, b_minus) = pair(c + s), pair(c - s)
    (x_plus, x_minus), (t_plus, t_minus) = pair(x), pair(t)
    y_plus, y_minus = pair(y)
    plus = sums(((a_plus - b_plus) / s * ds, even_k),
                (g(x, x_plus, c) * dx, even_k),
                (g(-y, y_minus, c) * es_w, even_j),
                (g(t, t_plus, c) * es_w, even_j))
    minus = sums(((b_minus - a_minus) / s * ds, even_k),
                 (g(-x[:, ::-1], x_minus[:, ::-1], -c) * dx, even_k),
                 (g(-t, t_minus, -c) * es_w, even_j),
                 (g(y, y_plus, -c) * es_w, even_j))
    negative = p[~near] < 0.0
    total[~near] = np.where(negative, minus[0][row], plus[0][row])
    err[~near] = np.where(negative, minus[1][row], plus[1][row])
    return total, err


def pv_energy_shift(base: FormFactor, beta: float, Delta: float) -> float:
    """P.V. int_R  u^2 S(|u|) coth(beta|u|/2) / (u - Delta) du.

    The integrand is the even extension Xi(u) = xi(|u|); any |c|^2/2
    style prefactor is the caller's business.  Finite for p > -1.
    Delta must be a finite number (ValidationError).
    """
    _beta(beta)
    Delta = _real(Delta, "Delta")
    if base.is_zero:
        return 0.0
    if base.radial_exponent <= -1.0:
        raise InfraredDivergent(
            "principal-value shift integrand is not integrable at zero "
            f"frequency for p = {base.radial_exponent} <= -1")
    return float(_pv_transform(partial(_xi_pair, base, beta), [Delta])[0])


def _half_line_transforms(base: FormFactor, beta: float, omegas,
                          densities) -> list:
    """W at every omega from the densities D(omega) there, with one
    batched principal-value transform."""
    shifts = np.zeros(len(omegas)) if base.is_zero else 0.5 * \
        _pv_transform(partial(_density_pair, base, beta), omegas)
    return [complex(0.5 * np.pi * d, float(s))
            for d, s in zip(densities, shifts)]


def half_line_transform(base: FormFactor, beta: float,
                        omega: float) -> complex:
    """One-sided reservoir correlation transform
    W(omega) = (pi/2) D(omega) + i s(omega).

    Its real part drives golden-rule decay at Bohr gap omega, its
    imaginary part the corresponding energy (Lamb-type) shift.  omega
    must be a finite number (ValidationError).
    """
    omega = _real(omega, "omega")
    return _half_line_transforms(
        base, beta, [omega], [thermal_spectral_density(base, beta, omega)])[0]


# =====================================================================
# Condition (A)
# =====================================================================

@dataclass(frozen=True)
class ConditionAReport:
    """Result of the frequency-zero analyticity decision: the lowest
    one-sided derivative order that no gluing phase matches (None when
    the glued form factor is analytic), and the phase that matches the
    orders below it (None when every phase does the same)."""

    passed: bool
    best_chi: float | None
    mismatch_order: int | None


def check_condition_A(ff: FormFactor) -> ConditionAReport:
    """Decide Condition (A): is the form factor, glued across frequency
    zero, analytic there for some gluing phase chi?

    At inverse temperature beta the glued form factor is
    sqrt(u / (1 - e^(-beta u))) |u|^(1/2) times g(u) for u >= 0 and
    -e^(i chi) conj(g)(-u) for u < 0.  The thermal prefactor
    sqrt(u / (1 - e^(-beta u))) is analytic and positive near u = 0,
    so only the real branch V(s) = A s^q e^(-s^m), q = p + 1/2,
    matters: V(u) on the right, -e^(i chi) V(-u) on the left.  The
    right branch continues analytically through 0 exactly when q is a
    non-negative integer (within 1e-12), to A u^q e^(-u^m); on the left
    that reads A (-1)^q |u|^q e^(-(-1)^m |u|^m).  With m = 2 both sides
    agree for e^(i chi) = (-1)^(q+1) (chi = pi for even q, 0 for odd
    q): PASS.  With m = 1 that chi matches orders up to q, and the
    one-sided derivatives of order q + 1 differ.  A non-integer q >= 0
    first fails at order ceil(q), where the right branch's derivative
    diverges, and q < 0 fails at order 0.  ``mismatch_order`` is the
    lowest one-sided derivative order that no chi matches (None on a
    PASS); ``best_chi`` is the chi that matches the orders below it,
    and None where every chi does the same (a non-integer q, q < 0 and
    the zero form factor).  The decision reads only p and m, so it is
    exact, the same at every beta, and no frequency window enters.
    """
    if ff.is_zero:
        return ConditionAReport(passed=True, best_chi=None,
                                mismatch_order=None)
    q = ff.radial_exponent + 0.5
    k = round(q)
    if abs(q - k) > 1e-12 or k < 0:
        order, chi = max(math.ceil(q), 0), None
    else:
        order = None if ff.decay_exponent == 2 else k + 1
        chi = np.pi if k % 2 == 0 else 0.0
    return ConditionAReport(passed=order is None, best_chi=chi,
                            mismatch_order=order)
