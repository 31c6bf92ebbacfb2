"""Spectral functions checked against independent integral oracles."""

import itertools
import math
import random
import subprocess
import sys
import textwrap
import warnings
from functools import partial

import numpy as np
import pytest
from scipy import integrate

from resodec import reservoir
from resodec.cli import run
from resodec.errors import (
    InfraredDivergent,
    NumericalError,
    QuadratureNotConverged,
    ValidationError,
)
from resodec.model import FormFactor
from resodec.reservoir import (
    _density_pair,
    _pv_transform,
    _quad,
    _xi_pair,
    check_condition_A,
    half_line_transform,
    mean_inverse_frequency,
    one_sided_density,
    pv_energy_shift,
    thermal_spectral_density,
    xi,
    xi_lorentzian_check,
)

from conftest import CONFIG_DIR, sidon_spec

RNG = np.random.default_rng(20240818)


def make_ff(p, m, scale=1.0):
    return FormFactor(radial_exponent=p, decay_exponent=m,
                      overall_scale=scale)


# =====================================================================
# xi and the signed density
# =====================================================================

def test_xi_closed_form_and_positivity():
    for _ in range(20):
        p = RNG.uniform(-0.5, 2.0)
        m = int(RNG.integers(1, 3))
        beta = RNG.uniform(0.2, 5.0)
        scale = RNG.uniform(0.3, 2.0)
        ff = make_ff(p, m, scale)
        eta = RNG.uniform(0.05, 3.0)
        manual = (eta ** 2 / math.tanh(beta * eta / 2.0)
                  * 4.0 * math.pi * scale ** 2
                  * eta ** (2 * p) * math.exp(-2.0 * eta ** m))
        val = xi(ff, beta, eta)
        assert val >= 0.0
        assert np.isclose(val, manual, rtol=1e-13, atol=0.0)


def test_xi_at_zero_three_regimes():
    beta = 1.7
    assert xi(make_ff(0.3, 2), beta, 0.0) == 0.0
    crit = xi(make_ff(-0.5, 1, scale=0.6), beta, 0.0)
    assert np.isclose(crit, (2.0 / beta) * 4.0 * math.pi * 0.6 ** 2,
                      rtol=1e-13)
    with pytest.raises(InfraredDivergent):
        xi(make_ff(-0.75, 1), beta, 0.0)
    # W(0) reports the divergence, not the principal value it cannot reach
    with pytest.raises(InfraredDivergent):
        half_line_transform(make_ff(-0.9, 1), beta, 0.0)


def test_xi_input_validation():
    ff = make_ff(0.5, 1)
    with pytest.raises(ValidationError):
        xi(ff, -1.0, 1.0)
    with pytest.raises(ValidationError):
        xi(ff, 1.0, -0.5)


def test_xi_lorentzian_check_converges():
    ff = make_ff(0.5, 2)
    beta, eta = 2.0, 1.1
    target = xi(ff, beta, eta)
    devs = [abs(xi_lorentzian_check(ff, beta, eta, eps) - target)
            for eps in (1e-1, 1e-2, 1e-3)]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] <= 5e-3 * max(1.0, target)


@pytest.mark.parametrize("eta, epsilon", [
    (1.0, math.nan), (1.0, math.inf), (1.0, 0.0), (1.0, -1e-3),
    (math.nan, 1e-3), (math.inf, 1e-3), (-0.5, 1e-3)])
def test_xi_lorentzian_check_refuses_bad_input(eta, epsilon):
    with pytest.raises(ValidationError):
        xi_lorentzian_check(make_ff(0.5, 2), 2.0, eta, epsilon)


def test_xi_lorentzian_check_refuses_unconverged_quadrature(monkeypatch):
    # one subinterval cannot meet the tolerance: QUADPACK reports ier = 1
    monkeypatch.setitem(reservoir._QUAD_KW, "limit", 1)
    with pytest.raises(QuadratureNotConverged, match="QUADPACK code 1"):
        xi_lorentzian_check(make_ff(0.5, 2), 2.0, 1.1, 1e-3)


def test_thermal_density_detailed_balance():
    ff = make_ff(0.5, 2, scale=1.3)
    beta = 1.4
    for u in (0.3, 0.9, 2.1):
        d_plus = thermal_spectral_density(ff, beta, u)
        d_minus = thermal_spectral_density(ff, beta, -u)
        assert np.isclose(d_minus, math.exp(-beta * u) * d_plus,
                          rtol=1e-12, atol=0.0)
    # emission + absorption reassemble xi
    u = 0.8
    total = (thermal_spectral_density(ff, beta, u)
             + thermal_spectral_density(ff, beta, -u))
    assert np.isclose(total, xi(ff, beta, u), rtol=1e-13)
    assert np.isclose(thermal_spectral_density(ff, beta, 0.0),
                      0.5 * xi(ff, beta, 0.0))


def test_one_sided_density_relation():
    # J(eta) = eta^2 S(eta), S the isotropic 4 pi scale^2 eta^(2p) e^(-2 eta^m)
    ff = make_ff(0.7, 1, scale=0.9)
    eta = np.array([0.2, 1.0, 1.7])
    assert np.allclose(one_sided_density(ff, eta),
                       4.0 * np.pi * 0.9 ** 2 * eta ** (2 * 0.7 + 2)
                       * np.exp(-2.0 * eta), rtol=1e-14)


# =====================================================================
# Frequency moments and principal-value shifts
# =====================================================================

#: (p, m) cases of the inverse-frequency moment, down to p = -0.999
#: where the integrand r^(2p+1) is nearly 1/r
MOMENT_CASES = [(-0.5, 1), (0.3, 1), (1.2, 1), (-0.4, 2), (0.5, 2),
                (1.5, 2), (-0.95, 1), (-0.99, 1), (-0.999, 1),
                (-0.95, 2), (-0.99, 2), (-0.999, 2)]


def test_mean_inverse_frequency_gamma_oracle():
    # int_0^inf r^(2p+1) exp(-2 r) dr      = Gamma(2p+2) / 2^(2p+2)
    # int_0^inf r^(2p+1) exp(-2 r**2) dr   = Gamma(p+1) / 2^(p+2)
    for p, m in MOMENT_CASES:
        scale = 0.91
        ff = make_ff(p, m, scale)
        a2 = 4.0 * math.pi * scale ** 2
        if m == 1:
            expected = a2 * math.gamma(2 * p + 2) / 2.0 ** (2 * p + 2)
        else:
            expected = a2 * math.gamma(p + 1) / 2.0 ** (p + 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = mean_inverse_frequency(ff)
        assert np.isclose(value, expected, rtol=1e-9, atol=0.0), (p, m)


def test_mean_inverse_frequency_matches_quadrature():
    # x = r^(2p+2) turns int_0^inf r^(2p+1) exp(-2 r^m) dr into
    # int_0^inf exp(-2 x^k) dx / (2p+2), k = m/(2p+2), which is bounded
    # at x = 0; x is clipped where exp(-2 x^k) underflows so that x^k
    # cannot overflow
    for p, m in MOMENT_CASES:
        k = m / (2 * p + 2)
        clip = 375.0 ** (1.0 / k)

        def f(x):
            return math.exp(-2.0 * min(x, clip) ** k)

        total = sum(integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12,
                                   limit=400)[0]
                    for a, b in ((0.0, 1.0), (1.0, np.inf)))
        expected = 4.0 * math.pi * 0.91 ** 2 * total / (2 * p + 2)
        assert np.isclose(mean_inverse_frequency(make_ff(p, m, 0.91)),
                          expected, rtol=1e-10, atol=0.0), (p, m)


def test_mean_inverse_frequency_past_gamma_overflow():
    # Gamma(s) overflows from s ~ 171.6 on (p = 90, m = 1: s = 182), and
    # 4 pi 70^2 Gamma(170) overflows at p = 84, m = 1; the moment
    # Gamma(s) / (m 2^s) is finite in both and comes from log space
    for p, scale in ((90.0, 0.91), (84.0, 70.0)):
        s = 2 * p + 2
        want = 4.0 * math.pi * scale ** 2 \
            * math.exp(math.lgamma(s) - s * math.log(2.0))
        value = mean_inverse_frequency(make_ff(p, 1, scale))
        assert math.isfinite(value)
        assert np.isclose(value, want, rtol=1e-13, atol=0.0), p
    # where Gamma(s) is finite (p = 80: s = 162) the value is the
    # math.gamma closed form to the last bit, as before the fallback
    assert mean_inverse_frequency(make_ff(80.0, 1, 0.91)) \
        == 4.0 * math.pi * 0.91 ** 2 * math.gamma(162) / 2.0 ** 162


def test_mean_inverse_frequency_beyond_float_range():
    # the moment is about 2.6e317 at p = 100, m = 1 (exp overflows) and
    # 5.6e309 at p = 88 with scale 7e19 (the product overflows to inf);
    # neither is a float
    for p, scale, s in ((100.0, 0.91, 202), (88.0, 7e19, 178)):
        with pytest.raises(NumericalError, match=rf"p = {p}, decay "
                           rf"exponent m = 1 \(s = {s}\)"):
            mean_inverse_frequency(make_ff(p, 1, scale))


def test_mean_inverse_frequency_divergence():
    with pytest.raises(InfraredDivergent):
        mean_inverse_frequency(make_ff(-1.2, 1))


def test_pv_shift_antisymmetry_and_zero():
    ff = make_ff(0.5, 2, scale=1.1)
    beta, delta = 1.3, 0.9
    plus = pv_energy_shift(ff, beta, delta)
    minus = pv_energy_shift(ff, beta, -delta)
    assert np.isclose(minus, -plus, rtol=1e-9, atol=1e-12)
    assert abs(pv_energy_shift(ff, beta, 0.0)) <= 1e-10


def test_pv_shift_against_smoothed_oracle():
    # Lorentzian-smoothed PV: int Xi(u) (u-D) / ((u-D)^2 + eps^2) du
    ff = make_ff(0.5, 2)
    beta, delta = 2.0, 0.7

    def smoothed(eps):
        def f(u):
            return (xi(ff, beta, abs(u)) * (u - delta)
                    / ((u - delta) ** 2 + eps ** 2))
        # the integrand is ~ exp(-2 u^2) x polynomial: [-8, 8] is exact
        # to well below the comparison tolerance
        val, _ = integrate.quad(f, -8.0, 8.0, points=[0.0, delta],
                                limit=400, epsabs=1e-11, epsrel=1e-11)
        return val

    target = pv_energy_shift(ff, beta, delta)
    devs = [abs(smoothed(eps) - target) for eps in (1e-1, 1e-2, 1e-3)]
    assert devs[0] > devs[1] > devs[2]     # linear-in-eps convergence
    # the smoothing bias is linear in eps, so Richardson extrapolation
    # over a decade pins the limit far below the raw bias
    extrapolated = (10.0 * smoothed(1e-4) - smoothed(1e-3)) / 9.0
    assert abs(extrapolated - target) <= 1e-4


def test_half_line_transform_identities():
    ff = make_ff(-0.5, 1, scale=1.2)
    beta, delta = 1.0, 1.0
    w0 = half_line_transform(ff, beta, 0.0)
    assert np.isclose(w0.real,
                      0.5 * np.pi * thermal_spectral_density(ff, beta, 0.0),
                      rtol=1e-12)
    assert np.isclose(w0.imag, 0.5 * mean_inverse_frequency(ff),
                      rtol=1e-9)
    wp = half_line_transform(ff, beta, delta)
    wm = half_line_transform(ff, beta, -delta)
    assert np.isclose(wp.imag - wm.imag,
                      0.5 * pv_energy_shift(ff, beta, delta), rtol=1e-9)


PV_POLES = [0.0, 1e-8, -1e-8, 1e-6, -1e-6, 1e-3, -1e-3, 0.5, 1.0, 2.25,
            6.0]


def cauchy_reference(f, pole):
    """P.V. int f(u) / (u - pole) du by QUADPACK: the Cauchy-weight rule
    on a window around the pole and plain adaptive quadrature elsewhere,
    split at f's kink 0 and, for a tiny pole, at every second decade of
    |pole| up to 1, so the pole's scale is resolved."""
    kw = dict(epsabs=1e-13, epsrel=1e-12, limit=500)
    w = min(0.5, abs(pole) / 4.0) if pole else 1.0
    val = integrate.quad(f, pole - w, pole + w, weight="cauchy",
                         wvar=pole, **kw)[0]
    cuts = {-np.inf, pole - w, pole + w, np.inf}
    if pole:
        decades = abs(pole) * 100.0 ** np.arange(
            1 + max(0, int(-math.log10(abs(pole)))) // 2)
        cuts |= {0.0, *(2.0 * abs(pole) + decades),
                 *(-2.0 * abs(pole) - decades)}
    edges = sorted(cuts)
    for a, b in zip(edges[:-1], edges[1:]):
        if a != pole - w:
            val += integrate.quad(lambda u: f(u) / (u - pole), a, b,
                                  **kw)[0]
    return val


@pytest.mark.parametrize("beta", [1.0, 30.0])
@pytest.mark.parametrize("p, m", [(-0.5, 1), (0.5, 2), (-0.3, 1)])
def test_pv_transform_matches_cauchy_quadrature(p, m, beta):
    ff = make_ff(p, m)
    got = _pv_transform(partial(_density_pair, ff, beta), PV_POLES)
    for pole, value in zip(PV_POLES, got):
        want = cauchy_reference(
            lambda u: thermal_spectral_density(ff, beta, u), pole)
        assert abs(value - want) <= 1e-10 * abs(want), (pole, value, want)


def test_pv_transform_is_independent_of_the_batch(monkeypatch):
    f = partial(_density_pair, make_ff(0.5, 2), 1.0)
    poles = np.array(PV_POLES)
    batched = _pv_transform(f, poles)
    # bitwise: every pole is summed along its own row
    assert np.array_equal(batched,
                          [_pv_transform(f, [pole])[0] for pole in poles])
    assert np.array_equal(batched, _pv_transform(f, poles[::-1])[::-1])
    monkeypatch.setattr(reservoir, "_PV_BLOCK", 3)
    assert np.array_equal(batched, _pv_transform(f, poles))
    monkeypatch.setattr(reservoir, "_PV_TOL", 0.0)
    with pytest.raises(QuadratureNotConverged):
        _pv_transform(f, poles)


def _reference_xi(base, beta, u):
    """Xi(u) = xi(|u|) elementwise, for u != 0."""
    eta = np.abs(u)
    return one_sided_density(base, eta) / np.tanh(beta * eta / 2.0)


def _reference_density(base, beta, u):
    """D(u) elementwise, for u != 0."""
    eta = np.abs(u)
    t = np.tanh(beta * eta / 2.0)
    return 0.5 * (one_sided_density(base, eta) / t) * (1.0 + np.sign(u) * t)


def _reference_pv_transform(f, poles, tol=1e-8):
    """The principal-value transform as it was before conjugate poles
    shared their integrand values: every pole evaluates f at its own
    signed nodes, in blocks of 64 poles.  Frozen as the bitwise
    reference of _pv_transform."""
    poles = np.asarray(poles, dtype=float)
    if poles.size > 64:
        return np.concatenate([_reference_pv_transform(f, poles[i:i + 64],
                                                        tol)
                               for i in range(0, poles.size, 64)])
    out = np.empty(poles.shape)
    todo = np.arange(poles.size)
    for level in range(4):
        total, err = _reference_de_pass(f, poles[todo, None],
                                        1.0 / 32.0 / 2 ** level)
        ok = err <= np.maximum(tol, tol * np.abs(total))
        out[todo[ok]] = total[ok]
        todo, err = todo[~ok], err[~ok]
        if not todo.size:
            return out
    raise QuadratureNotConverged(
        f"principal-value error estimate {err[0]:.2e} at pole "
        f"{poles[todo[0]]!r} exceeds tolerance")


def _reference_de_pass(f, p, h):
    """(S_h, |S_h - S_2h|) of the reference's pieces at poles p (n, 1)."""
    k = np.arange(-round(5.0 / h), round(5.0 / h) + 1)
    q = 1.0 / (1.0 + np.exp(np.pi * np.sinh(np.abs(k * h))))
    ts_w = np.pi * np.cosh(k * h) * q * (1.0 - q)
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


#: PV_POLES with both zeros, poles on either side of the near-zero
#: bound 1e-14, and poles whose mirror is absent
REFERENCE_POLES = PV_POLES + [-0.0, 1e-15, -1e-15, 3e-14, -3e-14, 1e-14,
                              -2.5, 0.7, -40.0]


def _transform_or_error(transform, f, poles):
    """The transform's bytes, or the message it raised."""
    try:
        return transform(f, poles).tobytes()
    except QuadratureNotConverged as exc:
        return str(exc)


@pytest.mark.parametrize("beta", [0.5, 1.0, 30.0])
@pytest.mark.parametrize("pair, reference",
                         [(_density_pair, _reference_density),
                          (_xi_pair, _reference_xi)])
def test_pv_transform_is_bitwise_the_per_pole_reference(pair, reference,
                                                       beta):
    spec = sidon_spec(np.random.default_rng(5))
    e = spec.energies
    gaps = sorted({round(g, 12) for g in (e[:, None] - e).ravel().tolist()})
    assert len(gaps) == 381
    ffs = [term.form_factor for term in spec.couplings] \
        + [make_ff(-0.3, 1), make_ff(1.5, 1, 0.3)]
    outcomes = set()
    for ff, poles in itertools.product(ffs, (gaps, REFERENCE_POLES, [])):
        want = _transform_or_error(_reference_pv_transform,
                                   partial(reference, ff, beta), poles)
        got = _transform_or_error(_pv_transform, partial(pair, ff, beta),
                                  poles)
        assert got == want, (ff, poles[:3])
        outcomes.add(type(got))
    if beta == 1.0:
        # p = -0.3 fails at the poles +-1e-15 next to its kink at 0
        assert outcomes == {bytes, str}


def test_pv_transform_refines_like_the_reference(monkeypatch):
    ff, beta = make_ff(-0.5, 1), 1.0
    steps = []
    de_pass = reservoir._de_pass
    monkeypatch.setattr(reservoir, "_de_pass", lambda pair, p, h: (
        steps.append(h), de_pass(pair, p, h))[1])
    for tol in (1e-8, 1e-13):
        monkeypatch.setattr(reservoir, "_PV_TOL", tol)
        got = _pv_transform(partial(_density_pair, ff, beta),
                            REFERENCE_POLES)
        want = _reference_pv_transform(partial(_reference_density, ff, beta),
                                       REFERENCE_POLES, tol)
        assert got.tobytes() == want.tobytes()
    assert min(steps) == 1.0 / 32.0 / 8
    monkeypatch.setattr(reservoir, "_PV_TOL", 0.0)
    with pytest.raises(QuadratureNotConverged) as exc:
        _pv_transform(partial(_xi_pair, ff, beta), REFERENCE_POLES)
    with pytest.raises(QuadratureNotConverged) as want:
        _reference_pv_transform(partial(_reference_xi, ff, beta),
                                REFERENCE_POLES, 0.0)
    assert str(exc.value) == str(want.value)


# =====================================================================
# Condition (A)
# =====================================================================

def test_condition_a_passes_for_smooth_gluings():
    # p = -1/2 + integer with Gaussian decay glues analytically; the
    # best chi alternates with the parity of the branch function
    for p, expect_chi in [(-0.5, np.pi), (0.5, 0.0), (1.5, np.pi)]:
        rep = check_condition_A(make_ff(p, 2))
        assert rep.passed, (p, rep.mismatch_order)
        assert rep.mismatch_order is None
        assert np.isclose(rep.best_chi % (2 * np.pi), expect_chi,
                          atol=1e-3)


def test_condition_a_fails_for_kinks_and_fractional_powers():
    # (p, m, first one-sided derivative order no gluing phase matches):
    # ceil(p + 1/2) for a fractional power, p + 3/2 for the kink of
    # exp(-|u|) at an integer p + 1/2, 0 for a divergent branch
    cases = [(0.5, 1, 2), (-0.5, 1, 1), (0.3, 2, 1), (0.0, 2, 1),
             (2.5, 1, 4), (3.5, 1, 5), (3.3, 2, 4), (5.2, 2, 6),
             (-0.8, 1, 0)]
    for p, m, order in cases:
        rep = check_condition_A(make_ff(p, m))
        assert not rep.passed, (p, m)
        assert rep.mismatch_order == order, (p, m, rep.mismatch_order)
    # a fractional power and a divergent branch single out no phase
    for p, m in [(0.3, 2), (-0.8, 1)]:
        assert check_condition_A(make_ff(p, m)).best_chi is None, (p, m)


def test_condition_a_zero_form_factor():
    rep = check_condition_A(make_ff(0.5, 2, scale=0.0))
    assert rep.passed and rep.mismatch_order is None
    assert rep.best_chi is None


# =====================================================================
# The package's QUADPACK loader against scipy.integrate.quad, bit for bit
# =====================================================================

QUAD_TOLERANCES = {
    "default": dict(epsabs=1.49e-8, epsrel=1.49e-8, limit=50),
    "package": reservoir._QUAD_KW,
    "limit200": dict(limit=200),
    "tight": dict(epsabs=0.0, epsrel=1e-13),
}


def _quad_family(name, rng):
    """One random integral (f, a, b) of the named family."""
    c = rng.uniform(0.1, 5.0)
    x0 = rng.uniform(0.0, 3.0)
    if name == "power-exp":
        p = rng.uniform(-0.9, 3.0)
        return (lambda x: x ** p * math.exp(-c * x), 0.0,
                rng.choice([rng.uniform(0.1, 20.0), math.inf]))
    if name == "lorentzian":
        w = 10.0 ** rng.uniform(-4.0, 0.0)
        return (lambda x: w / ((x - x0) ** 2 + w * w) / math.pi, 0.0,
                rng.choice([rng.uniform(1.0, 5.0), math.inf]))
    if name == "log":
        return lambda x: c * math.log(x), 0.0, rng.uniform(0.1, 3.0)
    if name == "inverse-sqrt":
        return (lambda x: 1.0 / math.sqrt(abs(x - x0)) if x != x0 else 0.0,
                0.0, rng.uniform(3.0, 5.0))
    # drives the extrapolation table and the roundoff branches
    return (lambda x: math.sin(30.0 * c * x) / (1.0 + x * x),
            rng.uniform(0.0, 2.0), math.inf)


def _assert_quad_bitwise(f, a, b, **kw):
    """_quad calls f at scipy's nodes in scipy's order, returns its
    value and error estimate bit for bit and flags the same failures;
    returns _quad's (value, abserr, ier)."""
    ours, theirs = [], []
    value, abserr, ier = _quad(lambda x: ours.append(x) or f(x), a, b,
                               **{**QUAD_TOLERANCES["default"], **kw})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        out = integrate.quad(lambda x: theirs.append(x) or f(x), a, b,
                             full_output=1, **kw)
    assert (value, abserr) == out[:2]
    assert ours == theirs
    # scipy appends a message exactly when QUADPACK's code is nonzero
    assert (ier != 0) == (len(out) == 4)
    return value, abserr, ier


@pytest.mark.parametrize("tol", QUAD_TOLERANCES)
@pytest.mark.parametrize("family", ["power-exp", "lorentzian", "log",
                                    "inverse-sqrt", "oscillatory"])
def test_quadpack_port_is_bitwise_scipy(family, tol):
    rng = random.Random(f"{family}/{tol}")
    for _ in range(12):
        _assert_quad_bitwise(*_quad_family(family, rng),
                             **QUAD_TOLERANCES[tol])


@pytest.mark.parametrize("f, b, code", [
    (lambda x: 3.89 * math.log(x), 2.88, 2),                   # roundoff
    (lambda x: x ** -0.48 * math.exp(-2.23 * x), math.inf, 4),  # extrapolation
], ids=["roundoff", "extrapolation"])
def test_quadpack_port_failure_codes(f, b, code):
    # the random draws above reach codes 0, 1, 3 and 5; these two reach
    # the rarer ones
    _, _, ier = _assert_quad_bitwise(f, 0.0, b, **QUAD_TOLERANCES["tight"])
    assert ier == code


def test_package_quadratures_are_bitwise_scipy(monkeypatch, tmp_path):
    # every integral the package evaluates on its shipped configurations:
    # the xi subcommand's Lorentzian check (the oracle's bath weight is
    # a closed form); _assert_quad_bitwise calls the _quad imported
    # above, not the spy
    codes = []

    def spy(f, a, b, **kw):
        result = _assert_quad_bitwise(f, a, b, **kw)
        codes.append(result[2])
        return result

    monkeypatch.setattr(reservoir, "_quad", spy)
    assert run(["xi", "--config", str(CONFIG_DIR / "xi_grid.json"),
                "-o", str(tmp_path / "xi.csv")]) == 0
    assert len(codes) == 162
    assert set(codes) == {0}


def _probe(source):
    """The lines that `source` prints in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(source)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_quad_loaded_first_serves_a_later_scipy_integrate():
    # _quad loads scipy's extension without scipy.integrate; importing
    # scipy.integrate afterwards finds that module, and quad returns
    # _quad's value and error estimate on both interval forms
    assert _probe("""
        import math, sys
        from resodec.reservoir import _quad
        f = lambda x: x ** -0.3 * math.exp(-x)
        ours = [_quad(f, 0.0, b, 1e-11, 1e-11, 400) for b in (2.0, math.inf)]
        loaded = sys.modules["scipy.integrate._quadpack"]
        print("scipy.integrate" in sys.modules)
        import scipy.integrate
        theirs = [scipy.integrate.quad(f, 0.0, b, epsabs=1e-11,
                                       epsrel=1e-11, limit=400)
                  for b in (2.0, math.inf)]
        print([o[:2] for o in ours] == theirs, [o[2] for o in ours],
              sys.modules["scipy.integrate._quadpack"] is loaded)
        """) == ["False", "True [0, 0] True"]


def test_special_ufuncs_loaded_first_serve_a_later_scipy_special():
    # the oracle's jv and gammainc come from scipy.special's compiled
    # module, loaded without scipy.special; importing scipy.special
    # afterwards finds that module and re-exports the same ufuncs
    assert _probe("""
        import sys
        from resodec.reservoir import _scipy_extension
        ufuncs = _scipy_extension("scipy.special._special_ufuncs")
        print(sorted(m for m in sys.modules if m.startswith("scipy.special")))
        import scipy.special
        print(scipy.special.jv is ufuncs.jv,
              scipy.special.gammainc is ufuncs.gammainc,
              sys.modules["scipy.special._special_ufuncs"] is ufuncs)
        """) == ["['scipy.special._special_ufuncs']", "True True True"]


def test_sparsetools_loaded_by_the_oracle_serve_a_later_scipy_sparse():
    # the oracle's sparse products call scipy.sparse's compiled kernels,
    # loaded without scipy.sparse; importing scipy.sparse afterwards
    # finds that module, and a CSR product through scipy.sparse is still
    # right
    assert _probe("""
        import sys
        import numpy as np
        from resodec.model import FormFactor, build_system
        from resodec.oracle import discretize_bath, exact_evolve
        ff = FormFactor(radial_exponent=0.5, decay_exponent=2)
        spec = build_system([0.0, 1.0], [(0.05, [[0, 1], [1, 0]], ff)],
                            beta=2.0)
        exact_evolve(spec, discretize_bath(ff, 2.0, 30, 3.0, 2),
                     np.eye(2) / 2, [0.0, 0.5])
        kernels = sys.modules["scipy.sparse._sparsetools"]
        import scipy.sparse
        import scipy.sparse._sparsetools as imported
        print(imported is kernels,
              scipy.sparse._compressed._sparsetools is kernels)
        dense = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        vecs = np.arange(6.0).reshape(3, 2)
        print(np.array_equal(scipy.sparse.csr_matrix(dense) @ vecs,
                             dense @ vecs))
        """) == ["True True", "True"]


def test_scipy_extension_raises_import_error_for_a_missing_module():
    # a scipy release without the module gives ModuleNotFoundError (an
    # ImportError), not module_from_spec's AttributeError on None
    with pytest.raises(ModuleNotFoundError, match="_no_such_module"):
        reservoir._scipy_extension("scipy.special._no_such_module")
    assert "scipy.special._no_such_module" not in sys.modules


def test_special_ufuncs_fall_back_to_scipy_special(monkeypatch):
    # with no compiled _special_ufuncs to find (as on scipy releases that
    # keep their ufuncs in _ufuncs), jv and gammainc come from the
    # scipy.special package, and the moment keeps its bits
    import importlib.machinery

    import scipy.special
    ff = FormFactor(radial_exponent=0.5, decay_exponent=2)
    want = reservoir._radial_moment(ff, 2, upper=1.3)
    find_spec = importlib.machinery.PathFinder.find_spec
    name = "scipy.special._special_ufuncs"
    monkeypatch.delitem(sys.modules, name)
    monkeypatch.setattr(
        importlib.machinery.PathFinder, "find_spec",
        lambda fullname, *args: None if fullname == name
        else find_spec(fullname, *args))
    assert reservoir._special_ufunc("jv") is scipy.special.jv
    assert reservoir._special_ufunc("gammainc") is scipy.special.gammainc
    assert reservoir._radial_moment(ff, 2, upper=1.3) == want
    assert name not in sys.modules


def test_quad_reuses_the_quadpack_that_scipy_loaded():
    # with scipy.integrate imported first, _quad calls into the loaded
    # module (spied on here) and loads no second copy
    assert _probe("""
        import importlib.util, math, sys
        import scipy.integrate
        loaded = sys.modules["scipy.integrate._quadpack"]
        calls, qagse = [], loaded._qagse
        loaded._qagse = lambda *args: calls.append(args[1:3]) or qagse(*args)
        def refuse(spec):
            raise AssertionError(f"second load of {spec.name}")
        importlib.util.module_from_spec = refuse
        from resodec.reservoir import _quad
        f = lambda x: math.exp(-x * x)
        ours = _quad(f, 0.0, 2.0, 1e-11, 1e-11, 400)
        print(calls, sys.modules["scipy.integrate._quadpack"] is loaded)
        print(ours[:2] == scipy.integrate.quad(f, 0.0, 2.0, epsabs=1e-11,
                                               epsrel=1e-11, limit=400))
        """) == ["[(0.0, 2.0)] True", "True"]
