"""Adaptive quadrature: a pure-Python port of QUADPACK's QAGS and QAGI.

``quad(f, a, b)`` integrates a scalar function over a finite interval
[a, b] (``dqagse``: 21-point Gauss-Kronrod rule) or over [a, inf) when
``b`` is ``math.inf`` (``dqagie``: 15-point rule on the map
x = a + (1 - t)/t of t in (0, 1]).  Both bisect the interval with the
largest error estimate, keep the error list ordered with ``dqpsrt`` and
accelerate convergence with the epsilon algorithm ``dqelg``
(R. Piessens, E. de Doncker-Kapenga, C. W. Ueberhuber, D. K. Kahaner,
*QUADPACK*, Springer 1983).

Contract: the port performs the reference's floating-point operations
in the reference's order, and calls ``f`` at the same nodes in the same
order, so ``(value, abserr)`` equal those of ``scipy.integrate.quad``
bit for bit under the same ``epsabs``, ``epsrel`` and ``limit``.
``tests/test_reservoir.py::test_quadpack_port_is_bitwise_scipy`` holds
it to that with ``==``.  Only these two interval forms are ported: no
(-inf, b], no two-sided infinite range, no break points, no weights.

The work arrays are indexed from 1, as in the Fortran, so that their
index arithmetic reads as in the reference.
"""

from __future__ import annotations

import math
import sys
from functools import partial

__all__ = ["quad"]

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max
#: ``dqelg`` folds the epsilon table back once it holds this many
#: entries; the table has room for two more
_LIMEXP = 50

# 21-point Kronrod nodes on [-1, 1] (positive half, x = 0 last); the odd
# 1-based ones are the 10-point Gauss nodes.
_XGK21 = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0)
_WGK21 = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980729531, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821)
_WG10 = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338)

# 15-point Kronrod rule on [-1, 1]; the 7-point Gauss weights sit at the
# Gauss nodes (even 1-based positions and the centre) and are 0 elsewhere.
_XGK15 = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0)
_WGK15 = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG7 = (
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327)


def quad(f, a: float, b: float, epsabs: float = 1.49e-8,
         epsrel: float = 1.49e-8, limit: int = 50):
    """Integrate ``f`` over [a, b], or over [a, inf) for b = math.inf.

    Returns ``(value, abserr, ier)`` with QUADPACK's error code: 0 when
    the requested accuracy was reached, 1 when ``limit`` subintervals
    did not suffice, 2 on roundoff, 3 on a bad integrand point, 4 when
    the extrapolation did not converge, 5 on a probably divergent
    integral, 6 on invalid tolerances or ``limit``.
    """
    if not math.isfinite(a) or math.isnan(b) or b == -math.inf:
        raise ValueError(f"unsupported interval [{a!r}, {b!r}]")
    if b == math.inf:
        return _qags(partial(_qk15i, f, a), 0.0, 1.0, epsabs, epsrel, limit)
    return _qags(partial(_qk21, f), a, b, epsabs, epsrel, limit)


# =====================================================================
# Rules: (result, abserr, resabs, resasc) on one subinterval
# =====================================================================

def _qk21(f, a, b):
    """``dqk21``: 21-point Kronrod rule with its embedded Gauss rule."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr)
    resg = 0.0
    resk = _WGK21[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    # the Gauss nodes first, then the Kronrod extension
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        absc = hlgth * _XGK21[j]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG10[j // 2] * fsum
        resk = resk + _WGK21[j] * fsum
        resabs = resabs + _WGK21[j] * (abs(fval1) + abs(fval2))
    return _error_estimate(_WGK21, fc, fv1, fv2, resk, resg, resabs, hlgth)


def _qk15i(f, boun, a, b):
    """``dqk15i`` for inf = 1: 15-point Kronrod rule on (a, b] in (0, 1]
    for the integrand f(boun + (1 - t)/t) / t**2."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fval1 = f(boun + (1.0 - centr) / centr)
    fc = (fval1 / centr) / centr
    resg = _WG7[7] * fc
    resk = _WGK15[7] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 7
    fv2 = [0.0] * 7
    for j in range(7):
        absc = hlgth * _XGK15[j]
        absc1 = centr - absc
        absc2 = centr + absc
        fval1 = f(boun + (1.0 - absc1) / absc1)
        fval2 = f(boun + (1.0 - absc2) / absc2)
        fval1 = (fval1 / absc1) / absc1
        fval2 = (fval2 / absc2) / absc2
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        resg = resg + _WG7[j] * fsum
        resk = resk + _WGK15[j] * fsum
        resabs = resabs + _WGK15[j] * (abs(fval1) + abs(fval2))
    return _error_estimate(_WGK15, fc, fv1, fv2, resk, resg, resabs, hlgth)


def _error_estimate(wgk, fc, fv1, fv2, resk, resg, resabs, hlgth):
    """The common tail of the rules: scale to the interval and turn the
    Gauss-Kronrod difference into QUADPACK's error estimate."""
    reskh = resk * 0.5
    resasc = wgk[-1] * abs(fc - reskh)
    for j in range(len(fv1)):
        resasc = resasc + wgk[j] * (abs(fv1[j] - reskh)
                                    + abs(fv2[j] - reskh))
    dhlgth = abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        ratio = 200.0 * abserr / resasc
        # min(1, ratio**1.5); ** raises on overflow where C returns inf
        abserr = resasc * (ratio ** 1.5 if ratio < 1.0 else 1.0)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


# =====================================================================
# Adaptive driver (dqagse / dqagie)
# =====================================================================

def _qags(rule, a, b, epsabs, epsrel, limit):
    """The bisection-and-extrapolation loop shared by ``dqagse`` and
    ``dqagie``; ``rule(lo, hi)`` integrates one subinterval of [a, b]."""
    if (epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28)) \
            or limit < 1:
        return 0.0, 0.0, 6
    ier = 0
    result, abserr, defabs, resabs = rule(a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) \
            or abserr == 0.0:
        return result, abserr, ier

    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    alist[1], blist[1], rlist[1], elist[1], iord[1] = a, b, result, abserr, 1
    rlist2 = [0.0] * (_LIMEXP + 3)
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    ierro = 0
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1

    summed = False      # leave through QUADPACK's label 115, else 100
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = rule(a1, b1)
        area2, error2, resabs, defab2 = rule(a2, b2)

        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) \
                * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4

        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord,
                                       nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: bisect the
            # larger intervals first while their errors dominate
            jupbnd = last if last <= 2 + limit // 2 else limit + 3 - last
            large = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    large = True
                    break
                nrmax += 1
            if large:
                continue
        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        reseps, abseps, numrl2, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    divergence_test = True
    if not summed:
        if abserr == _OFLOW:
            summed = True
        elif ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            elif abserr > errsum:
                summed = True
            elif area == 0.0:
                divergence_test = False
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    elif divergence_test:
        if not (ksgn == -1
                and max(abs(result), abs(area)) <= defabs * 0.01):
            # errsum > errbnd >= 0 here, so the errsum test is true
            # whenever area is 0 and guards the divisions (C gets inf)
            if errsum > abs(area) or 0.01 > result / area \
                    or result / area > 100.0:
                ier = 6
    if ier > 2:
        ier -= 1
    return result, abserr, ier


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """``dqpsrt``: keep ``iord`` listing the error estimates in
    descending order after a bisection; returns (maxerr, errmax, nrmax)
    of the subinterval to bisect next."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        # only after a bisection raised the error: move errmax up
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # the ordered part shrinks as the remaining bisections run out
        jupbn = last if last <= limit // 2 + 2 else limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmax here, then errmin bottom-up
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """``dqelg``: one step of Wynn's epsilon algorithm on the first n
    entries of ``epstab``; returns (result, abserr, n, nres)."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return result, max(abserr, 5.0 * _EPMACH * abs(result)), n, nres
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if err2 <= tol2 and err3 <= tol3:
            # e0, e1 and e2 agree to machine accuracy
            result = res
            abserr = err2 + err3
            return (result, max(abserr, 5.0 * _EPMACH * abs(result)),
                    n, nres)
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            # irregular behaviour: omit a part of the table
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res

    # shift the table
    if n == _LIMEXP:
        n = 2 * (_LIMEXP // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return result, max(abserr, 5.0 * _EPMACH * abs(result)), n, nres
