"""Brent's root finder and bounded minimiser, as scipy runs them.

``brentq`` is a line-for-line port of scipy's C ``brentq``
(zeros/brentq.c), and ``fminbound`` of scipy's
``minimize_scalar(method="bounded")``; both are Brent's methods (Brent 1973,
*Algorithms for Minimization without Derivatives*, ch. 4-5).  Each keeps
scipy's arithmetic order on floats, so it takes scipy's iterates and function
calls and returns scipy's bits.  Both work on Python floats: each converts
its bracket, its tolerances and every value of f with ``float()``, so that a
numpy scalar passed in (a point of a numpy grid, say) neither reaches f nor
slows the loop, with the same bits, since +, -, * and / round alike on both.
The oracle finds its turning points and circular radii with them, so
nothing at runtime imports scipy.  Unlike scipy, ``brentq`` refuses with a
typed error, not ``ValueError`` or ``RuntimeError``.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import NoBoundOrbit, OutOfDomain, ToleranceNotMet

__all__ = ["brentq", "fminbound"]


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float,
           rtol: float, maxiter: int) -> float:
    """The root of f on [a, b] by Brent's method, line for line scipy's C
    ``brentq`` (zeros/brentq.c): the same iterates, calls and root.

    OutOfDomain when a value is NaN, checked after each call (a NaN is the
    one float unequal to itself); NoBoundOrbit when f(a) and f(b) have one
    sign; ToleranceNotMet when ``maxiter`` iterations do not converge.
    """
    xpre, xcur, xtol, rtol = float(a), float(b), float(xtol), float(rtol)
    xblk = fblk = spre = scur = 0.0
    fpre = float(f(xpre))
    if fpre != fpre:
        raise OutOfDomain(f"the function value at x={xpre} is NaN")
    fcur = float(f(xcur))
    if fcur != fcur:
        raise OutOfDomain(f"the function value at x={xcur} is NaN")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NoBoundOrbit(f"no sign change on [{xpre!r}, {xcur!r}]")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, fpre = xcur, fcur
            xcur, fcur = xblk, fblk
            xblk, fblk = xpre, fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if fcur != fcur:
            raise OutOfDomain(f"the function value at x={xcur} is NaN")
    raise ToleranceNotMet(
        f"Brent's method did not converge in {maxiter} iterations (at x={xcur!r})")


def _sign(d: float) -> float:
    """numpy's sign of a number: -1.0, 0.0 or 1.0."""
    return 1.0 if d > 0 else -1.0 if d < 0 else 0.0


def fminbound(f: Callable[[float], float], lo: float, hi: float, xatol: float,
              maxfun: int = 500) -> float:
    """The minimum of f on [lo, hi] by Brent's golden-section and parabolic
    search, in the arithmetic order of scipy's ``minimize_scalar(method=
    "bounded")``: the same calls and x.  It calls f on Python floats and
    returns one, whatever the type of ``lo``, ``hi`` and ``xatol``.  It raises
    nothing: after ``maxfun`` calls it returns the best x so far, and a NaN
    value takes part in the comparisons as in scipy."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b, xatol = float(lo), float(hi), float(xatol)
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = float(f(x))
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    si = _sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
        if golden:  # a golden-section step
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        si = _sign(rat) + (rat == 0)
        x = xf + si * max(abs(rat), tol1)
        fu = float(f(x))
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf
