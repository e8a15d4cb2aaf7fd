"""Bracketed scalar root finding: geometric bracket expansion + Brent.

:func:`brentq` is Brent's method (R. P. Brent, *Algorithms for
Minimization without Derivatives*, 1973, ch. 4), a line-for-line port
of scipy's ``brentq.c``: the same ``rtol = 4 eps``, the same
interpolate / extrapolate / bisect tests, the same minimum step
``delta`` and the same early returns on ``f == 0``, so it returns
scipy's root bit for bit.  Each objective value is converted with
``float(f(x))`` once per evaluation, so the arithmetic runs on Python
floats even when the objective returns numpy scalars.  The budget of
``maxiter`` iterations (one evaluation each, after the two end points)
raises :class:`ConvergenceError` when it runs out.

:func:`expand_bracket` adds the bracket search tailored to functions
defined on ``(0, x_max)`` with a possible pole at the right endpoint.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError

#: absolute tolerance handed to brentq; its relative one is ROOT_RTOL
ROOT_XTOL = 1e-14

#: relative tolerance of brentq, scipy's minimum: 4 machine epsilons
ROOT_RTOL = 4 * 2.220446049250313e-16

_MAX_EXPAND = 200


def _value(f, x: float) -> float:
    """``float(f(x))``, rejecting NaN as scipy's ``brentq`` does."""
    fx = float(f(x))
    if fx != fx:
        raise ValueError(
            f"The function value at x={x:.6g} is NaN; solver cannot continue.")
    return fx


def brentq(f, a: float, b: float, xtol: float = ROOT_XTOL,
           maxiter: int = 100) -> float:
    """Root of ``f`` in the bracket ``[a, b]`` by Brent's method.

    Raises
    ------
    ValueError
        If ``xtol <= 0``, ``f`` returns NaN, or ``f(a)`` and ``f(b)``
        have the same sign.
    ConvergenceError
        If the root is not within tolerance after ``maxiter`` iterations.
    """
    if not xtol > 0.0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    xpre, xcur = float(a), float(b)
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # in C the step is then inf or nan, which fails the
                # short-step test below and bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise ConvergenceError(
        f"brentq failed to converge after {maxiter} iterations, "
        f"value is {xcur!r}")


def expand_bracket(f, lo: float, x_max: float):
    """Search for a sign change of ``f`` on ``(lo, x_max)``.

    The right probe walks geometrically: doubling steps from 2^-9 above
    ``lo`` when ``x_max`` is infinite, halving the gap to ``x_max`` when
    it is finite.  A probe
    that rounds onto ``x_max`` is skipped, so a pole at the boundary is
    approached but never hit.

    Returns
    -------
    (a, b) : tuple of float
        Bracket with ``f(a) * f(b) <= 0``.

    Raises
    ------
    ValueError
        If ``f`` is NaN at a probe; the message names the probe x.
    ConvergenceError
        If no sign change is found before the expansion budget runs out.
    """
    fa = _value(f, lo)
    if fa == 0.0:
        return lo, lo
    a = lo
    for k in range(1, _MAX_EXPAND):
        if math.isinf(x_max):
            b = lo + 2.0 ** (k - 10)
        else:
            b = x_max - (x_max - lo) * 2.0 ** (-k)
            if not a < b < x_max:
                continue
        fb = _value(f, b)
        if fb == 0.0:
            return b, b
        if (fa > 0.0) != (fb > 0.0):
            return a, b
        a, fa = b, fb
    raise ConvergenceError(
        f"no sign change of objective found on ({lo}, {x_max})")


def solve_bracketed(f, lo: float, x_max: float, xtol: float = ROOT_XTOL) -> float:
    """Root of ``f`` on ``(lo, x_max)``, found by bracket expansion + brentq."""
    a, b = expand_bracket(f, lo, x_max)
    if a == b:
        return a
    return brentq(f, a, b, xtol=xtol)
