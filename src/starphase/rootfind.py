"""Bracketed scalar root finding: geometric bracket expansion + Newton.

:func:`expand_bracket` finds a sign change of a function defined on
``(lo, x_max)`` with a possible pole at the right endpoint, and
:func:`solve_bracketed` runs Newton's method inside that bracket.  Each
objective value is converted with ``float(f(x))`` once per evaluation,
so the arithmetic runs on Python floats even when the objective returns
numpy scalars.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError

#: the solve's absolute tolerance on x at length scale 1
ROOT_XTOL = 1e-14

_MAX_EXPAND = 200

#: evaluations that ``solve_bracketed`` may make after the bracket walk
_MAX_NEWTON = 100


def _value(f, x: float) -> float:
    """``float(f(x))``, rejecting NaN."""
    fx = float(f(x))
    if fx != fx:
        raise ValueError(
            f"The function value at x={x:.6g} is NaN; solver cannot continue.")
    return fx


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


def solve_bracketed(f, df, lo: float, x_max: float,
                    xtol: float = ROOT_XTOL) -> float:
    """Root of ``f`` on ``(lo, x_max)``: ``expand_bracket``, then Newton
    with derivative ``df`` from the bracket's upper end.

    Every evaluation narrows the bracket to the side where ``f`` changes
    sign.  A step whose Newton point is not inside the bracket bisects it
    instead, which covers a ``df`` that is zero, not finite or of the
    wrong sign; for an increasing convex ``f``, such as ``H - level`` of
    the bound, the Newton points descend onto the root inside it.  A
    step shorter than ``xtol`` ends the solve, its point unevaluated;
    after a Newton step that short the error is of order its square.
    The Newton point is (x f' - f)/f' rather than x - f/f': a step
    multiplies no two values, so an objective of any scale needs no
    rescaling, and its operands scale with x, so the root of
    f(x 2^j) 2^-j is the root of f times 2^-j bit for bit while x f' is
    a normal float, also where f is subnormal.

    Raises
    ------
    ValueError
        For ``xtol <= 0``, from ``expand_bracket``, or when ``f`` is NaN
        at an iterate.
    ConvergenceError
        From ``expand_bracket``, or when ``_MAX_NEWTON`` evaluations do
        not reach a step shorter than ``xtol``.
    """
    if not xtol > 0.0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    a, b = expand_bracket(f, lo, x_max)
    if a == b:
        return a
    x, fx = b, _value(f, b)  # expand_bracket returns no values
    up = fx > 0.0
    for _ in range(_MAX_NEWTON):
        d = float(df(x))
        t = (x * d - fx) / d if d else math.nan
        # a step shorter than xtol stands where rounding puts its point
        # just outside the bracket
        if not (abs(t - x) <= xtol or a < t < b):
            t = a + (b - a) / 2
        if abs(t - x) <= xtol:
            return t
        x, fx = t, _value(f, t)
        if fx == 0.0:
            return x
        if (fx > 0.0) == up:
            b = x
        else:
            a = x
    raise ConvergenceError(
        f"Newton solve failed to converge after {_MAX_NEWTON} evaluations, "
        f"value is {x!r}")
