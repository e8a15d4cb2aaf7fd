"""Bracketed scalar root finding with geometric bracket expansion.

The actual polishing is delegated to :func:`scipy.optimize.brentq`
(bisection / secant / inverse-quadratic hybrid); this module only adds
the bracket search tailored to functions defined on ``(0, x_max)`` with
a possible pole at the right endpoint.
"""

from __future__ import annotations

import math

from scipy.optimize import brentq

from .errors import ConvergenceError

#: absolute tolerance handed to brentq; rtol stays at the library minimum
ROOT_XTOL = 1e-14

_MAX_EXPAND = 200


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
    ConvergenceError
        If no sign change is found before the expansion budget runs out.
    """
    fa = f(lo)
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
        fb = f(b)
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
