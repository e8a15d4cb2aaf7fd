"""Real branches of the Lambert W function (inverse of w -> w e^w).

Halley iteration seeded by a series approximation near the branch point
-1/e and by log-based asymptotics elsewhere.  Accuracy target: the
round-trip w e^w reproduces the argument to 1e-14 relative.  Where
w e^w underflows (lower branch, subnormal arg), Newton's method solves
w + log(-w) = log(-arg) instead.

Branches
--------
* principal (0): defined for arg >= -1/e, returns w >= -1, and
  W0(+inf) = +inf
* lower (-1):    defined for -1/e <= arg < 0, returns w <= -1

A NaN argument raises DomainError on either branch.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError

#: branch point abscissa -1/e
BRANCH_POINT = -math.exp(-1.0)

_MAX_HALLEY = 100

#: smallest normal double; below it in magnitude w e^w underflows on W_-1
_TINY = 2.2250738585072014e-308


def _halley(arg: float, w: float) -> float:
    """Polish a seed.  Accepts on either a tiny residual w e^w - arg (the criterion that
    matters near w = -1, where steps stagnate above round-off) or a
    step below round-off (the criterion for large w, where residual
    cancellation keeps the relative residual at eps * |w|).
    """
    for _ in range(_MAX_HALLEY):
        ew = math.exp(w)
        f = w * ew - arg
        if abs(f) <= 8e-16 * abs(arg):
            return w
        wp1 = w + 1.0
        if wp1 == 0.0:
            w += 1e-12
            continue
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        if denom == 0.0:
            break
        dw = f / denom
        w -= dw
        if abs(dw) <= 2e-16 * (2.0 + abs(w)):
            return w
    raise ConvergenceError(f"Lambert W failed to converge at {arg}")


def _lower_tail(arg: float) -> float:
    """W_-1 for -_TINY < arg < 0 by Newton on w + log(-w) = L = log(-arg),
    from L - log(-L)."""
    L = math.log(-arg)
    w = L - math.log(-L)
    for _ in range(_MAX_HALLEY):
        dw = (w + math.log(-w) - L) / (1.0 + 1.0 / w)
        w -= dw
        if abs(dw) <= 2e-16 * abs(w):
            return w
    raise ConvergenceError(f"Lambert W failed to converge at {arg}")


def _seed(arg: float, branch: int) -> float:
    # series around the branch point, p = +-sqrt(2 (e arg + 1)):
    # W = -1 + p - p^2/3 + 11 p^3/72 + ...
    q = 2.0 * (1.0 + math.e * arg)
    if q < 0.04:
        p = math.sqrt(max(q, 0.0))
        if branch == -1:
            p = -p
        return -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
    if branch == 0:
        if arg > 3.0:
            L1 = math.log(arg)
            return L1 - math.log(L1)
        return math.log1p(arg)
    # lower branch away from -1/e: W_-1(z) ~ log(-z) - log(-log(-z))
    L1 = math.log(-arg)
    return L1 - math.log(-L1)


def lambert_w(arg: float, branch: int = 0) -> float:
    """Real Lambert W of ``arg`` on the requested branch (0 or -1).

    W0(+inf) is +inf, the limit of the principal branch.

    Raises
    ------
    DomainError
        If ``arg`` is NaN or lies outside the branch's domain.
    ConvergenceError
        If the iteration overruns its budget or ends on the other branch.
    """
    if branch not in (0, -1):
        raise ValueError(f"branch must be 0 or -1, got {branch}")
    arg = float(arg)
    if arg != arg:
        raise DomainError("Lambert W argument must be a number, got nan")
    if arg < BRANCH_POINT:
        raise DomainError(f"argument {arg} below the branch point -1/e")
    if branch == -1 and arg >= 0.0:
        raise DomainError("lower branch requires -1/e <= arg < 0")
    if arg == BRANCH_POINT:
        return -1.0
    if arg == 0.0:
        return 0.0
    if arg == math.inf:
        return math.inf
    if branch == -1 and arg > -_TINY:
        w = _lower_tail(arg)
    else:
        w = _halley(arg, _seed(arg, branch))
    if (w < -1.0 - 1e-6) if branch == 0 else (w > -1.0 + 1e-6):
        raise ConvergenceError(
            f"Lambert W iteration at {arg} slid onto the other branch")
    # absorb round-off at the branch seam
    if branch == 0 and w < -1.0:
        w = -1.0
    elif branch == -1 and w > -1.0:
        w = -1.0
    return w
