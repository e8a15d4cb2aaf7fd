"""Differential tests of the bulk float formatter against ``repr``.

Every value's slot, with its NUL padding dropped, must equal ``repr`` of
the value, element by element.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starphase import _floatcsv
from starphase._floatcsv import SLOT, float_slots

#: values near the edges of the fast path: +-0, the non-finite values,
#: subnormals, both ends of [1e-28, 1e16), the largest double below 1e16,
#: and an exact tie (X = 11258999068426242.5) that ``repr`` breaks to even
EDGES = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
         np.nextafter(2.2250738585072014e-308, 0.0), 1e-28,
         np.nextafter(1e-28, 0.0), np.nextafter(1e-28, 1.0),
         np.nextafter(1e16, 0.0), 9999999999999998.0, 1e16,
         np.nextafter(1e16, np.inf), 1125899906842624.25, 1.7976931348623157e308,
         1e-4, np.nextafter(1e-4, 0.0), 1e-5, 0.1, 0.5, 1.0, 100.0]


def mismatches(values):
    """(value, got, repr) for every value whose slot differs from repr."""
    values = np.asarray(values, dtype=np.float64).ravel()
    slots = float_slots(values)
    assert slots.shape == (values.size, SLOT)
    got = [bytes(row).replace(b"\0", b"").decode() for row in slots]
    want = [repr(v) for v in values.tolist()]
    return [(v, g, w) for v, g, w in zip(values.tolist(), got, want)
            if g != w]


def test_edges():
    values = np.array(EDGES + [-v for v in EDGES])
    assert mismatches(values) == []


def test_tie_and_range_ends_go_to_repr():
    # the tie is decided by repr, not by rounding X
    a = np.array([1125899906842624.25, 1.0])
    s, P, r, A, B, unsure = _floatcsv._interval(a)
    tie = _floatcsv._nearest(P, r, A, B)[2]
    assert unsure.tolist() == [False, False]
    assert tie.tolist() == [True, False]
    # the fast range ends where repr's exponent form would start at 1e16
    assert mismatches([1e16, -1e16]) == []


def test_empty():
    assert float_slots(np.array([])).shape == (0, SLOT)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.floats(), min_size=1, max_size=200))
def test_hypothesis_floats(values):
    assert mismatches(values) == []


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1,
                max_size=200))
def test_hypothesis_bit_patterns(bits):
    assert mismatches(np.array(bits, dtype=np.int64).view(np.float64)) == []


def _draws(name, rng, n=100_000):
    """Seeded draws of one class, about n values."""
    sign = rng.choice([-1.0, 1.0], n)
    if name == "log-uniform":
        return sign * 10.0 ** rng.uniform(-30.0, 17.0, n)
    if name == "bit patterns in range":
        lo, hi = np.array([1e-28, 1e16]).view(np.int64)
        return sign * rng.integers(lo, hi, n).view(np.float64)
    if name == "near powers of 10 and 2":
        anchors = np.concatenate([10.0 ** np.arange(-29, 18),
                                  2.0 ** np.arange(-96, 56)])
        near = (anchors.view(np.int64)[:, None]
                + np.arange(-8, 9)).ravel().view(np.float64)
        return np.concatenate([near, -near])
    if name == "short decimals":
        digits = rng.integers(0, 10 ** 6, n)
        return sign * digits / 10.0 ** rng.integers(0, 12, n)
    if name == "integers and halves":
        return (rng.integers(-2 ** 53, 2 ** 53, n).astype(np.float64)
                + rng.choice([0.0, 0.5, 0.25], n))
    if name == "linspace grids":
        ends = rng.uniform(-5.0, 5.0, (n // 100, 2))
        return np.concatenate([np.linspace(a, b, 100) for a, b in ends])
    raise ValueError(name)


@pytest.mark.parametrize("name", [
    "log-uniform", "bit patterns in range", "near powers of 10 and 2",
    "short decimals", "integers and halves", "linspace grids"])
def test_seeded_draws(name):
    values = _draws(name, np.random.default_rng(2024))
    bad = mismatches(values)
    assert bad == [], bad[:5]
