"""Differential tests of the bulk float formatters against ``repr`` and
``'%.2f' %``.

Every value's slot, with its NUL padding dropped, must equal ``repr`` of
the value (``float_slots``) or ``'%.2f' %`` of it (``fixed2_slots``),
element by element.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starphase import _floatcsv
from starphase._floatcsv import SLOT, fixed2_slots, float_slots
from conftest import run_python

#: values near the edges of the fast path: +-0, the non-finite values,
#: subnormals, both ends of [1e-28, 1e16), the largest double below 1e16,
#: and an exact tie (X = 11258999068426242.5) that ``repr`` breaks to even
EDGES = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
         np.nextafter(2.2250738585072014e-308, 0.0), 1e-28,
         np.nextafter(1e-28, 0.0), np.nextafter(1e-28, 1.0),
         np.nextafter(1e16, 0.0), 9999999999999998.0, 1e16,
         np.nextafter(1e16, np.inf), 1125899906842624.25, 1.7976931348623157e308,
         1e-4, np.nextafter(1e-4, 0.0), 1e-5, 0.1, 0.5, 1.0, 100.0]


def mismatches(values, slots=float_slots, text=repr):
    """(value, got, want) for every value whose slot differs from its
    ``text``."""
    values = np.asarray(values, dtype=np.float64).ravel()
    rows = slots(values)
    assert rows.shape[0] == values.size
    if slots is float_slots:
        assert rows.shape[1] == SLOT
    got = [bytes(row).replace(b"\0", b"").decode() for row in rows]
    want = [text(v) for v in values.tolist()]
    return [(v, g, w) for v, g, w in zip(values.tolist(), got, want)
            if g != w]


def fixed2_mismatches(values):
    return mismatches(values, fixed2_slots, lambda v: "%.2f" % v)


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


def _with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf),
                           np.nextafter(values, np.inf)])


# -- the steps of the repr kernel, each against repr

def test_powers_of_two():
    # f = 1/2: the rounding interval reaches half as far below as above
    p = 2.0 ** np.arange(-93, 54)
    assert mismatches(_with_neighbours(np.concatenate([p, -p, 3 * p]))) == []


def _decimals(rng, nd, n=2000):
    """n floats read from decimals of nd significant digits, the last
    one nonzero, spread over the fast path's exponents."""
    lead = rng.integers(10 ** (nd - 1), 10 ** nd, n)
    lead += lead % 10 == 0
    exps = rng.integers(-28, 16, n) - nd + 1
    return np.array([float(f"{d}e{e}") for d, e in zip(lead.tolist(),
                                                       exps.tolist())])


@pytest.mark.parametrize("nd", range(1, 18))
def test_decimals_of_each_length(nd):
    # repr keeps nd = 17 - j digits: j = 0, 1 and every j >= 2
    values = _decimals(np.random.default_rng(nd), nd)
    assert mismatches(_with_neighbours(values)) == []


def test_j_takes_each_branch():
    # the multiple M has j trailing zeros, 17 - j digits for repr: the
    # j <= 1 branch and the j >= 2 branch both run on these
    rng = np.random.default_rng(3)
    values = np.abs(np.concatenate([_decimals(rng, nd, 200)
                                    for nd in range(1, 18)]))
    s, P, r, A, B, unsure = _floatcsv._interval(values)
    M, j, tie = _floatcsv._nearest(P, r, A, B)
    ok = ~(unsure | tie)
    assert set(j[ok].tolist()) >= set(range(17))
    digits = [len(repr(v).split("e")[0].replace(".", "").strip("0"))
              for v in values[ok].tolist()]
    ndig = [len(str(m)) for m in M[ok].tolist()]
    assert [n - k for n, k in zip(ndig, j[ok].tolist())] == digits


def test_leads_with_zero_groups():
    # 17-digit leads d.dddd dddd dddd dddd with every pattern of all-zero
    # groups, and 1 + k 2^-52 scaled by powers of two
    rng = np.random.default_rng(5)
    text = []
    for pattern in range(16):
        for _ in range(100):
            groups = ["0000" if pattern >> g & 1 else
                      "%04d" % rng.integers(1, 10000) for g in range(4)]
            text.append(f"{rng.integers(1, 10)}.{''.join(groups)}"
                        f"e{rng.integers(-28, 16)}")
    ulps = 1.0 + np.arange(1, 200) * 2.0 ** -52
    values = np.concatenate([np.array(text, dtype=float),
                             np.outer(2.0 ** np.arange(-90, 50, 7),
                                      ulps).ravel()])
    assert mismatches(values) == []


def test_all_fast_and_mixed_calls(monkeypatch):
    # a call with no slow value skips the select before _interval; in a
    # call that mixes them, exactly the slow values go to repr
    calls = []
    monkeypatch.setattr(_floatcsv, "repr",
                        lambda x: calls.append(x) or repr(x), raising=False)
    fast = np.linspace(0.1, 5.0, 1001)
    assert mismatches(fast) == [] and calls == []
    mixed = fast.copy()
    mixed[::7] = np.resize(EDGES[:7] + [1e300, -1e-300], mixed[::7].size)
    assert mismatches(mixed) == []
    assert np.array_equal(calls, mixed[::7], equal_nan=True)


# -- '%.2f' % v

def test_fixed2_hundredths_and_halves_of_them():
    # k/200 holds every tie 100 v = n + 1/2 that a double can hold; the
    # float neighbours sit on either side of the rounding boundary
    rng = np.random.default_rng(2024)
    k = np.concatenate([np.arange(-40_000, 40_001),
                        rng.integers(-10 ** 15, 10 ** 15, 40_000)])
    assert fixed2_mismatches(_with_neighbours(k / 200.0)) == []


def test_fixed2_signs_zeros_and_subnormals():
    values = [0.0, -0.0, 0.001, -0.001, 0.005, -0.005, 0.0049999999999999,
              -0.0050000000000001, 5e-324, -5e-324, 2.2250738585072014e-308,
              -2.225073858507201e-308, 0.125, 0.375, 2.675, 99.995, 1e-200]
    assert fixed2_mismatches(values) == []


def test_fixed2_random_values():
    rng = np.random.default_rng(7)
    values = np.concatenate([
        rng.uniform(-1e4, 1e4, 100_000),
        rng.choice([-1.0, 1.0], 50_000) * 10.0 ** rng.uniform(-4, 13, 50_000)])
    assert fixed2_mismatches(values) == []


def test_fixed2_every_digit_group():
    # the slot is as wide as its largest value needs: these cross each
    # group of four digits, alone and mixed with small values
    ends = [0.99, 9.995, 99.99, 99.995, 999999.99, 999999.995,
            9999999999.99, 99999999999.995, 9999999999999.0]
    for v in ends:
        assert fixed2_mismatches(_with_neighbours([v, -v, 1.0])) == []


def test_fixed2_zero_groups():
    # N with groups of four zero digits between nonzero ones
    values = [10000.0, 100000.01, 100000000.01, 1000000000000.05,
              1234000000.07, 100000005678.0, 9000000000000.0, 10000000.0,
              100.0, 0.01, 1000.0]
    assert fixed2_mismatches(_with_neighbours(values + [-v for v in values])
                             ) == []


def test_fixed2_past_the_fast_path():
    # values from _F2_MAX up and the non-finite ones go to %, alone or
    # among fast-path values, whose slots are then widened
    lim = _floatcsv._F2_MAX
    slow = [lim, np.nextafter(lim, np.inf), 1e15, 123456789012345.67, 1e22,
            1e300, 1.7976931348623157e308, np.inf, -np.inf, np.nan]
    assert fixed2_mismatches(_with_neighbours([lim])) == []
    for v in slow:
        assert fixed2_mismatches([v]) == []
        assert fixed2_mismatches([0.5, -v, 12.345, v]) == []


def test_fixed2_empty():
    assert fixed2_slots(np.array([])).shape[0] == 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.floats(), min_size=1, max_size=200))
def test_fixed2_hypothesis_floats(values):
    assert fixed2_mismatches(values) == []


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1,
                max_size=200))
def test_fixed2_hypothesis_bit_patterns(bits):
    values = np.array(bits, dtype=np.int64).view(np.float64)
    assert fixed2_mismatches(values) == []


def test_cli_import_loads_no_formatter():
    # the CSV and SVG writers import it when they run, so that commands
    # that write neither skip building its tables
    proc = run_python("import starphase.cli, sys; "
                      "print('starphase._floatcsv' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
