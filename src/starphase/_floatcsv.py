"""float64 columns straight to CSV bytes, equal to ``csv.writer`` over ``repr``.

``repr(x)`` is the shortest decimal that reads back as x and, of those,
the nearest (Gay's ``dtoa`` mode 0); exponent form iff decpt <= -4 or
decpt > 16.  numpy finds the digits for 1e-28 <= |x| < 1e16; the other
values (+-0, nan, +-inf, subnormals), and those with a decision within
``_TOL`` of its boundary, go to ``repr``.  Why the rest are exact:

* X = |x| 10^s, s = 16 - floor(log10 |x|), lies in [1e16, 1e17] but for
  a few ulps (log10's error), and is P + r: P = fl(X) an integer, |r| <=
  8.  For s <= 22 10^s is a double and Dekker's product (Dekker 1971)
  gives r exactly; beyond, 10^s = hi + lo to 2^-106, and r is off by
  under 4e-15.
* With |x| = f 2^E, the reals that round to |x| lie within h = 2^(E-54)
  10^s above X and h below (h/2 at f = 1/2).  Each side exceeds 0.55 and
  the width is under 23, so the interval holds the integer nearest X and
  the decimals that read back as x are multiples of 10^j in units of
  10^-s: the shortest are those of the largest j.
* The interval's integers are A + 1 .. B (``ceil``, ``floor`` of its
  ends' offsets from P); j is the largest with B mod 10^j < B - A.  For
  j >= 2 one multiple lies inside; for j <= 1 the nearest to X is taken,
  and a tie (``repr`` breaks it to even) goes to ``repr``.  The offsets
  and midpoint distances are sums of terms below 32, off by under 1e-14,
  so a margin above ``_TOL`` = 1e-12 makes a decision exact and the
  ends' inclusion moot.

The multiple M has nd = digits(M) - j leading digits, those of ``repr``,
and decpt = digits(M) - s.
"""

from __future__ import annotations

import numpy as np

#: bytes per value: sign, prefix 0.000, 17 digits and point, suffix e-XX
SLOT = 28
#: rows that ``write_csv`` formats at once; bounds its working set
BLOCK = 2048
#: least margin of a decision taken on floats (see the docstring)
_TOL = 1e-12


def _split(x):
    """Veltkamp's split x = hi + lo into halves of 26 bits."""
    t = x * 134217729.0
    hi = t - (t - x)
    return hi, x - hi


#: 10^s = _HI + _LO, and the halves of _HI, for s = 0 .. 46
_HI = np.array([float(10 ** s) for s in range(47)])
_LO = np.array([float(10 ** s - int(h)) for s, h in enumerate(_HI)])
_HI_H, _HI_L = _split(_HI)
_P10 = 10 ** np.arange(19, dtype=np.int64)
#: 2^(E-54), half the spacing of the doubles f 2^E, at E + 100
_POW2 = 2.0 ** (np.arange(-100, 60) - 54.0)
#: ASCII of 0000 .. 9999, each as one little-endian 4-byte word
_QUADS = (np.arange(10000, dtype=np.int32)[:, None]
          // np.array([1000, 100, 10, 1], np.int32) % 10
          + 48).astype(np.uint8).view("<u4").ravel()
_DP_MIN, _DP_MAX = -27, 17


def _layouts():
    """Per (nd, decpt): masks of the bytes taken from the digit row shifted
    by one (left of the point) and not (right of it), and constant bytes."""
    nd = np.arange(1, 18)[:, None, None]
    dp = np.arange(_DP_MIN, _DP_MAX + 1)[:, None]
    c = np.arange(SLOT) - 6
    sci = (dp <= -4) | (dp > 16)
    # digits written (ddd00.0 included) and the point's place (SLOT: none)
    size = np.where(sci | (dp < nd), nd, dp + 1)
    point = np.where(sci, np.where(nd > 1, 1, SLOT),
                     np.where(dp > 0, dp, SLOT))
    left = (c >= 0) & (c < point) & (c < size)
    right = (c > point) & (c <= size)
    affix = np.frombuffer(b"".join(
        bytes(24) + (b"e%+03d" % (e - 1)) if e <= -4 or e > 16 else
        (b"\0" + (b"0." + b"0" * -e if e <= 0 else b"")).ljust(SLOT, b"\0")
        for e in range(_DP_MIN, _DP_MAX + 1)), np.uint8).reshape(-1, SLOT)
    const = affix | (c == point) * np.uint8(46)
    return [np.broadcast_to(t, const.shape).reshape(-1, SLOT)
            for t in (left * np.uint8(255), right * np.uint8(255), const)]


_KEEP_LEFT, _KEEP_RIGHT, _CONST = _layouts()


def _interval(a):
    """For a in [1e-28, 1e16): s, X = a 10^s as P + r, A and B (A + 1 .. B
    are the interval's integers), and whether an end is near an integer."""
    s = 16 - np.floor(np.log10(a)).astype(np.intp)
    hi, bh, bl = _HI[s], _HI_H[s], _HI_L[s]
    p = a * hi
    ah, al = _split(a)
    r = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * _LO[s]
    P = p.astype(np.int64)
    f, E = np.frexp(a)
    h = hi * _POW2[E + 100]
    up = r + h
    down = r - np.where(f == 0.5, 0.5 * h, h)
    unsure = ((np.abs(up - np.rint(up)) < _TOL)
              | (np.abs(down - np.rint(down)) < _TOL))
    return (s, P, r, P + np.ceil(down).astype(np.int64) - 1,
            P + np.floor(up).astype(np.int64), unsure)


def _nearest(P, r, A, B):
    """The multiple M of 10^j in A + 1 .. B nearest to X = P + r, for the
    largest j that has one, j, and whether X is within ``_TOL`` of a tie."""
    # j <= 1: the nearest multiple, moved into the interval if outside it
    width = B - A
    ten = B - B // 10 * 10 < width
    step = np.where(ten, 10, 1)
    rem = np.where(ten, P - P // 10 * 10, 0)
    d = (rem + r) + 0.5 * step
    q = np.floor(d / step)
    g = d - q * step
    M = P - rem + q.astype(np.int64) * step
    M += step * ((M <= A).view(np.int8) - (M > B).view(np.int8))
    j = ten.astype(np.intp)
    tie = (g < _TOL) | (step - g < _TOL)

    # j >= 2: the interval, under 23 wide, holds one multiple of 10^j
    idx = np.flatnonzero(B - B // 100 * 100 < width)
    j[idx] = 1 + np.count_nonzero(
        B[idx, None] % _P10[2:18] < width[idx, None], axis=1)
    M[idx] = B[idx] // _P10[j[idx]] * _P10[j[idx]]
    return M, j, tie


def float_slots(v) -> np.ndarray:
    """(n, SLOT) uint8: row i holds ``repr(float(v[i]))``, NUL-padded."""
    v = np.asarray(v, dtype=np.float64).ravel()
    a = np.abs(v)
    fast = (a >= 1e-28) & (a < 1e16)
    s, P, r, A, B, unsure = _interval(np.where(fast, a, 1.0))
    M, j, tie = _nearest(P, r, A, B)
    # M has 16 to 18 digits, its 17 leading ones (and zeros) are lead's
    ndig = 16 + (M >= _P10[16]).view(np.int8) + (M >= _P10[17]).view(np.int8)
    lead = np.where(ndig == 16, M * 10, np.where(ndig == 18, M // 10, M))
    key = (ndig - j - 1) * (_DP_MAX - _DP_MIN + 1) + ndig - s - _DP_MIN

    # digits at bytes 7 .. 23 of rows of NULs, one more NUL for the shift
    top = (lead // 10 ** 8).astype(np.int32)
    low = (lead - top * np.int64(10 ** 8)).astype(np.int32)
    words = np.zeros(7 * v.size + 1, "<u4")
    row = words[:-1].reshape(-1, 7)
    row[:, 1] = (top // 10 ** 8 + 48).astype("<u4") << 24
    for i, part in enumerate((top // 10000 % 10000, top % 10000,
                              low // 10000, low % 10000)):
        row[:, 2 + i] = _QUADS[part]
    digits = words.view(np.uint8)
    n = SLOT * v.size
    out = np.take(_KEEP_LEFT, key, axis=0) & digits[1:n + 1].reshape(-1, SLOT)
    out |= np.take(_KEEP_RIGHT, key, axis=0) & digits[:n].reshape(-1, SLOT)
    out |= np.take(_CONST, key, axis=0)
    out[:, 0] = np.signbit(v) * np.uint8(45)
    slow = np.flatnonzero(~fast | unsure | tie)
    if slow.size:
        text = b"".join(repr(x).encode().ljust(SLOT, b"\0")
                        for x in v[slow].tolist())
        out[slow] = np.frombuffer(text, np.uint8).reshape(-1, SLOT)
    return out


def write_csv(path, header, nrows: int, cells) -> None:
    """Write ``header`` and ``nrows`` CSV lines to ``path``; ``cells(lo, hi)``
    gives the NUL-padded fields of rows lo .. hi - 1 (``float_slots``)."""
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode("ascii") + b"\r\n")
        for lo in range(0, nrows, BLOCK):
            fields = cells(lo, min(lo + BLOCK, nrows))
            comma = np.broadcast_to(np.uint8(44), (len(fields[0]), 1))
            parts = [part for field in fields for part in (field, comma)]
            parts[-1] = np.broadcast_to(np.uint8([13, 10]), (len(comma), 2))
            lines = np.concatenate(parts, axis=1)
            del fields, parts  # copied into lines
            fh.write(lines[lines != 0])
