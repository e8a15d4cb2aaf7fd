"""float64 arrays straight to text bytes: CSV fields equal to ``csv.writer``
over ``repr`` (``float_slots``, ``write_csv``), and ``'%.2f' %`` for the SVG.

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
  j <= 1 the nearest multiple to X is taken, and a tie (``repr`` breaks
  it to even) goes to ``repr``.  For j >= 2 the interval, under 23 wide,
  holds one multiple of 100, M = 100 c with c = B // 100, and every
  multiple of 10^j in it is M: j is 2 plus the trailing zeros of c.  As
  c < 2^53, the float c / 10^k (k <= 15) is an integer iff 10^k divides
  c: otherwise c / 10^k lies at least 10^-k from every integer, and half
  its ulp is less.  The offsets and midpoint distances are sums of terms
  below 32, off by under 1e-14, so a margin above ``_TOL`` = 1e-12
  makes a decision exact and the ends' inclusion moot.

The multiple M has nd = digits(M) - j leading digits, those of ``repr``,
and decpt = digits(M) - s.

Each step is exact arithmetic, without a select or a remainder pass: a
call whose values all take the fast path uses |x| as it is (the select
would return it unchanged); h = ``ldexp``(hi, E - 54), hi = fl(10^s),
is the normal double hi 2^(E-54); h (1 - 0.5 [f = 1/2]) multiplies h by
1 or 1/2; the j <= 1 step is 1 + 9 [ten] and its remainder (P - P // 10
* 10) [ten], integers; and for q >= 0, q - q // 10^4 * 10^4 is q mod
10^4.

``fixed2_slots`` writes ``'%.2f' % x``, the integer N nearest 100 |x|
(ties to even) with its point moved two places.  For |x| < ``_F2_MAX``
Dekker's product gives 100 |x| = p + e exactly, p < 2^52, so d = p -
rint(p) is exact: where |d| < 1/2, |d + e| < 1/2 and N = rint(p); where
|d| = 1/2, the sign of e moves N one step toward d, and e = 0 is a tie
that ``rint`` has broken to even.  Other values (nan, +-inf, the large
ones) go to ``%``.
"""

from __future__ import annotations

import numpy as np

#: bytes per ``float_slots`` value: sign, prefix 0.000, 17 digits and
#: point, suffix e-XX
SLOT = 28
#: rows that ``write_csv`` formats at once; bounds its working set
BLOCK = 16384
#: least margin of a decision taken on floats (see the docstring)
_TOL = 1e-12
#: |x| from which ``fixed2_slots`` hands a value to ``%``
_F2_MAX = 1e13


def _split(x):
    """Veltkamp's split x = hi + lo into halves of 26 bits."""
    t = x * 134217729.0
    hi = t - (t - x)
    return hi, x - hi


#: 10^s = _HI + _LO, and the halves of _HI, for s = 0 .. 46
_HI = np.array([float(10 ** s) for s in range(47)])
_LO = np.array([float(10 ** s - int(h)) for s, h in enumerate(_HI)])
_HI_H, _HI_L = _split(_HI)
_PLACES = np.array([1000, 100, 10, 1], np.int32)
_DIGITS = (np.arange(10000, dtype=np.int32)[:, None] // _PLACES % 10
           + 48).astype(np.uint8)
#: ASCII of 0000 .. 9999, each as one little-endian 4-byte word
_QUADS = _DIGITS.view("<u4").ravel()
#: q < 10000 with its leading zeros as NULs (none for 0), then _QUADS
_GROUPS = np.concatenate([_DIGITS * (np.arange(10000)[:, None] >= _PLACES),
                          _DIGITS]).view("<u4").ravel()
#: t < 1000 as "tt.t", its leading zero a NUL, then as "tt.t" in full
_TAILS = np.tile(_DIGITS[:1000, [1, 2, 0, 3]], (2, 1))
_TAILS[:, 2] = 46
_TAILS[:100, 0] = 0
_TAILS = _TAILS.view("<u4").ravel()
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
    h = np.ldexp(hi, E - 54)
    up = r + h
    down = r - h * (1.0 - 0.5 * (f == 0.5))
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
    step = 1 + 9 * ten
    rem = (P - P // 10 * 10) * ten
    d = (rem + r) + 0.5 * step
    q = np.floor(d / step)
    g = d - q * step
    M = P - rem + q.astype(np.int64) * step
    M += step * ((M <= A).view(np.int8) - (M > B).view(np.int8))
    j = ten.astype(np.intp)
    tie = (g < _TOL) | (step - g < _TOL)

    # j >= 2: M is the one multiple of 100 in the interval, and j - 2 the
    # trailing zeros of c = M / 100 < 2^53, read from floats (docstring)
    idx = np.flatnonzero(B - B // 100 * 100 < width)
    c = B[idx] // 100
    M[idx] = c * 100
    t = c[:, None] / _HI[1:16]
    j[idx] = 2 + np.count_nonzero(t == np.floor(t), axis=1)
    return M, j, tie


def float_slots(v) -> np.ndarray:
    """(n, SLOT) uint8: row i holds ``repr(float(v[i]))``, NUL-padded."""
    v = np.asarray(v, dtype=np.float64).ravel()
    a = np.abs(v)
    fast = (a >= 1e-28) & (a < 1e16)
    s, P, r, A, B, unsure = _interval(a if fast.all() else
                                      np.where(fast, a, 1.0))
    M, j, tie = _nearest(P, r, A, B)
    # M has 16 to 18 digits, its 17 leading ones (and zeros) are lead's
    ndig = 16 + (M >= 10 ** 16).view(np.int8) + (M >= 10 ** 17).view(np.int8)
    lead = np.where(ndig == 16, M * 10, np.where(ndig == 18, M // 10, M))
    key = (ndig - j - 1) * (_DP_MAX - _DP_MIN + 1) + ndig - s - _DP_MIN

    # digits at bytes 7 .. 23 of rows of NULs, one more NUL for the shift
    top = (lead // 10 ** 8).astype(np.int32)
    low = (lead - top * np.int64(10 ** 8)).astype(np.int32)
    t4, l4 = top // 10000, low // 10000
    t8 = t4 // 10000
    n = v.size
    words = np.zeros(7 * n + 1, "<u4")
    row = words[:-1].reshape(-1, 7)
    np.left_shift(t8 + 48, 24, out=row[:, 1], casting="unsafe")
    for col, q in enumerate((t4 - t8 * 10000, top - t4 * 10000, l4,
                             low - l4 * 10000), 2):
        np.take(_QUADS, q, out=row[:, col], mode="clip")
    digits = words.view(np.uint8)
    out = np.take(_KEEP_LEFT, key, axis=0, mode="clip")
    out &= digits[1:SLOT * n + 1].reshape(-1, SLOT)
    right = np.take(_KEEP_RIGHT, key, axis=0, mode="clip")
    right &= digits[:SLOT * n].reshape(-1, SLOT)
    out |= right
    out |= np.take(_CONST, key, axis=0, mode="clip")
    out[:, 0] = np.signbit(v) * np.uint8(45)
    slow = np.flatnonzero(~fast | unsure | tie)
    if slow.size:
        text = b"".join(repr(x).encode().ljust(SLOT, b"\0")
                        for x in v[slow].tolist())
        out[slow] = np.frombuffer(text, np.uint8).reshape(-1, SLOT)
    return out


def fixed2_slots(v) -> np.ndarray:
    """(n, w) uint8: row i holds ``'%.2f' % float(v[i])``, NUL-padded; w
    is as narrow as the longest value allows."""
    v = np.asarray(v, dtype=np.float64).ravel()
    a = np.abs(v)
    fast = a < _F2_MAX
    a = a if fast.all() else np.where(fast, a, 0.0)
    p = a * 100.0
    ah, al = _split(a)
    e = (ah * 100.0 - p) + al * 100.0  # 100 = hi, lo = 0 in Dekker's product
    N = np.rint(p)
    d = p - N
    N = (N.astype(np.int64) + ((d == 0.5) & (e > 0.0)).view(np.int8)
         - ((d == -0.5) & (e < 0.0)).view(np.int8))
    # N < 1e15 in words: the sign, the groups of 4 digits that some N
    # needs (leading zeros as NULs), "dd.d" and the last digit; with q =
    # N // 10^k, q - q // 10^4 * 10^4 is the group from digit k up
    top = N.max(initial=0)
    tens, q = N // 10, N // 10000
    tail = _TAILS[tens - q * 1000 + 1000 * (q > 0)]
    groups = []
    for k in (4, 8, 12):
        if top < 10 ** k:
            break
        above = q // 10000
        groups.append(_GROUPS[q - above * 10000 + 10000 * (above > 0)])
        q = above
    words = np.empty((v.size, len(groups) + 3), "<u4")
    words[:, 0] = np.signbit(v) * np.uint32(45 << 24)
    for i, g in enumerate(reversed(groups), 1):
        words[:, i] = g
    words[:, -2] = tail
    words[:, -1] = N - tens * 10 + 48
    out = words.view(np.uint8)[:, 3:-3]
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = [b"%.2f" % x for x in v[slow].tolist()]
        width = max(out.shape[1], *map(len, text))
        out = np.pad(out, ((0, 0), (0, width - out.shape[1])))
        out[slow] = np.frombuffer(b"".join(t.ljust(width, b"\0")
                                           for t in text),
                                  np.uint8).reshape(slow.size, width)
    return out


def text_rows(n: int, *pieces) -> bytearray:
    """The text of n rows, each the pieces side by side, with the NULs
    dropped; a piece is either bytes (the same in every row) or NUL-padded
    slots (one row each).  The rows are laid out in a bytearray, whose
    ``translate`` drops the NULs in one C pass."""
    # a bytes piece as an (n, len) view with row stride 0: the broadcast
    # that np.broadcast_to makes, at a fraction of its cost per call
    pieces = [np.ndarray((n, len(p)), np.uint8, p, strides=(0, 1))
              if isinstance(p, bytes) else p for p in pieces]
    width = sum(p.shape[1] for p in pieces)
    buf = bytearray(n * width)
    np.concatenate(pieces, axis=1,
                   out=np.frombuffer(buf, np.uint8).reshape(n, width))
    return buf.translate(None, b"\0")


def write_csv(path, header, nrows: int, cells) -> None:
    """Write ``header`` and ``nrows`` CSV lines to ``path``; ``cells(lo, hi)``
    gives the NUL-padded fields of rows lo .. hi - 1 (``float_slots``)."""
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode("ascii") + b"\r\n")
        for lo in range(0, nrows, BLOCK):
            fields = cells(lo, min(lo + BLOCK, nrows))
            parts = [part for field in fields for part in (field, b",")]
            parts[-1] = b"\r\n"
            fh.write(text_rows(len(fields[0]), *parts))
