"""Python's ``'%.12e' % v`` for whole arrays, laid out as CSV rows.

Each cell's sign, 13-digit mantissa and decimal exponent are computed in
numpy, the mantissa rounded exactly as Python rounds it: one product
|v|·10**(12 - e) settles almost every cell, and the few it leaves unsure
take Dekker's exact product. The text is then laid out as one fixed-width
record per cell, built from word-sized copies out of lookup tables: the
lead digit and '.', three four-digit words, the exponent word and the
separator. A CSV row is its axis records and its value record, laid
straight into one buffer that every block of a file reuses. Python's own
``%.12e`` formats only the cells the scaling cannot decide: |v| outside
``_FAST_RANGE`` (zeros excepted), non-finite values and near-exact
rounding ties.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

import numpy as np

# |v| scaled in numpy; every split half and partial product of the scaling
# stays a normal double
_FAST_RANGE = (1e-280, 1e280)
# |e| of the decimal exponents the scaling tries: |v| in _FAST_RANGE has
# |e| <= 281, and the first guess of e can be one further out
_E_SCALED = 282
# exponent words are tabled for every decimal exponent a double can have
_E_TEXT = 324
_SPLIT = 2.0 ** 27 + 1.0  # Veltkamp's factor: a double as two 26-bit halves
# The mantissa rounds S = |v|·10**k, k = 12 - e, on its exact tail. With
# 10**k = hi + lo + r, p = fl(|v|·hi), err = |v|·hi - p (exact, by Dekker's
# product) and m = rint(p), the code takes d = fl((p - m) + fl(err + fl(|v|·lo)))
# as S - m. p - m is exact, and for S < 1e13 < 2**44 the error of d is at most
#   |v|·|r|                <= S·2**-107                    < 7e-20
#   rounding |v|·lo        <= 2**-53·S·2**-53              < 1.3e-19
#   rounding err + |v|·lo  <= 2**-53·(2**-10 + S·2**-53)   < 2.5e-19
#   rounding (p - m) + ... <= 2**-54 (|d| < 1)             < 5.6e-17
# using |r| <= ulp(lo)/2, |lo| <= ulp(hi)/2 and |err| <= ulp(p)/2 <= 2**-10;
# in all below 6e-17. A cell whose |S - m| is within _TIE_MARGIN of 0.5
# could be a tie either way and goes to Python.
_TIE_MARGIN = 2.0 ** -52
# The screen in front of that takes p and m alone. Where m < 1e13, p < 2**44
# and ulp(p) <= 2**-9, and |hi - 10**k| <= ulp(hi)/2 <= hi·2**-53, so
#   |p - S| <= ulp(p)/2 + |v|·|hi - 10**k| <= 2**-10 + S·2**-53 < 0.0022.
# A cell with |p - m| <= 0.5 - _TIE_MARGIN - _SCREEN_ERROR and
# 1e12 < m < 1e13 then has |S - m| < 0.5 - _TIE_MARGIN: m is S rounded, no
# tie is near, and 1e12 < S < 1e13 confirms e. m = 1e12 does not: an S just
# below 1e12, with e one too high, rounds up to it. Every other cell takes
# the exact path.
_SCREEN_ERROR = 2.0 ** -8
_BLOCK_CELLS = 4096  # CSV cells built and written per block


def _powers_of_ten() -> list[tuple[float, float]]:
    """10**k as hi + lo for k = 12 - e, e from -``_E_SCALED`` up: hi the
    double nearest 10**k, lo the double nearest 10**k - hi, both from exact
    integer arithmetic."""
    pairs = []
    power = 10 ** (12 + _E_SCALED)
    while power:  # k >= 0
        hi = float(power)
        pairs.append((hi, float(power - int(hi))))
        power //= 10
    den = 1
    while len(pairs) < 2 * _E_SCALED + 1:  # k < 0, 10**k = 1 / den
        den *= 10
        hi = 1 / den  # int / int is correctly rounded
        num, two = hi.as_integer_ratio()  # hi = num / two, two a power of 2
        # 10**k - hi = (two - num·den) / (den·two); dividing by two is exact,
        # as lo stays a normal double for every k tabled
        pairs.append((hi, math.ldexp((two - num * den) / den, 1 - two.bit_length())))
    return pairs


@functools.cache
def _e12_tables() -> tuple[np.ndarray, ...]:
    """Built at first use: 10**(12 - e) for |e| <= ``_E_SCALED`` as hi (with
    its 26-bit halves) and lo, then the text words: sign, lead digit and
    '.', four digits, and the exponent with and without a hundreds slot."""
    hi, lo = np.array(_powers_of_ten()).T
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    d = np.arange(100, dtype=np.uint8)
    pairs = np.stack([d // 10, d % 10], axis=1) + ord("0")  # "00" .. "99"
    quads = np.empty((100, 100, 4), dtype=np.uint8)  # "0000" .. "9999"
    quads[:, :, :2] = pairs[:, None]
    quads[:, :, 2:] = pairs[None, :]
    e = np.arange(-_E_TEXT, _E_TEXT + 1)
    exps = np.zeros((e.size, 5), dtype=np.uint8)  # "e+05" with a NUL slot, "e-308"
    exps[:, 0] = ord("e")
    exps[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    exps[:, 2] = np.where(abs(e) >= 100, ord("0") + abs(e) // 100, 0)
    exps[:, 3] = ord("0") + abs(e) // 10 % 10
    exps[:, 4] = ord("0") + abs(e) % 10
    return (hi, hi_hi, hi - hi_hi, lo,
            np.frombuffer(b"\0-", "V1"),
            np.frombuffer(b"".join(b"%d." % d for d in range(10)), "V2"),
            quads.reshape(-1).view("V4"),
            exps.view("V5").ravel(),
            # without the hundreds slot; used only when every |e| < 100
            np.ascontiguousarray(exps[:, [0, 1, 3, 4]]).view("V4").ravel())


def _rounded(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S = a·10**(12 - e) rounded half to even, as m, and S - m to within
    6e-17 (the bound derived at ``_TIE_MARGIN``), as d.

    a·hi is p = fl(a·hi) plus its error, found exactly by Dekker's product
    (T. J. Dekker, Numer. Math. 18 (1971) 224) from the halves of a and hi.
    """
    i = e + _E_SCALED
    hi, hi_hi, hi_lo, lo = (table[i] for table in _e12_tables()[:4])
    p = a * hi
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    err = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo
    m = np.rint(p)
    d = (p - m) + (err + a * lo)
    r = np.rint(d)  # |d| < 0.51: -1, 0 or 1
    return m + r, d - r


def _e12_fallback(x: np.ndarray) -> list[str]:
    """Python's own ``%.12e`` of each value."""
    return ["%.12e" % v for v in x.tolist()]


def _exact_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mantissa and decimal exponent of ``'%.12e' % v`` for each value of
    ``x``, by the exact rounding of ``_rounded``; a non-finite value gets
    mantissa 10**12 and exponent 0.

    With e the decimal exponent, the mantissa is S = |v|·10**(12 - e)
    rounded half to even. e starts as floor(log10|v|), which is at most one
    off, and moves by one where S falls outside [1e12, 1e13).
    """
    size = np.abs(x)
    zero = size == 0.0
    fast = (size >= _FAST_RANGE[0]) & (size <= _FAST_RANGE[1])
    a = np.where(fast, size, 1.0)  # zeros and Python's cells scale 1.0: e = 0
    e = np.floor(np.log10(a)).astype(np.int64)
    m, d = _rounded(a, e)
    # e is one too high where S < 1e12, and one too low where S rounds to
    # 1e13 or above; an S that rounds to 1e13 from below carries, and S/10
    # rounds to 1e12. S within 6e-17 above 1e12 may move down, and 10·S
    # then rounds to 1e13 and carries back.
    moved = np.flatnonzero(((m - 1e12) + d < 0.0) | (m >= 1e13))
    if moved.size:
        e[moved] += np.where(m[moved] >= 1e13, 1, -1)
        m[moved], d[moved] = _rounded(a[moved], e[moved])
        carry = moved[m[moved] == 1e13]
        m[carry] = 1e12
        e[carry] += 1
    m[zero] = 0.0
    m = m.astype(np.int64)
    # a non-finite value is left to _put, which lays out its text
    slow = np.flatnonzero(~(fast | zero) & (size < np.inf)
                          | (np.abs(d) > 0.5 - _TIE_MARGIN))
    for i, text in zip(slow.tolist(), _e12_fallback(x[slow])):
        body = text.lstrip("-")  # "d.dddddddddddde[+-]xx[x]"
        m[i], e[i] = int(body[0] + body[2:14]), int(body[15:])
    return m, e


def _e12_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sign bit, 13-digit mantissa and decimal exponent of ``'%.12e' % v``
    for each value of ``x``; a non-finite value gets mantissa 10**12 and
    exponent 0.

    m = rint(|v|·hi) with e = floor(log10|v|) is final wherever the screen
    derived at ``_SCREEN_ERROR`` passes it; the other cells (zeros, |v|
    outside ``_FAST_RANGE``, a wrong first e and cells near a tie) take
    ``_exact_parts``.
    """
    # |v| clamped to _FAST_RANGE, NaN to its floor: a clamped cell (zeros and
    # Python's cells) scales to m = 1e12 or 1e13, which the screen rejects
    a = np.fmin(np.fmax(np.abs(x), _FAST_RANGE[0]), _FAST_RANGE[1])
    e = np.floor(np.log10(a)).astype(np.int64)
    p = a * _e12_tables()[0][e + _E_SCALED]
    m = np.rint(p)
    p -= m
    unsure = np.flatnonzero((np.abs(p) > 0.5 - _TIE_MARGIN - _SCREEN_ERROR)
                            | (m <= 1e12) | (m >= 1e13))
    m = m.astype(np.int64)
    if unsure.size:
        m[unsure], e[unsure] = _exact_parts(x[unsure])
    return np.signbit(x), m, e


def _layout(neg: np.ndarray, e: np.ndarray) -> tuple[np.dtype, bool]:
    """The record dtype of cells with sign bits ``neg`` and exponents ``e``,
    and whether a finite cell's record holds NUL padding.

    A record has a sign slot, or a hundreds slot in its exponent, only if
    some cell needs it; where not every cell does, the slot is NUL when
    unused.
    """
    signed = bool(neg.any())
    hundreds = e.size > 0 and (int(e.max()) >= 100 or int(e.min()) <= -100)
    dtype = np.dtype([("s", "V1")] * signed + [
        ("d", "V2"), ("q2", "V4"), ("q1", "V4"), ("q0", "V4"),
        ("x", "V5" if hundreds else "V4"), ("sep", "S1")])
    return dtype, ((signed and not neg.all())
                   or (hundreds and not bool((np.abs(e) >= 100).all())))


def _put(rec: np.ndarray, x: np.ndarray, neg: np.ndarray, m: np.ndarray, e: np.ndarray,
         sep: bytes) -> bool:
    """Lay the text of each value of ``x`` into the records ``rec`` (a
    ``_layout`` dtype, possibly a strided view), all but the separator
    slot, and return whether some value is non-finite. A non-finite value's
    text is NUL-padded to the record's width and ends in ``sep``."""
    sign, lead, quad, exp5, exp4 = _e12_tables()[4:]
    if "s" in rec.dtype.names:
        rec["s"] = sign[neg.view(np.uint8)]
    top = m // 10 ** 8  # the lead digit and the next four
    low = m - top * 10 ** 8
    digit = top // 10 ** 4
    rec["d"] = lead[digit]
    rec["q2"] = quad[top - digit * 10 ** 4]
    q1 = low // 10 ** 4
    rec["q1"] = quad[q1]
    rec["q0"] = quad[low - q1 * 10 ** 4]
    rec["x"] = (exp5 if rec.dtype["x"].itemsize == 5 else exp4)[e + _E_TEXT]
    finite = np.isfinite(x)
    if finite.all():
        return False
    odd = np.flatnonzero(~finite)
    raw = b"".join(t.encode().ljust(rec.itemsize - 1, b"\0") + sep
                   for t in _e12_fallback(x[odd]))
    rec[odd] = np.frombuffer(raw, rec.dtype)
    return True


def _records(x: np.ndarray, neg: np.ndarray, m: np.ndarray, e: np.ndarray,
             sep: bytes) -> tuple[np.ndarray, bool]:
    """``_fields`` of ``x`` from its ``_e12_parts``."""
    dtype, padded = _layout(neg, e)
    rec = np.empty(x.size, dtype)
    rec["sep"] = sep
    odd = _put(rec, x, neg, m, e, sep)
    return rec.view(f"V{rec.itemsize}"), padded or odd


def _fields(x: np.ndarray, sep: str) -> tuple[np.ndarray, bool]:
    """``'%.12e' % v + sep`` for every value of ``x`` as one fixed-width
    record each (a void array, see ``_layout``), and whether a record holds
    NUL padding."""
    x = np.asarray(x, dtype=float).ravel()
    return _records(x, *_e12_parts(x), sep.encode())


def csv_rows(axes: list[np.ndarray], vals: np.ndarray) -> Iterator[memoryview | bytes]:
    """The CSV rows of ``vals`` over one or two ``axes``, one block of about
    ``_BLOCK_CELLS`` cells at a time.

    A row is one record: the first axis's field, the second axis's, the
    value's. Every block is laid out in one buffer that the whole file
    reuses, so a yielded block is valid only until the next one is
    requested. The second axis's fields and the value separators are laid
    into it once per file (again only where a block's values need another
    record layout), the first axis's fields once per block, and the value
    fields straight into their slots. One ``_e12_parts`` pass takes the
    axes, and the values too when they fit one block. A block without NUL
    padding is yielded as a view of the buffer; a padded one as a copy with
    its NULs removed.
    """
    xs = [np.asarray(xs, dtype=float).ravel() for xs in axes]
    ncols = len(xs[1]) if len(xs) > 1 else 1
    cells = np.asarray(vals, dtype=float).reshape(len(xs[0]), ncols)
    step = max(1, _BLOCK_CELLS // max(1, ncols))
    block_rows = min(step, len(cells))
    one_block = len(cells) <= step
    segments = xs + [cells.ravel()] * one_block
    ends = np.cumsum([s.size for s in segments]).tolist()
    parts = _e12_parts(np.concatenate(segments))
    cut = [tuple(p[end - s.size:end] for p in parts) for s, end in zip(segments, ends)]
    head, *rest = [_records(s, *c, b",") for s, c in zip(xs, cut)]
    axes_padded = any(padded for _, padded in (head, *rest))
    buf = frame = None
    for i in range(0, len(cells), step):
        block = cells[i:i + step]
        x = block.ravel()
        neg, m, e = cut[-1] if one_block else _e12_parts(x)
        value, padded = _layout(neg, e)
        if frame is None or frame.dtype["v"] != value:
            # the value record's width sets the row's, so the fields laid
            # once per file are laid again
            row = np.dtype([("h", head[0].dtype)] + [("t", rec.dtype) for rec, _ in rest]
                           + [("v", value)])
            size = block_rows * ncols * row.itemsize
            if buf is None or buf.size < size:
                buf = np.empty(size, np.uint8)
            frame = buf[:size].view(row)
            if rest:
                frame.reshape(block_rows, ncols)["t"] = rest[0][0]
            frame["v"]["sep"] = b"\n"
        rows = frame[:x.size]
        rows.reshape(block.shape)["h"] = head[0][i:i + len(block), None]
        padded |= _put(rows["v"], x, neg, m, e, b"\n")
        text = buf[:rows.nbytes]
        yield text.tobytes().translate(None, b"\0") if padded or axes_padded else text.data
