"""``"%.17g" % x`` for a whole float64 column at once, byte for byte.

``g17_fields(x)`` returns a ``(*x.shape, WIDTH)`` uint8 array: per value,
the ASCII text of ``"%.17g" % x`` followed by NUL padding.
``csv_lines(*fields)`` joins such rows into CSV lines, and
``csv_text(*columns)`` does both.

For ``|x|`` in ``[LOW, HIGH]`` the digits come from exact scaling by a
table of powers of ten (as in Ryu, Adams, PLDI 2018): with ``e =
floor(log10 |x|)``, ``V = |x| * 10**(16 - e)`` is a double plus a small
tail, from Dekker's error-free product (Numer. Math. 18, 1971) with
``10**(16 - e)`` held as a double-double, so ``V`` is known to about
1e-14 and ``D = round(V)`` is the correctly rounded 17-digit integer.
``"%.17g" % x`` itself writes only the rows this cannot certify: ``V``
within 1e-6 of a half-integer (a possible tie), ``floor(V)`` outside
``[10**16, 10**17)`` or ``D = 10**17`` (``log10`` off by one), and zero,
subnormal, non-finite or out-of-range values.

The kernel formats ``_PASS`` values per pass into a word-major scratch,
an ``(8, _PASS)`` uint32 array whose row j holds word j of every value's
32-byte source row, so each word is written by one contiguous table
lookup.  Each output row is then one byte gather from a template per
(sign, exponent class, last nonzero digit), which makes ``%g``'s
fixed/scientific choice and drops trailing zeros.  The row of a value
with all 17 digits is one lookup by ``e`` plus its sign; the trailing
zeros of the last 4-digit group are one lookup too, and only the rows
whose last group is 0, rare in 17-digit output, count the zeros of the
groups before it.
"""

from __future__ import annotations

import numpy as np

LOW, HIGH = 1e-283, 1e290  # every 10**(16 - e) they need splits without overflow
WIDTH = 24  # len("-2.2250738585072014e-308")
_PASS = 4096  # values per kernel pass; a CLI chunk is one pass
_K0, _K1 = -274, 300  # table range of 16 - e
_SPLIT = 134217729.0  # 2**27 + 1


def _power(k: int) -> tuple[float, float]:
    """``10**k`` as ``hi + lo``, each rounded to nearest, from integers only."""
    p, q = 10 ** max(k, 0), 10 ** max(-k, 0)
    hi = p / q
    num, den = hi.as_integer_ratio()
    return hi, (p * den - num * q) / (q * den)


def _split(a):
    """Dekker's split of doubles into halves of at most 26 significant bits."""
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


_POWERS = np.array([_power(k) for k in range(_K0, _K1 + 1)]).T
_POWERS = np.vstack([_POWERS[0], *_split(_POWERS[0]), _POWERS[1]])  # hi, its halves, lo
_QUAD = np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
_QUAD = (_QUAD % 10 + 48).astype(np.uint8).view(np.uint32).ravel()  # "0000".."9999"
_ZEROS = sum(np.arange(10000) % 10**k == 0 for k in range(1, 5))  # trailing zeros
_EXP = np.array([f"e{k:+03d}" for k in range(-400, 400)], "S8").view(np.uint32)
_EXP = np.ascontiguousarray(_EXP.reshape(-1, 2).T)  # the two words of "e-400".."e+399"
_MARKS = np.frombuffer(b"-.\0\0", np.uint32)[0]

# A source row is 32 bytes, eight words: "000" and the 17 digits, "-",
# ".", NUL, NUL and the exponent text ("e+05", "e-283") padded with NUL
# to 8 bytes.  The exponent classes are 0..20 for fixed notation (e =
# -4..16) and 21.
_ZERO, _LEAD, _MINUS, _DOT, _NUL, _EXPONENT = 0, 3, 20, 21, 22, 24


def _template(cls: int, last: int) -> list[int]:
    """Source bytes of a positive row; ``last`` is its last nonzero digit."""
    digit = list(range(_LEAD, _LEAD + last + 1))
    if cls == 21:
        body = digit[:1] + [_DOT] * (last > 0) + digit[1:]
        body += range(_EXPONENT, _EXPONENT + 5)
    elif cls < 4:
        body = [_ZERO, _DOT] + [_ZERO] * (3 - cls) + digit
    else:
        point = cls - 3  # digits before the point
        body = [*range(_LEAD, _LEAD + point), *[_DOT] * (last >= point), *digit[point:]]
    return body + [_NUL] * (WIDTH - len(body))


def _word_major(t):
    """Map each source byte b in t, in place, to its offset for value 0 in
    the word-major scratch, b + (b // 4) (4 _PASS - 4); value i's bytes lie
    4 i further on.

    One temporary, so the table built at import adds nothing to the
    process's peak memory.
    """
    words = t // 4
    words *= 4 * _PASS - 4
    t += words
    return t


# One template row per (sign, class, last), positive rows first, and the
# offsets 4 i that place a row at value i.  _BASE[e + 400] is the row of a
# positive value with all 17 digits.
_TEMPLATES = np.array([_template(c, d) for c in range(22) for d in range(17)])
_TEMPLATES = np.vstack([_TEMPLATES, np.insert(_TEMPLATES[:, :-1], 0, _MINUS, axis=1)])
_TEMPLATES = _word_major(_TEMPLATES)
_ROWS = np.arange(0, 4 * _PASS, 4)[:, None]
_NEGATIVE = 22 * 17  # rows of the positive templates
_BASE = np.array([(e + 4 if -4 <= e <= 16 else 21) * 17 + 16 for e in range(-400, 400)])

_SLOT = np.dtype([("text", np.void, WIDTH), ("end", np.uint16)])
_COMMA, _CRLF = np.frombuffer(b",\0\r\n", np.uint16)


def g17_fields(x) -> np.ndarray:
    """NUL-padded ``(*x.shape, WIDTH)`` uint8 rows of ``"%.17g" % v`` for each v in x.

    The kernel formats at most ``_PASS`` values at a time, so its
    scratch memory, a few hundred bytes per value, stays bounded
    whatever the size of ``x``.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty((flat.size, WIDTH), np.uint8)
    for start in range(0, flat.size, _PASS):
        _fill(flat[start : start + _PASS], out[start : start + _PASS])
    return out.reshape(*x.shape, WIDTH)


def _fill(x, out) -> None:
    """Write the rows of the 1-D ``x`` into ``out``, a ``(len(x), WIDTH)`` uint8 view."""
    m = len(x)
    a = np.abs(x)
    fast = (a >= LOW) & (a <= HIGH)
    np.copyto(a, 1.0, where=~fast)
    e = np.floor(np.log10(a)).astype(np.intp)
    # for a in [LOW, HIGH], 16 - e - _K0 lies in [0, _K1 - _K0]: no clip
    hi, hh, hl, lo = _POWERS.take(16 - _K0 - e, axis=1)
    # V = p + tail, the tail summed in place in Dekker's order
    p = a * hi
    ah, al = _split(a)
    tail = ah * hh
    tail -= p
    tail += ah * hl
    tail += al * hh
    tail += al * hl
    tail += a * lo
    whole = np.floor(tail)
    tail -= whole
    tail -= 0.5  # V - floor(V) - 1/2, near 0 at a possible tie
    n = p.astype(np.int64)
    n += whole.astype(np.int64)  # floor(V)
    d = n + (tail > 0)
    fast &= (n >= 10**16) & (d < 10**17) & (np.abs(tail) > 1e-6)
    np.copyto(d, 10**16, where=~fast)
    # D as its lead digit and four groups of 4; floor_divide, as divmod is slower
    top = d // 10**8
    low = d - top * 10**8
    lead = top // 10**8
    mid = top - lead * 10**8
    g1, g3 = mid // 10**4, low // 10**4
    g2, g4 = mid - g1 * 10**4, low - g3 * 10**4
    # words 0-4 the digits, 5 the marks, 6-7 the exponent text
    src = np.empty((8, _PASS), np.uint32)
    for j, g in enumerate((lead, g1, g2, g3, g4)):
        _QUAD.take(g, out=src[j, :m], mode="clip")
    src[5, :m] = _MARKS
    ie = e + 400
    _EXP[0].take(ie, out=src[6, :m], mode="clip")
    _EXP[1].take(ie, out=src[7, :m], mode="clip")
    t = _BASE.take(ie)
    t[x < 0] += _NEGATIVE
    t -= _ZEROS.take(g4)
    ends = np.flatnonzero(g4 == 0)  # only these can end in more zeros
    if ends.size:
        g1, g2, g3 = g1[ends], g2[ends], g3[ends]
        t[ends] -= _ZEROS[g3] + (g3 == 0) * (_ZEROS[g2] + (g2 == 0) * _ZEROS[g1])
    rows = _TEMPLATES.take(t, axis=0)
    rows += _ROWS[:m]
    src.view(np.uint8).ravel().take(rows, out=out, mode="clip")  # every index is in range
    if not fast.all():
        out[~fast] = _percent(x[~fast])


def _percent(values) -> np.ndarray:
    """Rows of ``"%.17g" % v`` for the values the kernel cannot certify."""
    text = ["%.17g" % v for v in values.tolist()]
    return np.array(text, f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)


def csv_text(*columns) -> str:
    """CRLF-ended CSV lines of ``columns`` broadcast by numpy's rules.

    Every field is ``"%.17g" % x``, the text of ``"%d"`` for an integer
    below 2**53.  One ``g17_fields`` call formats each column at its own
    shape, so ``z[:, None]`` against ``(len(z), N)`` values formats each
    z once.
    """
    arrays = [np.asarray(c, dtype=float) for c in columns]
    fields = g17_fields(np.concatenate([a.ravel() for a in arrays]))
    blocks = np.split(fields, np.cumsum([a.size for a in arrays])[:-1])
    return csv_lines(*(f.reshape(*a.shape, WIDTH) for a, f in zip(arrays, blocks)))


def csv_lines(*fields) -> str:
    """CRLF-ended CSV lines of ``(..., WIDTH)`` field rows broadcast by numpy's rules."""
    shape = np.broadcast_shapes(*(f.shape[:-1] for f in fields))
    # one _SLOT per field: its NUL-padded text, then "," or CRLF
    table = np.empty((*shape, len(fields)), _SLOT)
    text, ends = table["text"], table["end"]
    ends[...] = _COMMA
    ends[..., -1] = _CRLF
    for j, f in enumerate(fields):
        row = np.ascontiguousarray(f, np.uint8).view(text.dtype)  # one item per field
        text[..., j] = row[..., 0]
    return table.tobytes().translate(None, b"\0").decode("ascii")
