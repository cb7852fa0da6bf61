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
subnormal, non-finite or out-of-range values.  Each row is laid out by one gather
from a template per (sign, exponent class, last nonzero digit), which
makes ``%g``'s fixed/scientific choice and drops trailing zeros.
"""

from __future__ import annotations

import numpy as np

LOW, HIGH = 1e-283, 1e290  # every 10**(16 - e) they need splits without overflow
WIDTH = 24  # len("-2.2250738585072014e-308")
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


_P_HI, _P_LO = np.array([_power(k) for k in range(_K0, _K1 + 1)]).T
_P_HH, _P_HL = _split(_P_HI)
_QUAD = np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
_QUAD = (_QUAD % 10 + 48).astype(np.uint8).view(np.uint32).ravel()  # "0000".."9999"
_ZEROS = sum(np.arange(10000) % 10**k == 0 for k in range(1, 5))  # trailing zeros
_EXP = np.array([f"e{k:+03d}" for k in range(-400, 400)], "S8").view(np.uint64)
_MARKS = np.frombuffer(b"-.\0\0", np.uint32)[0]

# A source row is 32 bytes: "000", the 17 digits, "-", ".", NUL, NUL and
# the exponent text ("e+05", "e-283") padded with NUL to 8 bytes.  The
# exponent classes are 0..20 for fixed notation (e = -4..16) and 21.
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


_TEMPLATES = np.array([_template(c, d) for c in range(22) for d in range(17)])
_TEMPLATES = np.vstack([_TEMPLATES, np.insert(_TEMPLATES[:, :-1], 0, _MINUS, axis=1)])


def g17_fields(x) -> np.ndarray:
    """NUL-padded ``(*x.shape, WIDTH)`` uint8 rows of ``"%.17g" % v`` for each v in x."""
    x = np.asarray(x, dtype=float)
    shape, x = x.shape, x.ravel()
    a = np.abs(x)
    fast = (a >= LOW) & (a <= HIGH)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    k = np.clip(16 - e - _K0, 0, _K1 - _K0)
    p = a * _P_HI[k]
    ah, al = _split(a)
    hh, hl = _P_HH[k], _P_HL[k]
    tail = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * _P_LO[k]
    whole = np.floor(tail)
    half = tail - whole - 0.5
    n = p.astype(np.int64) + whole.astype(np.int64)  # floor(V)
    d = n + (half > 0)
    fast &= (n >= 10**16) & (d < 10**17) & (np.abs(half) > 1e-6)
    d = np.where(fast, d, 10**16).astype(np.uint64)
    top, low = np.divmod(d, 10**8)
    lead, mid = np.divmod(top.astype(np.uint32), 10**8)
    groups = (lead, *np.divmod(mid, 10**4), *np.divmod(low.astype(np.uint32), 10**4))
    src = np.empty((len(x), 8), np.uint32)
    for j, g in enumerate(groups):
        src[:, j] = _QUAD[g]
    src[:, 5] = _MARKS
    src.view(np.uint64)[:, 3] = _EXP[e + 400]
    z1, z2, z3, z4 = (_ZEROS[g] for g in groups[1:])
    g1, g2, g3, g4 = (g == 0 for g in groups[1:])
    zeros = z4 + g4 * (z3 + g3 * (z2 + g2 * z1))
    cls = np.where((e >= -4) & (e <= 16), e + 4, 21)
    rows = _TEMPLATES.take(((x < 0) * 22 + cls) * 17 + 16 - zeros, axis=0)
    rows += np.arange(0, 32 * len(x), 32)[:, None]
    out = src.view(np.uint8).ravel().take(rows)
    if not fast.all():
        out[~fast] = _percent(x[~fast])
    return out.reshape(*shape, WIDTH)


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
    # each field takes WIDTH + 2 bytes: its text, then "," or CRLF, and NULs
    table = np.empty((*shape, len(fields), WIDTH + 2), np.uint8)
    table[..., WIDTH:] = ord(","), 0
    table[..., -1, WIDTH:] = ord("\r"), ord("\n")
    for j, f in enumerate(fields):
        table[..., j, :WIDTH] = f
    return table.tobytes().translate(None, b"\0").decode("ascii")
