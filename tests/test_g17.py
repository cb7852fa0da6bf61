"""``g17_fields`` writes exactly the bytes of ``"%.17g" % x``."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pstnet import g17
from pstnet.g17 import HIGH, LOW, WIDTH, g17_fields

pytestmark = pytest.mark.filterwarnings("error")


def assert_exact(values):
    x = np.asarray(values, dtype=float)
    rows = g17_fields(x)
    assert rows.shape == (len(x), WIDTH) and rows.dtype == np.uint8
    got = [row.tobytes().rstrip(b"\0").decode("ascii") for row in rows]
    want = ["%.17g" % v for v in x.tolist()]
    assert [(v, g) for v, g, w in zip(x.tolist(), got, want) if g != w] == []
    assert not any(b"\0" in row.tobytes().rstrip(b"\0") for row in rows)


def with_neighbours(values):
    x = np.asarray(values, dtype=float)
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


def test_every_power_of_ten_and_its_neighbours():
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    assert_exact(with_neighbours(powers + [-p for p in powers]))


def test_edges_of_the_certified_range():
    assert_exact(with_neighbours([LOW, HIGH, -LOW, -HIGH]))


def test_decimal_exponent_estimate_one_too_high():
    # log10 gives exactly -280, but the double lies just below 1e-280.
    assert "%.17g" % 1e-280 == "9.9999999999999996e-281"
    assert_exact([1e-280, -1e-280])


def test_exact_ties_round_half_even():
    assert_exact([1000000000000000.25, 1000000000000000.75, 100000000000000.125])


def test_special_values():
    assert_exact([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                  1.7976931348623157e308, -1.7976931348623157e308])


def test_random_bit_patterns():
    bits = np.random.default_rng(20181).integers(0, 2**64, 200_000, dtype=np.uint64)
    assert_exact(bits.view(np.float64))


def test_every_layout_with_trailing_zeros():
    # Dyadic fractions k / 2**m, integers d * 10**j and short decimals
    # print with any number of digits: together they reach 744 of the
    # 748 (sign, exponent class, last nonzero digit) layouts.
    rng = np.random.default_rng(7)
    odd = np.concatenate([rng.integers(2**b, 2 ** (b + 1), 8) | 1 for b in range(54)])
    dyadic = np.ldexp(odd.astype(float)[:, None], np.arange(-80, 60)).ravel()
    ints = [int(rng.integers(10 ** (n - 1), 10**n)) for n in range(1, 18) for _ in range(6)]
    decimal = np.array([(d - d % 10 + 1) * 10.0**j for d in ints for j in range(-8, 40)])
    short = (np.arange(1, 1000)[:, None] * 10.0 ** np.arange(-8, 30)).ravel()
    values = np.concatenate([dyadic, decimal, short])
    assert_exact(np.concatenate([values, -values]))


def test_empty_column():
    assert g17_fields(np.array([])).shape == (0, WIDTH)


def test_typical_columns_rarely_fall_back(monkeypatch):
    fallback = []
    percent = g17._percent
    monkeypatch.setattr(g17, "_percent", lambda v: fallback.append(len(v)) or percent(v))
    grid = np.arange(0.0, 500.0 + 0.5e-2, 1e-2)
    probs = np.sin(grid) ** 2
    assert_exact(np.concatenate([grid, probs]))
    assert sum(fallback) <= 4  # z = 0, sin(0)**2 = 0 and rare near-ties


@given(st.lists(st.floats(), max_size=40), st.integers(min_value=1, max_value=7))
@example([0.5, -0.0, 1e16, 9.999999999999999e22], 3)
def test_any_float_any_chunk_size(values, size):
    x = np.array(values, dtype=float)
    rows = [g17_fields(x[i : i + size]) for i in range(0, len(x), size)]
    text = b"".join(r.tobytes() for r in rows).replace(b"\0", b"")
    assert text == "".join("%.17g" % v for v in values).encode()
    assert_exact(x)


def test_import_builds_tables_without_fractions_or_decimal():
    code = "import sys, pstnet.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
