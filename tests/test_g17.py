"""``g17_fields`` writes exactly the bytes of ``"%.17g" % x``; ``csv_text``
joins them into the lines ``csv.writer`` writes."""

import csv
import io
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pstnet import g17
from pstnet.g17 import HIGH, LOW, WIDTH, csv_lines, csv_text, g17_fields

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


def test_power_table_covers_the_certified_range_unclipped():
    # The kernel indexes its power table with 16 - e - _K0, unclipped:
    # a negative index would wrap silently, so LOW, HIGH and their
    # neighbours must land inside the table.
    e = np.floor(np.log10(with_neighbours([LOW, HIGH])))
    k = 16 - e - g17._K0
    assert k.min() >= 0 and k.max() <= g17._K1 - g17._K0
    assert g17._POWERS.shape == (4, g17._K1 - g17._K0 + 1)


def test_rows_ending_in_zeros_among_17_digit_rows_across_a_pass():
    # Only a row whose last 4-digit group is 0 counts the zeros of the
    # groups before it.  Such rows, of both signs, sit among 17-digit
    # rows and on both sides of the boundary between two kernel passes.
    short = [0.25, 1234.5, 3.0, -1e-5, 1e16]
    short += [-v for v in short]
    x = np.random.default_rng(28).uniform(-1e5, 1e5, 2 * g17._PASS)
    edge = g17._PASS
    x[[0, 9, 300, edge - 2, edge - 1, edge, edge + 1, edge + 5, 2 * edge - 2, 2 * edge - 1]] = short
    mantissas = [("%.16e" % v).split("e")[0].replace(".", "") for v in x.tolist()]
    assert 8 <= sum(m.endswith("0000") for m in mantissas) <= 16  # a few of 8192
    assert_exact(x)


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


def test_scratch_memory_is_bounded_per_pass():
    # 262,144 values make a 6.3 MB result; one pass over all of them
    # would need about 120 MB of scratch
    x = np.random.default_rng(0).standard_normal((64, 4096))
    tracemalloc.start()
    try:
        rows = g17_fields(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6
    assert rows.shape == (64, 4096, WIDTH)


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


def writer_text(rows) -> str:
    """``csv.writer``'s lines of rows whose fields are already text."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


@given(st.integers(0, 20), st.data())
def test_csv_text_of_equal_length_columns(n, data):
    x, y = (data.draw(hnp.arrays(float, n)) for _ in range(2))
    fx, fy = (["%.17g" % v for v in c.tolist()] for c in (x, y))
    assert csv_text(x, y) == writer_text(zip(fx, fy))
    assert csv_text(x) == writer_text([f] for f in fx)


@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_csv_text_broadcasts_like_numpy(k, m, data):
    # (k, 1) against (m,) and (k, m): the lines of the explicitly repeated rows
    z = data.draw(hnp.arrays(float, (k, 1)))
    labels = np.arange(1, m + 1)
    values = data.draw(hnp.arrays(float, (k, m)))
    rows = [
        ("%.17g" % z[i, 0], "%d" % labels[j], "%.17g" % values[i, j])
        for i in range(k)
        for j in range(m)
    ]
    assert csv_text(z, labels, values) == writer_text(rows)


def test_csv_lines_takes_field_rows_in_any_memory_layout():
    fields = g17_fields(np.arange(12.0).reshape(3, 4) / 7)
    want = csv_lines(fields[:, 0], fields[:, 3])
    assert csv_lines(np.asfortranarray(fields)[:, 0], fields[:, 3, ::-1][..., ::-1]) == want
    assert want.splitlines()[1] == "%.17g,%.17g" % (4 / 7, 7 / 7)


def test_csv_text_formats_each_broadcast_value_once(monkeypatch):
    calls = []
    fields = g17.g17_fields
    monkeypatch.setattr(g17, "g17_fields", lambda x: calls.append(len(x)) or fields(x))
    text = csv_text(np.array([[0.5], [1.5]]), np.arange(1, 4), np.ones((2, 3)))
    assert calls == [2 + 3 + 6]
    assert text.splitlines() == ["0.5,1,1", "0.5,2,1", "0.5,3,1", "1.5,1,1", "1.5,2,1", "1.5,3,1"]


def test_csv_text_writes_integer_columns_as_d():
    n = 70_000
    ints = np.concatenate([np.arange(n + 1), [2**53 - 1]])
    assert csv_text(ints) == "".join("%d\r\n" % i for i in ints.tolist())
    assert csv_text(np.array([], dtype=np.int64)) == ""


def test_import_builds_tables_without_fractions_or_decimal():
    code = "import sys, pstnet.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
