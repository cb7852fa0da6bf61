import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pstnet.cli
import pstnet.g17
import pstnet.gaussian
import pstnet.propagation as propagation
from pstnet import (
    NetworkSpec,
    TmsvParams,
    custom_profile,
    propagator,
    tmsv_covariance,
    uniform_profile,
)
from pstnet.cli import _CHUNK_ROWS, _csv_chunks, _emit, _jsonable, main, parse_length
from pstnet.g17 import csv_text


def run_cli(args, cwd, env_extra=None, python_flags=()):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "pstnet", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def counting_amplitudes(monkeypatch):
    """Patch the CLI's ``offset_amplitudes`` to record the grid length of every call."""
    calls = []
    amplitudes = pstnet.cli.offset_amplitudes

    def counted(spec, zs, **kwargs):
        calls.append(len(zs))
        return amplitudes(spec, zs, **kwargs)

    monkeypatch.setattr(pstnet.cli, "offset_amplitudes", counted)
    return calls


def peak_bytes(argv):
    """``tracemalloc`` peak of one in-process run of ``argv``."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


class TestParseLength:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("pi", math.pi),
            ("pi/2", math.pi / 2),
            ("3pi/2", 3 * math.pi / 2),
            ("2pi", 2 * math.pi),
            ("-pi/4", -math.pi / 4),
            ("0.5", 0.5),
            ("1e-3", 1e-3),
        ],
    )
    def test_accepted(self, text, value):
        assert parse_length(text) == pytest.approx(value, rel=1e-15)

    def test_rejected(self):
        for text in ("two pies", "pi/0"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_length(text)


def reference_csv(header, rows) -> bytes:
    """Reference bytes: csv.writer over 17-digit floats and plain integers."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(
        [v if isinstance(v, int) else format(float(v), ".17g") for v in row]
        for row in rows
    )
    return buf.getvalue().encode()


SPECIAL_FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16,
    1e17, 2.0**53 + 2, 0.1, 1 / 3, 1e-300, 1.7976931348623157e308, 2.2250738585072014e-308,
]


class TestCsvChunks:
    """``_csv_chunks`` through ``_emit`` writes csv.writer's bytes."""

    @pytest.mark.parametrize(
        "length", [0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1]
    )
    def test_matches_csv_writer(self, tmp_path, length):
        labels = np.arange(length) + 1
        x = np.resize(SPECIAL_FLOATS, length)
        y = -np.resize(SPECIAL_FLOATS[::-1], length)
        header = ("mode", "x", "y")
        args = argparse.Namespace(outdir=str(tmp_path), output="t", command="t", format="csv")
        chunks = _csv_chunks(labels, x, y)
        assert _emit(args, header, lambda write: write(chunks)) == 0
        rows = zip(labels.tolist(), x.tolist(), y.tolist())
        assert (tmp_path / "t.csv").read_bytes() == reference_csv(header, rows)

    @given(
        st.lists(st.floats(), max_size=40),
        st.integers(min_value=1, max_value=7),
    )
    def test_any_float_any_chunk_size(self, values, size):
        values = np.array(values, dtype=float)
        labels = np.arange(len(values))
        columns = (values, labels, values[::-1])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pstnet.cli, "_CHUNK_ROWS", 3 * size)  # chunks of `size` rows
            text = "".join(_csv_chunks(*columns))
        rows = zip(values.tolist(), labels.tolist(), values[::-1].tolist())
        assert ("z,mode,p\r\n" + text).encode() == reference_csv(("z", "mode", "p"), rows)
        assert text == csv_text(*columns)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=-2, max_value=2),
        st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(), min_size=1, max_size=12),
        st.booleans(),
    )
    def test_float_columns_are_formatted_together(self, k, chunks, delta, values, labelled):
        # every column, a label column too, is formatted in the same call:
        # lengths around a whole number of chunks of _CHUNK_ROWS // columns rows
        step = _CHUNK_ROWS // (k + labelled)
        length = max(0, chunks * step + delta)
        columns = [np.roll(np.resize(np.array(values), length), j) for j in range(k)]
        if labelled:
            columns.insert(k // 2, np.arange(length))
        texts = list(_csv_chunks(*columns))
        assert [t.count("\r\n") for t in texts[:-1]] == [step] * (len(texts) - 1)
        assert len(texts) == -(-length // step)
        header = [f"c{j}" for j in range(len(columns))]
        rows = zip(*(c.tolist() for c in columns))
        expected = reference_csv(header, rows)
        assert (",".join(header) + "\r\n" + "".join(texts)).encode() == expected
        # the text of one csv_text call over the whole columns
        assert "".join(texts) == csv_text(*columns)


@dataclasses.dataclass(frozen=True)
class Point:
    x: float
    y: object


class TestJsonable:
    """The ``json.dumps`` default of every summary."""

    def test_a_dataclass_is_the_mapping_of_its_fields(self):
        inner = Point(0.5, 1 + 2j)
        assert _jsonable(Point(-1.0, inner)) == {"x": -1.0, "y": inner}
        assert json.loads(json.dumps(Point(-1.0, inner), default=_jsonable)) == {
            "x": -1.0, "y": {"x": 0.5, "y": [1.0, 2.0]}
        }

    def test_a_complex_is_re_im(self):
        assert _jsonable(complex(-0.0, math.inf)) == [-0.0, math.inf]

    @pytest.mark.parametrize(
        "value", [object(), {1, 2}, b"bytes", np.int64(3), np.bool_(True), Point], ids=repr
    )
    def test_anything_else_raises_type_error(self, value):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            _jsonable(value)


class TestSpectrumCommand:
    def test_collapse_histogram(self, tmp_path):
        result = run_cli(
            ["spectrum", "--n", "12", "--profile", "uniform:C=1,R=5"], tmp_path
        )
        assert result.returncode == 0
        header, rows = read_csv(tmp_path / "spectrum.csv")
        assert header == ["p", "lambda_p"]
        assert len(rows) == 12
        assert float(rows[0][1]) == pytest.approx(10.0, abs=1e-10)
        hist = json.loads((tmp_path / "spectrum.json").read_text())
        assert sorted(b["multiplicity"] for b in hist["bins"]) == [1, 5, 6]

    def test_cosine_band(self, tmp_path):
        result = run_cli(
            ["spectrum", "--n", "12", "--profile", "uniform:C=1,R=1"], tmp_path
        )
        assert result.returncode == 0
        _, rows = read_csv(tmp_path / "spectrum.csv")
        lams = [float(r[1]) for r in rows]
        expected = [2.0 * math.cos(2.0 * math.pi * p / 12) for p in range(12)]
        assert lams == pytest.approx(expected, abs=1e-12)

    def test_evanescent_broadened(self, tmp_path):
        result = run_cli(
            ["spectrum", "--n", "12", "--profile", "evanescent:mu=0.5,R=6"], tmp_path
        )
        assert result.returncode == 0
        hist = json.loads((tmp_path / "spectrum.json").read_text())
        assert len(hist["bins"]) > 3

    def test_csv_only_format(self, tmp_path):
        run_cli(
            [
                "spectrum",
                "--n",
                "8",
                "--profile",
                "uniform:C=1,R=3",
                "--format",
                "csv",
            ],
            tmp_path,
        )
        assert (tmp_path / "spectrum.csv").exists()
        assert not (tmp_path / "spectrum.json").exists()


class TestFloatLimit:
    """A ring whose spectrum is finite although sums of its eigenvalues overflow."""

    @pytest.mark.parametrize(
        "args",
        [
            ["spectrum", "--n", "7"],
            ["spectrum", "--n", "9"],
            ["cat", "--n", "7", "--source", "1", "--target", "2", "--alpha", "0.5",
             "--phi", "0", "--z-max", "1e-309"],
        ],
        ids=["spectrum-7", "spectrum-9", "cat-default-dz"],
    )
    def test_a_finite_spectrum_is_written_and_scanned(self, tmp_path, args):
        # eigenvalues reach 1.5e308 (N = 7) and 1.7e308 (N = 9); the cat
        # scan takes its default step, 0.01 / 5e307
        result = run_cli(
            [*args, "--profile", "custom:5e307,-5e307", "--outdir", "out"],
            tmp_path,
            python_flags=("-W", "error::RuntimeWarning"),
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""

        def refuse(constant):
            raise AssertionError(f"the JSON holds {constant}")

        summary = json.loads((tmp_path / "out" / f"{args[0]}.json").read_text(),
                             parse_constant=refuse)
        _, rows = read_csv(tmp_path / "out" / f"{args[0]}.csv")
        assert all(math.isfinite(float(field)) for row in rows for field in row)
        if args[0] == "cat":
            assert summary["dz"] == 0.01 / 5e307


class TestTransportCommand:
    def test_antipodal_peak(self, tmp_path):
        result = run_cli(
            [
                "transport",
                "--n",
                "8",
                "--profile",
                "uniform:C=1,R=3",
                "--source",
                "1",
                "--z-max",
                "3.1416",
                "--dz",
                "0.005",
            ],
            tmp_path,
        )
        assert result.returncode == 0
        header, rows = read_csv(tmp_path / "transport.csv")
        assert header == ["z", "mode", "probability"]
        by_mode = {}
        totals = {}
        for z, mode, prob in rows:
            by_mode.setdefault(int(mode), []).append((float(z), float(prob)))
            totals[z] = totals.get(z, 0.0) + float(prob)
        peak_z, peak_p = max(by_mode[5], key=lambda t: t[1])
        assert peak_p > 0.999
        assert peak_z == pytest.approx(math.pi / 2, abs=0.005)
        assert all(abs(t - 1.0) < 1e-9 for t in totals.values())

    # the README trace: 629 z-steps of 8 modes
    README = ["transport", "--n", "8", "--profile", "uniform:C=1,R=3", "--source", "1",
              "--z-max", "pi", "--dz", "0.005"]

    def test_chunks_write_the_bytes_of_one_grid(self, tmp_path, monkeypatch):
        calls = counting_amplitudes(monkeypatch)
        # a z-step is 9 values: its z and 8 probabilities
        monkeypatch.setattr(pstnet.cli, "_CHUNK_ROWS", 9 * 629)
        assert main([*self.README, "--outdir", str(tmp_path / "one")]) == 0
        assert calls == [629]
        one = (tmp_path / "one" / "transport.csv").read_bytes()
        # 4 z-steps per chunk and a one-step last chunk (629 = 4 * 157 + 1)
        calls.clear()
        monkeypatch.setattr(pstnet.cli, "_CHUNK_ROWS", 9 * 4)
        assert main([*self.README, "--outdir", str(tmp_path / "many")]) == 0
        assert calls == [4] * 157 + [1]
        assert (tmp_path / "many" / "transport.csv").read_bytes() == one

    def test_memory_does_not_grow_with_the_grid(self, tmp_path):
        # 20,001 and 200,001 z-steps: the trace is written block by block
        argv = ["transport", "--n", "8", "--profile", "uniform:C=1,R=3", "--source", "1",
                "--dz", "0.01", "--outdir", str(tmp_path)]
        short = peak_bytes([*argv, "--z-max", "200"])
        long = peak_bytes([*argv, "--z-max", "2000"])
        assert long - short < 2**20
        assert (tmp_path / "transport.csv").read_bytes().count(b"\n") == 1 + 8 * 200_001

    def test_memory_of_a_wide_ring_is_that_of_one_chunk_of_rows(self, tmp_path):
        # 2 z-steps of 65,536 modes: formatting all of a z-step's rows at
        # once peaks near 38 MB; slices of _CHUNK_ROWS modes leave the
        # N-length amplitude arrays and one chunk's text
        argv = ["transport", "--n", "65536", "--profile", "uniform:C=1,R=3", "--source", "1",
                "--z-max", "1", "--dz", "1", "--outdir", str(tmp_path)]
        assert peak_bytes(argv) < 12 * 2**20
        # the slices write the rows of one unsliced csv_text call, in (z, mode) order
        z = np.array([0.0, 1.0])
        spec = NetworkSpec(65536, uniform_profile(1.0, 3))
        probs = np.abs(propagation.offset_amplitudes(spec, z)) ** 2
        rows = csv_text(z[:, None], np.arange(1, 65537), probs)
        header = b"z,mode,probability\r\n"
        assert (tmp_path / "transport.csv").read_bytes() == header + rows.encode()

    def test_a_trace_larger_than_the_free_disk_is_refused(self, tmp_path, monkeypatch, capsys):
        csv_path = tmp_path / "transport.csv"
        csv_path.write_bytes(b"an earlier trace\n")
        # every row takes at least "z,m,p\r\n": 7 bytes
        needed = 7 * 8 * 629

        def free_bytes(free):
            monkeypatch.setattr(
                pstnet.cli.shutil, "disk_usage", lambda path: SimpleNamespace(free=free)
            )

        free_bytes(needed - 1)
        assert main([*self.README, "--outdir", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            f"pstnet: error: {csv_path} needs at least {needed} bytes, "
            f"more than the {needed - 1} bytes free on its disk\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["transport.csv"]
        assert csv_path.read_bytes() == b"an earlier trace\n"
        # the bound is a lower bound: a disk with exactly that much free runs
        free_bytes(needed)
        assert main([*self.README, "--outdir", str(tmp_path)]) == 0
        assert csv_path.read_bytes().count(b"\n") == 1 + 8 * 629

    def test_a_wide_ring_formats_its_mode_labels_once(self, tmp_path, monkeypatch):
        # 3 z-steps of 8192 modes, each in two slices of 4096: every z and
        # probability is formatted once, and so is every mode label
        values = []
        fields = pstnet.g17.g17_fields

        def counted(x):
            values.append(np.size(x))
            return fields(x)

        monkeypatch.setattr(pstnet.g17, "g17_fields", counted)
        monkeypatch.setattr(pstnet.cli, "g17_fields", counted, raising=False)
        argv = ["transport", "--n", "8192", "--profile", "uniform:C=1,R=4095", "--source", "1",
                "--z-max", "0.002", "--dz", "0.001", "--outdir", str(tmp_path)]
        assert main(argv) == 0
        assert sum(values) == 3 + 8192 + 3 * 8192
        assert (tmp_path / "transport.csv").read_bytes().count(b"\n") == 1 + 3 * 8192


class TestPstCheckCommand:
    def test_negative_case(self, tmp_path):
        result = run_cli(
            [
                "pst-check",
                "--n",
                "10",
                "--profile",
                "uniform:C=1,R=4",
                "--source",
                "1",
            ],
            tmp_path,
        )
        assert result.returncode == 0
        report = json.loads((tmp_path / "pst-check.json").read_text())
        assert report["is_pst"] is False
        assert report["source"] == 1 and report["target"] == 6
        amplitude = complex(*report["amplitude_at_zpst"])
        assert abs(amplitude) ** 2 == pytest.approx(0.64, abs=1e-9)

    def test_positive_case_labels(self, tmp_path):
        run_cli(
            [
                "pst-check",
                "--n",
                "8",
                "--profile",
                "uniform:C=1,R=3",
                "--source",
                "1",
            ],
            tmp_path,
        )
        report = json.loads((tmp_path / "pst-check.json").read_text())
        assert report["is_pst"] is True
        assert report["source"] == 1 and report["target"] == 5
        # the real part is exactly -1.0: integral floats must load back as floats
        assert [type(x) for x in report["amplitude_at_zpst"]] == [float, float]

    def test_odd_n_is_domain_error(self, tmp_path):
        result = run_cli(
            ["pst-check", "--n", "7", "--profile", "uniform:C=1,R=2", "--source", "1"],
            tmp_path,
        )
        assert result.returncode == 3
        assert "error" in result.stderr

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP direction 1: is_pst is decided at pi / (2 C_max) only, "
        "so a ring that transfers fully at a later distance reads is_pst=false",
    )
    @pytest.mark.parametrize("n,profile", [("4", "custom:1,0.5"), ("8", "custom:1,1,1,0.5")])
    def test_full_transfer_past_the_candidate_is_pst(self, tmp_path, n, profile):
        argv = ["pst-check", "--n", n, "--profile", profile, "--source", "1"]
        assert main([*argv, "--outdir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "pst-check.json").read_text())
        assert report["is_pst"] is True
        assert abs(report["z_pst"] - math.pi) <= 1e-9


class TestCatCommand:
    def test_symbolic_phase_scan(self, tmp_path):
        result = run_cli(
            [
                "cat",
                "--n",
                "12",
                "--profile",
                "uniform:C=1,R=5",
                "--source",
                "1",
                "--alpha",
                "0.5",
                "--phi",
                "pi/2",
                "--z-max",
                "2pi",
                "--dz",
                "0.01",
            ],
            tmp_path,
        )
        assert result.returncode == 0
        summary = json.loads((tmp_path / "cat.json").read_text())
        assert summary["target"] == 7
        assert summary["max_fidelity"] == pytest.approx(math.exp(-0.5), abs=1e-4)
        header, rows = read_csv(tmp_path / "cat.csv")
        assert header == ["z", "fidelity"]
        assert all(0.0 <= float(r[1]) <= 1.0 + 1e-12 for r in rows)

    def test_degenerate_cat_is_domain_error(self, tmp_path):
        result = run_cli(
            [
                "cat",
                "--n",
                "12",
                "--profile",
                "uniform:C=1,R=5",
                "--source",
                "1",
                "--alpha",
                "0",
                "--phi",
                "pi",
                "--z-max",
                "1",
            ],
            tmp_path,
        )
        assert result.returncode == 3

    @pytest.mark.parametrize("python_flags", [(), ("-O",)])
    def test_non_finite_alpha_is_domain_error(self, tmp_path, python_flags):
        result = run_cli(
            [
                "cat",
                "--n",
                "12",
                "--profile",
                "uniform:C=1,R=5",
                "--source",
                "1",
                "--alpha",
                "nan",
                "--phi",
                "0",
                "--z-max",
                "1",
            ],
            tmp_path,
            python_flags=python_flags,
        )
        assert result.returncode == 3
        assert result.stderr.startswith("pstnet: error: alpha must be finite")
        assert not list(tmp_path.iterdir())

    def test_alpha_whose_exponential_overflows_is_one_line(self, tmp_path):
        # no numpy RuntimeWarning and no nan fidelity, only the refusal
        argv = ["cat", "--n", "12", "--profile", "uniform:C=1,R=5", "--source", "1",
                "--alpha", "40", "--phi", "0", "--z-max", "1"]
        result = run_cli(argv, tmp_path)
        assert result.returncode == 3
        assert result.stderr == (
            "pstnet: error: alpha = 40 is too large: the fidelity needs "
            "exp(alpha^2), which overflows for alpha^2 > 709\n"
        )
        assert not list(tmp_path.iterdir())

    DISTANCE = "strength 9.99989e-321 is too small: the distance (2s + 1) pi / (2 C) overflows"
    REACH = "strength 1e-308 is too small: the scan reach 8 pi / (2 C) overflows"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["pst-check", "--n", "12", "--profile", "custom:1e-320", "--source", "1"],
             DISTANCE),
            (["synth", "--n", "8", "--m", "4", "--c", "1e-320"], DISTANCE),
            # pi / (2 C) is finite, the reach of check_pst's scan is not
            (["pst-check", "--n", "12", "--profile", "custom:1e-308", "--source", "1",
              "--outdir", "out"], REACH),
        ],
        ids=["pst-check", "synth", "pst-check-scan-reach"],
    )
    def test_coupling_whose_distance_overflows_is_one_line(self, tmp_path, argv, message):
        # pi / (2 C) or the scan reach is inf: no numpy RuntimeWarning, no
        # non-finite z, one line
        result = run_cli(argv, tmp_path)
        assert result.returncode == 3
        assert result.stderr == f"pstnet: error: {message}\n"
        assert result.stdout == ""
        assert not list(tmp_path.iterdir())

    def test_all_zero_couplings_need_an_explicit_dz(self, tmp_path, capsys):
        argv = ["cat", "--n", "4", "--profile", "custom:0,0", "--source", "1",
                "--alpha", "0.5", "--phi", "0", "--z-max", "1", "--outdir", str(tmp_path)]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "pstnet: error: every coupling is zero: the scan needs an explicit dz\n"
        )
        assert list(tmp_path.iterdir()) == []
        assert main([*argv, "--dz", "0.5"]) == 0


class TestTmsvCommand:
    README = ["tmsv", "--n", "8", "--profile", "uniform:C=1,R=3", "--pair", "1,2",
              "--z-max", "pi", "--dz", "0.01"]

    def test_squeezing_columns(self, tmp_path):
        result = run_cli(
            [
                "tmsv",
                "--n",
                "8",
                "--profile",
                "uniform:C=1,R=3",
                "--w",
                "0.881374",
                "--theta",
                "0",
                "--pair",
                "1,2",
                "--z-max",
                "pi/2",
                "--dz",
                "pi/8",
            ],
            tmp_path,
        )
        assert result.returncode == 0
        header, rows = read_csv(tmp_path / "tmsv.csv")
        assert header == ["z", "S_Q_12", "S_P_12", "S_Q_56", "S_P_56"]
        first, last = rows[0], rows[-1]
        floor = 0.5 * (math.exp(-2 * 0.881374) - 1.0)
        assert float(first[1]) == pytest.approx(floor, abs=1e-10)
        assert float(last[0]) == pytest.approx(math.pi / 2, abs=1e-12)
        assert float(last[3]) == pytest.approx(floor, abs=1e-8)
        assert float(last[1]) == pytest.approx(0.0, abs=1e-8)

    def test_input_covariance_is_checked_once_per_command(self, tmp_path, monkeypatch):
        # 5001 z-steps of 64 modes make 5 blocks of 1024 steps; the input
        # covariance is built and checked once, not once per block
        calls = []
        build = pstnet.gaussian.tmsv_covariance

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(pstnet.gaussian, "tmsv_covariance", counted)
        monkeypatch.setattr(pstnet.cli, "tmsv_covariance", counted)
        argv = ["tmsv", "--n", "64", "--profile", "uniform:C=1,R=31", "--w", "0.881374",
                "--pair", "1,2", "--z-max", "50", "--dz", "0.01", "--outdir", str(tmp_path)]
        assert main(argv) == 0
        assert len(calls) == 1
        assert (tmp_path / "tmsv.csv").read_bytes().count(b"\n") == 1 + 5001

    def test_track_of_one_mode_is_domain_error(self, tmp_path):
        result = run_cli(
            ["tmsv", "--n", "8", "--profile", "uniform:C=1,R=3", "--w", "0.5",
             "--pair", "1,2", "--track", "3,3", "--z-max", "1", "--dz", "0.5"],
            tmp_path,
        )
        assert result.returncode == 3
        assert result.stderr.startswith(
            "pstnet: error: squeezing factor needs two distinct modes"
        )
        assert not list(tmp_path.iterdir())

    # w = 20 loses cosh^2 - sinh^2 = 1 to rounding, 400 overflows the
    # covariance, 800 overflows cosh(w) itself
    @pytest.mark.parametrize("w", ["20", "400", "800"])
    def test_strong_squeezing_is_a_covariance_error(self, tmp_path, w):
        result = run_cli(
            ["tmsv", "--n", "8", "--profile", "uniform:C=1,R=3", "--w", w,
             "--pair", "1,2", "--z-max", "1", "--dz", "0.5"],
            tmp_path,
        )
        assert result.returncode == 3
        assert result.stderr.startswith("pstnet: error: covariance matrix ")
        assert result.stderr.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_squeezing_at_the_edge_of_the_verified_range(self, tmp_path):
        # physicality is decided exactly up to w of about 4
        result = run_cli([*self.README, "--w", "4"], tmp_path)
        assert result.returncode == 0
        assert result.stderr == ""
        assert len((tmp_path / "tmsv.csv").read_bytes().splitlines()) == 1 + 315

    # Physical inputs whose two-mode outputs lie within rounding of the
    # vacuum floor (least symplectic eigenvalue read as 0.4999999973546468
    # and 0.49999999932393896, below 1/2 - 1e-9): they are transported,
    # not refused, and match R D R^T from the dense propagator.
    @pytest.mark.parametrize(
        "command,couplings,pair,track,theta",
        [
            ("--n 2 --profile custom:1 --pair 2,1", [1.0], (1, 0), (0, 1), 0.0),
            ("--n 7 --profile custom:0.5,-1,0.25 --pair 2,3 --track 1,6 --theta 0.7",
             [0.5, -1.0, 0.25], (1, 2), (0, 5), 0.7),
        ],
        ids=["n2", "n7-track"],
    )
    def test_strong_squeezing_of_a_physical_input_is_transported(
        self, tmp_path, command, couplings, pair, track, theta
    ):
        argv = ["tmsv", *command.split(), "--w", "4.5", "--z-max", "pi", "--dz", "0.01",
                "--outdir", str(tmp_path)]
        assert main(argv) == 0
        _, rows = read_csv(tmp_path / "tmsv.csv")
        got = np.array(rows, dtype=float)
        assert got.shape == (315, 5)
        spec = NetworkSpec(int(command.split()[1]), custom_profile(couplings))
        excess = tmsv_covariance(TmsvParams(4.5, theta, (0, 1)), 2).matrix - np.eye(4) / 2
        for row in got:
            u = propagator(spec, row[0]).matrix
            want = []
            for j, k in (pair, track):
                r = np.zeros((4, 4))  # realified block U[j|k, m|n]
                block = u[np.ix_((j, k), pair)]
                r[0::2, 0::2] = r[1::2, 1::2] = block.real
                r[0::2, 1::2] = -block.imag
                r[1::2, 0::2] = block.imag
                x = r @ excess @ r.T
                want += [(x[0, 0] + x[2, 2] - 2 * x[0, 2]) / 2,
                         (x[1, 1] + x[3, 3] + 2 * x[1, 3]) / 2]
            assert np.abs(row[1:] - want).max() <= 1e-15 * math.cosh(9.0)

    @pytest.mark.parametrize(
        "w,message",
        [
            ("7", r"is unphysical \(min symplectic eigenvalue 0\.5\d*, but physicality"
                  r" cannot be certified in double precision\)"),
            ("8", r"is unphysical \(min symplectic eigenvalue 0\.5\d*, but physicality"
                  r" cannot be certified in double precision\)"),
            ("20", r"is unphysical \(Matrix is not positive definite\)"),
            ("400", r"is not finite"),
            ("800", r"is not finite"),
        ],
    )
    def test_input_refusals_keep_their_messages(self, tmp_path, capsys, w, message):
        outdir = tmp_path / "out"
        assert main([*self.README, "--w", w, "--outdir", str(outdir)]) == 3
        captured = capsys.readouterr()
        assert re.fullmatch(f"pstnet: error: covariance matrix {message}\n", captured.err)
        assert captured.out == ""
        assert not outdir.exists()

    def test_squeezing_beyond_double_precision_is_refused_in_one_line(self, tmp_path):
        outdir = tmp_path / "out"
        result = run_cli([*self.README, "--w", "20", "--outdir", str(outdir)], tmp_path)
        assert result.returncode == 3
        assert result.stderr.startswith("pstnet: error: covariance matrix is unphysical")
        assert result.stderr.count("\n") == 1
        assert not outdir.exists()

    def test_chunks_write_the_bytes_of_one_grid(self, tmp_path, monkeypatch):
        argv = ["tmsv", "--n", "8", "--profile", "uniform:C=1,R=3", "--w", "0.881374",
                "--pair", "1,2", "--z-max", "pi", "--dz", "0.01"]
        calls = counting_amplitudes(monkeypatch)
        assert main([*argv, "--outdir", str(tmp_path / "one")]) == 0
        assert calls == [315]
        # 4 z-steps per chunk and a shorter last chunk (315 = 4 * 78 + 3)
        calls.clear()
        monkeypatch.setattr(pstnet.cli, "_BLOCK", 32)
        assert main([*argv, "--outdir", str(tmp_path / "many")]) == 0
        assert calls == [4] * 78 + [3]
        one = (tmp_path / "one" / "tmsv.csv").read_bytes()
        assert (tmp_path / "many" / "tmsv.csv").read_bytes() == one

    @pytest.mark.parametrize(
        "z_max,values",
        [("pi", [5 * 315]), ("30", [5 * 819] * 3 + [5 * 544])],
        ids=["readme", "four-chunks"],
    )
    def test_one_formatter_call_per_chunk(self, tmp_path, monkeypatch, z_max, values):
        # five float columns: a chunk of 4096 // 5 = 819 rows takes one call
        argv = ["tmsv", "--n", "8", "--profile", "uniform:C=1,R=3", "--w", "0.881374",
                "--pair", "1,2", "--z-max", z_max, "--dz", "0.01"]
        calls, chunks = [], []
        fields, text = pstnet.g17.g17_fields, pstnet.cli.csv_text

        def counted_fields(x):
            calls.append(len(x))
            return fields(x)

        def counted_text(*columns):
            chunks.append(len(columns[0]))
            return text(*columns)

        monkeypatch.setattr(pstnet.g17, "g17_fields", counted_fields)
        monkeypatch.setattr(pstnet.cli, "csv_text", counted_text)
        assert main([*argv, "--outdir", str(tmp_path)]) == 0
        assert calls == values
        assert len(chunks) == len(calls)

    def test_memory_does_not_grow_with_the_grid(self, tmp_path):
        # 10,001 and 100,001 z-steps: each block's rows are written as computed
        argv = ["tmsv", "--n", "8", "--profile", "uniform:C=1,R=3", "--w", "0.5",
                "--pair", "1,2", "--dz", "0.01", "--outdir", str(tmp_path)]
        short = peak_bytes([*argv, "--z-max", "100"])
        long = peak_bytes([*argv, "--z-max", "1000"])
        assert long - short < 2**20
        assert (tmp_path / "tmsv.csv").read_bytes().count(b"\n") == 1 + 100_001

    def test_wide_ring_stays_within_fixed_memory(self, tmp_path):
        # 2001 z-steps x 1024 modes: the whole amplitude grid would be 32.8 MB
        argv = ["tmsv", "--n", "1024", "--profile", "uniform:C=1,R=511", "--w", "0.5",
                "--pair", "1,2", "--z-max", "2", "--dz", "0.001", "--outdir", str(tmp_path)]
        assert peak_bytes(argv) < 8 * 2**20
        assert len((tmp_path / "tmsv.csv").read_bytes().splitlines()) == 2002

    def test_odd_n_without_track_is_refused_in_one_line(self, tmp_path):
        result = run_cli(
            ["tmsv", "--n", "7", "--profile", "uniform:C=1,R=3", "--w", "0.5", "--pair", "1,2",
             "--z-max", "1", "--dz", "0.1", "--outdir", "out"],
            tmp_path,
        )
        assert result.returncode == 3
        assert result.stderr == "pstnet: error: antipodal transfer needs an even number of modes\n"
        assert result.stdout == ""
        assert not (tmp_path / "out").exists()


class TestEvanescentCommand:
    def test_short_scan_summary(self, tmp_path):
        result = run_cli(
            [
                "evanescent",
                "--n",
                "12",
                "--mu",
                "0.524",
                "--r",
                "6",
                "--source",
                "1",
                "--z-max",
                "20",
            ],
            tmp_path,
        )
        assert result.returncode == 0
        summary = json.loads((tmp_path / "evanescent.json").read_text())
        assert summary["target"] == 7
        assert 0.0 < summary["max_transfer"] < 1.0
        header, _ = read_csv(tmp_path / "evanescent.csv")
        assert header == ["z", "probability"]

    # 81,500 grid points: two scan blocks
    MULTI_BLOCK = ["evanescent", "--n", "12", "--mu", "0.815", "--r", "6", "--source", "1",
                   "--z-max", "1000"]

    def test_json_only_runs_the_same_blocks_unformatted(self, tmp_path, monkeypatch):
        assert main([*self.MULTI_BLOCK, "--outdir", str(tmp_path / "both")]) == 0

        def refuse(x):
            raise AssertionError("--format json formatted CSV text")

        # each block's chunk generator is made, but never read
        monkeypatch.setattr(pstnet.g17, "g17_fields", refuse)
        argv = [*self.MULTI_BLOCK, "--format", "json", "--outdir", str(tmp_path / "json")]
        assert main(argv) == 0
        assert [p.name for p in (tmp_path / "json").iterdir()] == ["evanescent.json"]
        both = (tmp_path / "both" / "evanescent.json").read_bytes()
        assert (tmp_path / "json" / "evanescent.json").read_bytes() == both
        rows = (tmp_path / "both" / "evanescent.csv").read_bytes().count(b"\n") - 1
        assert rows == 81500

    def test_a_refused_scan_leaves_an_earlier_trace_alone(self, tmp_path, capsys):
        argv = [*self.MULTI_BLOCK[:-1], "20", "--outdir", str(tmp_path)]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert main([*argv, "--dz", "30"]) == 3
        assert "dz must satisfy 0 < dz <= z_max" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_a_trace_failing_after_its_first_block_leaves_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        csv_path = tmp_path / "a" / "new" / "evanescent.csv"
        sizes = []
        amplitudes = propagation.offset_amplitudes

        def fail_on_second_block(spec, zs, **kwargs):
            if len(zs) > 1:
                sizes.append(csv_path.stat().st_size if csv_path.exists() else 0)
                if len(sizes) == 2:
                    raise MemoryError("second block refused")
            return amplitudes(spec, zs, **kwargs)

        monkeypatch.setattr(propagation, "offset_amplitudes", fail_on_second_block)
        assert main([*self.MULTI_BLOCK, "--outdir", str(tmp_path / "a" / "new")]) == 3
        assert capsys.readouterr().err == "pstnet: error: second block refused\n"
        # the first block's 65,536 rows had reached the file
        assert sizes[0] < 100 < 2**20 < sizes[1]
        assert list(tmp_path.iterdir()) == []


class TestSynthCommand:
    def test_full_pipeline(self, tmp_path):
        result = run_cli(["synth", "--n", "8", "--m", "4", "--c", "1"], tmp_path)
        assert result.returncode == 0
        payload = json.loads((tmp_path / "synth.json").read_text())
        solution = payload["solution"]
        assert np.asarray(solution["couplings"]) == pytest.approx(
            [1.0, 1.0, 1.0, 0.0], abs=1e-9
        )
        assert payload["pst_report"]["is_pst"] is True
        assert solution["dispersive_ok"] is True
        assert type(payload["strength"]) is float

    def test_starved_problem_is_domain_error(self, tmp_path):
        result = run_cli(["synth", "--n", "8", "--m", "2", "--c", "1"], tmp_path)
        assert result.returncode == 3
        assert "residual" in result.stderr

    @pytest.mark.parametrize("n,m", [("1024", "512"), ("8", "6")])
    def test_large_target_is_held_to_a_relative_tolerance(self, tmp_path, n, m):
        result = run_cli(["synth", "--n", n, "--m", m, "--c", "1e8"], tmp_path)
        assert result.returncode == 0, result.stderr
        payload = json.loads((tmp_path / "synth.json").read_text())
        assert payload["solution"]["tolerance"] == 1.0
        assert payload["pst_report"]["is_pst"] is True

    def test_large_starved_target_is_domain_error(self, tmp_path):
        result = run_cli(["synth", "--n", "8", "--m", "2", "--c", "1e8"], tmp_path)
        assert result.returncode == 3
        assert result.stderr.startswith("pstnet: error: synthesis residual ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n,m", [(8, 4), (8, 6), (1024, 512)])
    def test_table_has_one_row_per_pair_and_rebuilds_each_weight(self, tmp_path, n, m):
        argv = ["synth", "--n", str(n), "--m", str(m), "--c", "1", "--outdir", str(tmp_path)]
        assert main(argv) == 0
        header, rows = read_csv(tmp_path / "synth.csv")
        assert header == ["k", "weight", "g", "detuning", "ratio"]
        k, weight, g, detuning, ratio = np.array(rows, dtype=float).T
        assert np.array_equal(k, np.arange(1, m + 1))
        np.testing.assert_allclose(2 * g**2 / detuning, weight, rtol=1e-15, atol=0)
        assert np.array_equal(ratio, np.abs(detuning) / g)
        solution = json.loads((tmp_path / "synth.json").read_text())["solution"]
        assert solution["min_dispersive_ratio"] == ratio.min()

    @pytest.mark.parametrize(
        "strength,message",
        [("1e308", "synthesis residual "), ("nan", "target strength must be finite")],
    )
    def test_non_finite_target_is_one_line_error(self, tmp_path, strength, message):
        result = run_cli(["synth", "--n", "8", "--m", "4", "--c", strength], tmp_path)
        assert result.returncode == 3
        assert result.stderr.startswith(f"pstnet: error: {message}")
        assert result.stderr.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestCliPlumbing:
    @pytest.mark.parametrize(
        "command", ["spectrum", "transport", "pst-check", "cat", "tmsv", "evanescent", "synth"]
    )
    def test_readme_names_only_flags_the_command_accepts(self, tmp_path, command):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        bullet = readme.split(f"\n- `{command}`:", 1)[1].split("\n- `", 1)[0]
        bullet = bullet.split("\n\n", 1)[0]  # the last bullet ends the list
        named = set(re.findall(r"--[a-z][a-z-]*", bullet))
        accepted = set(re.findall(r"--[a-z][a-z-]*", run_cli([command, "--help"], tmp_path).stdout))
        assert named and named <= accepted

    def test_usage_error_exit_code(self, tmp_path):
        result = run_cli(
            ["spectrum", "--n", "12", "--profile", "banana:x=1"], tmp_path
        )
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "profile", ["uniform:C=1,R=3,X=5", "evanescent:mu=0.5,R=3,c=2"]
    )
    def test_unknown_profile_parameter_is_usage_error(self, tmp_path, profile):
        result = run_cli(["spectrum", "--n", "8", "--profile", profile], tmp_path)
        assert result.returncode == 2
        assert "unknown parameters" in result.stderr
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "args,code",
        [
            (["cat", "--source", "1", "--alpha", "0.5", "--phi", "0", "--z-max", "1"], 3),
            (
                ["cat", "--source", "1", "--target", "3", "--alpha", "0.5",
                 "--phi", "0", "--z-max", "1"],
                0,
            ),
            (["tmsv", "--w", "0.5", "--pair", "1,2", "--z-max", "0.1", "--dz", "0.05"], 3),
            (
                ["tmsv", "--w", "0.5", "--pair", "1,2", "--track", "3,4",
                 "--z-max", "0.1", "--dz", "0.05"],
                0,
            ),
        ],
        ids=["cat-default", "cat-target", "tmsv-default", "tmsv-track"],
    )
    def test_odd_n_needs_an_explicit_partner(self, tmp_path, args, code):
        network = ["--n", "7", "--profile", "uniform:C=1,R=3"]
        result = run_cli([args[0], *network, *args[1:]], tmp_path)
        assert result.returncode == code
        if code:
            assert result.stderr.startswith(
                "pstnet: error: antipodal transfer needs an even number of modes"
            )

    def test_unusable_outdir_is_domain_error(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        result = run_cli(
            ["spectrum", "--n", "8", "--profile", "uniform:C=1,R=3", "--outdir", str(taken)],
            tmp_path,
        )
        assert result.returncode == 3
        assert result.stderr.startswith("pstnet: error:")

    @pytest.mark.parametrize(
        "args",
        [
            "cat --n 12 --profile uniform:C=1,R=5 --source 1 --alpha 0.5 --phi pi/2 --z-max 2pi",
            "synth --n 8 --m 4 --c 1",
        ],
        ids=["cat", "synth"],
    )
    def test_a_summary_that_cannot_be_written_leaves_no_csv(self, tmp_path, args):
        base = args.split()[0]
        (tmp_path / f"{base}.json").mkdir()
        result = run_cli([*args.split(), "--outdir", str(tmp_path)], tmp_path)
        assert result.returncode == 3
        assert result.stderr.startswith("pstnet: error:")
        assert result.stderr.count("\n") == 1
        assert not (tmp_path / f"{base}.csv").exists()

    def test_outdir_env_var(self, tmp_path):
        outdir = tmp_path / "results"
        result = run_cli(
            ["spectrum", "--n", "8", "--profile", "uniform:C=1,R=3"],
            tmp_path,
            env_extra={"PSTNET_OUTDIR": str(outdir)},
        )
        assert result.returncode == 0
        assert (outdir / "spectrum.csv").exists()

    def test_output_name_flag(self, tmp_path):
        run_cli(
            [
                "spectrum",
                "--n",
                "8",
                "--profile",
                "uniform:C=1,R=3",
                "--output",
                "run1",
            ],
            tmp_path,
        )
        assert (tmp_path / "run1.csv").exists()
        assert (tmp_path / "run1.json").exists()

    def test_config_file_defaults_and_flag_override(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "n = 12\nprofile = uniform:C=1,R=5\nsource = 1\ntol = 1e-9\n"
        )
        result = run_cli(["pst-check", "--config", str(config)], tmp_path)
        assert result.returncode == 0
        report = json.loads((tmp_path / "pst-check.json").read_text())
        assert report["target"] == 7
        # explicit flag wins over the config value
        result = run_cli(
            ["pst-check", "--config", str(config), "--n", "8", "--profile",
             "uniform:C=1,R=3"],
            tmp_path,
        )
        assert result.returncode == 0
        report = json.loads((tmp_path / "pst-check.json").read_text())
        assert report["target"] == 5

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("nn = 12\n")
        result = run_cli(["pst-check", "--config", str(config)], tmp_path)
        assert result.returncode == 2

    def test_bad_config_value_is_usage_error(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("n = x\nprofile = uniform:C=1,R=3\nsource = 1\n")
        result = run_cli(["pst-check", "--config", str(config)], tmp_path)
        assert result.returncode == 2
        assert "invalid int value: 'x'" in result.stderr

    def test_config_value_may_start_with_a_dash(self, tmp_path):
        network = ["--n", "8", "--profile", "uniform:C=1,R=3", "--outdir", str(tmp_path)]
        trace = ["--w", "0.5", "--pair", "1,2", "--z-max", "pi/2", "--dz", "pi/8"]
        config = tmp_path / "run.cfg"
        config.write_text("theta = -pi/2\n")
        runs = {"cfg": ["--config", str(config)], "flag": ["--theta=-pi/2"], "zero": []}
        for name, extra in runs.items():
            assert main(["tmsv", *extra, *network, *trace, "--output", name]) == 0
        cfg, flag, zero = ((tmp_path / f"{name}.csv").read_bytes() for name in runs)
        assert cfg == flag
        assert cfg != zero

    @pytest.mark.parametrize("value", ["-pi/2", "-3pi/4", "-1e-1", "-.5"])
    def test_negative_value_may_be_a_separate_token(self, tmp_path, value):
        network = ["--n", "8", "--profile", "uniform:C=1,R=3", "--outdir", str(tmp_path)]
        trace = ["--w", "0.5", "--pair", "1,2", "--z-max", "pi/2", "--dz", "pi/8"]
        runs = {"split": ["--theta", value], "joined": [f"--theta={value}"]}
        for name, extra in runs.items():
            assert main(["tmsv", *network, *extra, *trace, "--output", name]) == 0
        split, joined = ((tmp_path / f"{name}.csv").read_bytes() for name in runs)
        assert split == joined

    def test_negative_length_token_is_still_checked(self, tmp_path, capsys):
        argv = ["evanescent", "--n", "12", "--mu", "0.5", "--r", "6", "--source", "1",
                "--z-max", "-pi", "--outdir", str(tmp_path)]
        assert main(argv) == 3
        assert "z_max must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid,message",
        [
            (["--z-max", "inf", "--dz", "0.1"], "z_max must be finite"),
            (["--z-max", "nan", "--dz", "0.1"], "z_max must be finite"),
            (["--z-max", "pi", "--dz", "inf"], "dz must be finite"),
        ],
    )
    def test_non_finite_grid_is_domain_error(self, tmp_path, capsys, grid, message):
        argv = ["transport", "--n", "8", "--profile", "uniform:C=1,R=3", "--source", "1",
                *grid, "--outdir", str(tmp_path)]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"pstnet: error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    SPECTRUM = ["spectrum", "--n", "8", "--profile", "uniform:C=1,R=3"]
    # without --tolerance this synthesis is refused for its residual
    SYNTH = ["synth", "--n", "8", "--m", "2"]
    TOLERANCE = "tolerance must be finite and positive"

    @pytest.mark.parametrize(
        "argv,message",
        [([*SPECTRUM, "--tol", "inf"], TOLERANCE),
         ([*SPECTRUM, "--tol", "nan"], TOLERANCE),
         ([*SYNTH, "--c", "1", "--tolerance", "inf"], TOLERANCE),
         ([*SYNTH, "--c", "1", "--tolerance", "nan"], TOLERANCE),
         ([*SYNTH, "--c", "1e8", "--tolerance", "1e308"], "tolerance times max(1, |C|) overflows")],
        ids=["spectrum-inf", "spectrum-nan", "synth-inf", "synth-nan", "synth-overflow"],
    )
    def test_non_finite_tolerance_is_domain_error(self, tmp_path, capsys, argv, message):
        assert main([*argv, "--outdir", str(tmp_path)]) == 3
        assert capsys.readouterr() == ("", f"pstnet: error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv,needed",
        [
            # 1e15 + 1 grid points: rows of at least 7 and 11 bytes, PiB of
            # CSV, refused before anything is computed or written
            (["transport", "--n", "8", "--profile", "uniform:C=1,R=3", "--source", "1",
              "--z-max", "1e6", "--dz", "1e-9"], 7 * 8 * (10**15 + 1)),
            (["tmsv", "--n", "8", "--profile", "uniform:C=1,R=3", "--w", "0.5",
              "--pair", "1,2", "--z-max", "1e6", "--dz", "1e-9"], 11 * (10**15 + 1)),
            # a scan's grid starts at dz: 1e15 points of at least 5 bytes
            (["cat", "--n", "12", "--profile", "uniform:C=1,R=5", "--source", "1",
              "--alpha", "0.5", "--phi", "0", "--z-max", "1e6", "--dz", "1e-9"], 5 * 10**15),
            (["evanescent", "--n", "12", "--mu", "0.5", "--r", "6", "--source", "1",
              "--z-max", "1e6", "--dz", "1e-9"], 5 * 10**15),
        ],
        ids=["transport-PiB", "tmsv-PiB", "cat-PiB", "evanescent-PiB"],
    )
    def test_unallocatable_grid_is_domain_error(
        self, tmp_path, capsys, monkeypatch, argv, needed
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a refused trace computed amplitudes")

        monkeypatch.setattr(pstnet.cli, "offset_amplitudes", refuse)
        monkeypatch.setattr(pstnet.propagation, "offset_amplitudes", refuse)
        outdir = tmp_path / "new"
        assert main([*argv, "--outdir", str(outdir)]) == 3
        err = capsys.readouterr().err
        prefix = f"pstnet: error: {outdir / argv[0]}.csv needs at least {needed} bytes, "
        assert err.startswith(prefix) and err.endswith(" bytes free on its disk\n")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv,rows",
        [
            # no --dz: the default step 0.01 / C_max gives 628 points
            (["cat", "--n", "12", "--profile", "uniform:C=1,R=5", "--source", "1",
              "--alpha", "0.5", "--phi", "pi/2", "--z-max", "2pi"], 628),
            (["evanescent", "--n", "12", "--mu", "0.524", "--r", "6", "--source", "1",
              "--z-max", "10", "--dz", "0.01"], 1000),
        ],
        ids=["cat-default-dz", "evanescent"],
    )
    def test_a_scan_larger_than_the_free_disk_is_refused(
        self, tmp_path, monkeypatch, capsys, argv, rows
    ):
        # every row takes at least "z,v\r\n": 5 bytes
        needed = 5 * rows
        outdir = tmp_path / "new"
        csv_path = outdir / f"{argv[0]}.csv"

        def free_bytes(free):
            monkeypatch.setattr(
                pstnet.cli.shutil, "disk_usage", lambda path: SimpleNamespace(free=free)
            )

        free_bytes(needed - 1)
        assert main([*argv, "--outdir", str(outdir)]) == 3
        assert capsys.readouterr().err == (
            f"pstnet: error: {csv_path} needs at least {needed} bytes, "
            f"more than the {needed - 1} bytes free on its disk\n"
        )
        assert list(tmp_path.iterdir()) == []
        # the bound is a lower bound: a disk with exactly that much free runs
        free_bytes(needed)
        assert main([*argv, "--outdir", str(outdir)]) == 0
        assert csv_path.read_bytes().count(b"\n") == 1 + rows

    @pytest.mark.parametrize(
        "argv",
        [
            # 1e18 grid points: a scan streams its grid and would allocate
            # nothing, but near z = 1e12 float64 steps by 1.2e-4, not 1e-6
            ["evanescent", "--n", "12", "--mu", "0.5", "--r", "6", "--source", "1",
             "--z-max", "1e12", "--dz", "1e-6"],
            ["transport", "--n", "8", "--profile", "uniform:C=1,R=3", "--source", "1",
             "--z-max", "1e12", "--dz", "1e-6"],
        ],
        ids=["evanescent-EiB", "transport-EiB"],
    )
    def test_grid_finer_than_float_spacing_is_domain_error(self, tmp_path, capsys, argv):
        assert main([*argv, "--outdir", str(tmp_path / "new")]) == 3
        assert capsys.readouterr().err == (
            "pstnet: error: dz = 1e-06 is too small for z_max = 1e+12: the grid would have "
            "1e+18 points, more than 2^52, so neighbouring points would round to the same z\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            # no --dz: the default step 0.01 / C_max is 1e-310, a 1e310-point grid
            ["cat", "--n", "2", "--profile", "custom:1e308", "--source", "1", "--alpha", "0.5",
             "--phi", "0", "--z-max", "1"],
            ["transport", "--n", "4", "--profile", "uniform:C=1,R=1", "--source", "1",
             "--z-max", "1", "--dz", "1e-300"],
            ["tmsv", "--n", "4", "--profile", "uniform:C=1,R=1", "--w", "0.5", "--pair", "1,2",
             "--z-max", "1", "--dz", "1e-300"],
            ["evanescent", "--n", "12", "--mu", "0.5", "--r", "6", "--source", "1",
             "--z-max", "1", "--dz", "1e-300"],
        ],
        ids=["cat-default-dz", "transport", "tmsv", "evanescent"],
    )
    def test_grid_numpy_cannot_index_is_domain_error(self, tmp_path, capsys, argv):
        assert main([*argv, "--outdir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("pstnet: error: dz = 1e-")
        assert "is too small for z_max = 1: the grid would have" in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum"],
            ["pst-check", "--source", "1"],
            ["tmsv", "--w", "0.5", "--pair", "1,2", "--z-max", "1", "--dz", "0.5"],
            ["transport", "--source", "1", "--z-max", "1", "--dz", "0.5"],
            # no --dz: the default step 0.01 / C_max would size a 1e310-point grid
            ["cat", "--source", "1", "--alpha", "0.5", "--phi", "0", "--z-max", "1"],
        ],
        ids=["spectrum", "pst-check", "tmsv", "transport", "cat-default-dz"],
    )
    def test_overflowing_couplings_are_domain_error(self, tmp_path, argv):
        network = ["--n", "4", "--profile", "custom:1e308,1e308"]
        result = run_cli([argv[0], *network, *argv[1:]], tmp_path)
        assert result.returncode == 3
        assert result.stderr == "pstnet: error: spectrum is not finite: the couplings overflow\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            "transport --n 2 --profile custom:1e308 --source 1 --z-max 2 --dz 1",
            "cat --n 2 --profile custom:1e308 --source 1 --alpha 0.5 --phi 0 --z-max 2 --dz 1",
            "evanescent --n 12 --mu 0.5 --r 6 --source 1 --z-max 1e308 --dz 1e307",
            "tmsv --n 2 --profile custom:1e308 --pair 1,2 --w 0.5 --z-max 2 --dz 1",
        ],
        ids=["transport", "cat", "evanescent", "tmsv"],
    )
    def test_overflowing_phases_are_domain_error(self, tmp_path, argv):
        # a finite spectrum whose phase lambda z overflows at the grid's reach
        result = run_cli(argv.split(), tmp_path)
        assert result.returncode == 3
        assert result.stderr.startswith("pstnet: error: the phase lambda z overflows: ")
        assert result.stderr.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_failed_trace_removes_only_the_directories_it_created(self, tmp_path, capsys):
        (tmp_path / "kept").mkdir()
        argv = ["transport", "--n", "4", "--profile", "custom:1e308,1e308", "--source", "1",
                "--z-max", "1", "--dz", "0.1"]
        for outdir in ("a/new", "kept/new", "kept"):
            assert main([*argv, "--outdir", str(tmp_path / outdir)]) == 3
        assert [p.name for p in tmp_path.iterdir()] == ["kept"]
        assert list((tmp_path / "kept").iterdir()) == []
        assert capsys.readouterr().err.count("the couplings overflow\n") == 3

    @pytest.mark.parametrize(
        "spelling,before",
        [("--conf", False), ("--conf=", False), ("--c", False), ("--conf", True)],
        ids=["--conf", "--conf=", "--c", "--conf-before-subcommand"],
    )
    def test_config_must_be_spelled_out(self, tmp_path, spelling, before, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("tol = 0.5\n")
        argv = ["pst-check", "--n", "10", "--profile", "uniform:C=1,R=4", "--source", "1",
                "--outdir", str(tmp_path)]
        assert main([*argv, "--config", str(config)]) == 0
        report = json.loads((tmp_path / "pst-check.json").read_text())
        assert report["is_pst"] is True  # tol 0.5 from the file took effect
        (tmp_path / "pst-check.json").unlink()
        prefix = [spelling + str(config)] if spelling.endswith("=") else [spelling, str(config)]
        with pytest.raises(SystemExit) as exc:
            main([*prefix, *argv] if before else [*argv, *prefix])
        assert exc.value.code == 2
        assert "spell out --config in full" in capsys.readouterr().err
        assert not (tmp_path / "pst-check.json").exists()

    @pytest.mark.parametrize("form", ["separate", "joined"])
    def test_config_after_the_subcommand_is_applied_and_flags_win(self, tmp_path, form):
        config = tmp_path / "run.cfg"
        config.write_text("n = 12\nprofile = uniform:C=1,R=5\nsource = 3\ntol = 0.5\n")
        flag = ["--config", str(config)] if form == "separate" else [f"--config={config}"]
        args = pstnet.cli._parse(["pst-check", *flag, "--n", "8", "--profile", "uniform:C=1,R=3"])
        assert (args.command, args.n, args.source, args.tol) == ("pst-check", 8, 3, 0.5)
        assert args.profile == uniform_profile(1.0, 3)
        argv = ["pst-check", *flag, "--source", "2", "--outdir", str(tmp_path)]
        assert main(argv) == 0
        report = json.loads((tmp_path / "pst-check.json").read_text())
        assert (report["source"], report["target"]) == (2, 8)

    @pytest.mark.parametrize(
        "argv",
        [
            "spectrum --n 12 --profile uniform:C=1,R=5",
            "transport --n 8 --profile uniform:C=1,R=3 --source 1 --z-max pi --dz 0.005",
            "pst-check --n 10 --profile uniform:C=1,R=4 --source 1 --tol 1e-6 --output r --outdir o",
            "cat --n 12 --profile uniform:C=1,R=5 --source 1 --alpha 0.5 --phi pi/2 --z-max 2pi",
            "tmsv --n 8 --profile uniform:C=1,R=3 --w 0.5 --theta -pi/2 --pair 1,2 --z-max pi --dz 0.01",
            "tmsv --n 8 --profile uniform:C=1,R=3 --w 0.5 --theta=-3pi/4 --pair 1,2 --z-max pi --dz 0.01",
            "evanescent --n 12 --mu 0.524 --r 6 --source 1 --z-max 500 --format json",
            "synth --n 8 --m 4 --c 1 --delta-scale 100 --tolerance 1e-9",
        ],
    )
    def test_a_run_without_config_parses_as_through_the_pre_parser(self, argv):
        # main skips the --config pre-parser when no token can match it
        argv = argv.split()
        _, rest = pstnet.cli._config_parser().parse_known_args(
            pstnet.cli._join_negative_values(argv)
        )
        assert pstnet.cli._parse(argv) == pstnet.cli.build_parser().parse_args(rest)

    def test_deterministic_outputs(self, tmp_path):
        digests = []
        for name in ("a", "b"):
            workdir = tmp_path / name
            workdir.mkdir()
            run_cli(
                [
                    "spectrum",
                    "--n",
                    "12",
                    "--profile",
                    "evanescent:mu=0.524,R=6",
                ],
                workdir,
            )
            run_cli(
                [
                    "transport",
                    "--n",
                    "8",
                    "--profile",
                    "uniform:C=1,R=3",
                    "--source",
                    "1",
                    "--z-max",
                    "pi",
                    "--dz",
                    "0.01",
                ],
                workdir,
            )
            digest = hashlib.sha256()
            for fname in ("spectrum.csv", "spectrum.json", "transport.csv"):
                digest.update((workdir / fname).read_bytes())
            digests.append(digest.hexdigest())
        assert digests[0] == digests[1]
