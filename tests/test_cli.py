import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pstnet.cli
from pstnet.cli import _CHUNK_ROWS, _csv_chunks, _emit, main, parse_length


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
        assert _emit(args, header, chunks, None) == 0
        rows = zip(labels.tolist(), x.tolist(), y.tolist())
        assert (tmp_path / "t.csv").read_bytes() == reference_csv(header, rows)

    @given(
        st.lists(st.floats(), max_size=40),
        st.integers(min_value=1, max_value=7),
    )
    def test_any_float_any_chunk_size(self, values, size):
        values = np.array(values, dtype=float)
        labels = np.arange(len(values))
        text = "".join(_csv_chunks(values, labels, values[::-1], size=size))
        rows = zip(values.tolist(), labels.tolist(), values[::-1].tolist())
        assert ("z,mode,p\r\n" + text).encode() == reference_csv(("z", "mode", "p"), rows)


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

    def test_chunks_write_the_bytes_of_one_grid(self, tmp_path, monkeypatch):
        argv = ["tmsv", "--n", "8", "--profile", "uniform:C=1,R=3", "--w", "0.881374",
                "--pair", "1,2", "--z-max", "pi", "--dz", "0.01"]
        assert main([*argv, "--outdir", str(tmp_path / "one")]) == 0
        # 4 z-steps per chunk and a shorter last chunk (315 = 4 * 78 + 3)
        monkeypatch.setattr(pstnet.cli, "_TMSV_ENTRIES", 32)
        assert main([*argv, "--outdir", str(tmp_path / "many")]) == 0
        one = (tmp_path / "one" / "tmsv.csv").read_bytes()
        assert (tmp_path / "many" / "tmsv.csv").read_bytes() == one

    def test_wide_ring_stays_within_fixed_memory(self, tmp_path):
        # 2001 z-steps x 1024 modes: the whole amplitude grid would be 32.8 MB
        argv = ["tmsv", "--n", "1024", "--profile", "uniform:C=1,R=511", "--w", "0.5",
                "--pair", "1,2", "--z-max", "2", "--dz", "0.001", "--outdir", str(tmp_path)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert len((tmp_path / "tmsv.csv").read_bytes().splitlines()) == 2002


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


class TestCliPlumbing:
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

    @pytest.mark.parametrize(
        "argv",
        [
            # 1e15 and 1e18 grid points: PiB and EiB, refused before allocating.
            ["transport", "--n", "8", "--profile", "uniform:C=1,R=3", "--source", "1",
             "--z-max", "1e6", "--dz", "1e-9"],
            ["evanescent", "--n", "12", "--mu", "0.5", "--r", "6", "--source", "1",
             "--z-max", "1e12", "--dz", "1e-6"],
        ],
        ids=["transport-PiB", "evanescent-EiB"],
    )
    def test_unallocatable_grid_is_domain_error(self, tmp_path, capsys, argv):
        assert main([*argv, "--outdir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("pstnet: error: Unable to allocate") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum"],
            ["pst-check", "--source", "1"],
            ["tmsv", "--w", "0.5", "--pair", "1,2", "--z-max", "1", "--dz", "0.5"],
            ["transport", "--source", "1", "--z-max", "1", "--dz", "0.5"],
        ],
        ids=["spectrum", "pst-check", "tmsv", "transport"],
    )
    def test_overflowing_couplings_are_domain_error(self, tmp_path, argv):
        network = ["--n", "4", "--profile", "custom:1e308,1e308"]
        result = run_cli([argv[0], *network, *argv[1:]], tmp_path)
        assert result.returncode == 3
        assert result.stderr == "pstnet: error: spectrum is not finite: the couplings overflow\n"
        assert list(tmp_path.iterdir()) == []

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
