"""Workload command lists and their correctness checks.

Each workload is a fixed list of ``pstnet`` CLI commands.  The seed only
picks mode labels (sources, the ``tmsv`` input pair); the work done is
identical for every seed.  Every command is checked without depending on
the seed: the ring is circulant, so its output for source label ``s``
equals the output for source label 1 with every label shifted by
``s - 1``.  The source-1 reference outputs come from a separate,
untimed pass.  A few commands also carry the paper's values.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("dense-output", "gaussian-steps", "wide-ring")
TOL = 1e-9
# Maximum antipodal transfer of the evanescent ring N=12, mu=0.815, R=6
# scanned to z=5000; it does not depend on the source.
EVANESCENT_0815_MAX = 0.89841045624502891


class CheckFailed(Exception):
    """A command's output disagrees with the reference or the paper."""


@dataclass(frozen=True)
class Command:
    """One CLI command; ``ref_argv`` is the same command with label 1."""

    name: str
    argv: tuple[str, ...]
    ref_argv: tuple[str, ...]
    n: int
    label: int
    check: Callable[["Command", Path, Path], None]

    def with_outdir(self, outdir: Path, reference: bool = False) -> list[str]:
        argv = self.ref_argv if reference else self.argv
        return [*argv, "--outdir", str(outdir), "--output", self.name]

    def files(self, outdir: Path) -> list[Path]:
        return sorted(outdir.glob(self.name + ".*"))


def run_pass(main, commands: list[Command], outdir: Path, reference: bool = False):
    """Run every command through ``main(argv)`` in this process.

    Returns the pass's wall time and, per command, whether it exited 0.
    A command that raises or exits non-zero fails; the pass goes on.
    """
    ok = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        for cmd in commands:
            try:
                ok.append(main(cmd.with_outdir(outdir, reference)) == 0)
            except (Exception, SystemExit):
                ok.append(False)
        elapsed = time.perf_counter() - start
    return elapsed, ok


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _close(a, b, what: str) -> None:
    """Equal within TOL; a scalar ``b`` is compared with every entry of ``a``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    same_shape = b.ndim == 0 or a.shape == b.shape
    _require(same_shape and bool(np.all(np.abs(a - b) <= TOL)), what)


def _same(got, want, what: str) -> None:
    """Structural JSON equality with numbers compared within TOL."""
    if isinstance(want, dict):
        _require(isinstance(got, dict) and got.keys() == want.keys(), f"{what}: keys differ")
        for key in want:
            _same(got[key], want[key], f"{what}.{key}")
    elif isinstance(want, list):
        _require(isinstance(got, list) and len(got) == len(want), f"{what}: length differs")
        for i, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{what}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        _require(isinstance(got, (int, float)) and not isinstance(got, bool), f"{what}: type")
        _require(got == want or abs(got - want) <= TOL, f"{what} differs")
    else:
        _require(got == want, f"{what} differs")


def _csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _shifted(label: int, shift: int, n: int) -> int:
    return (label - 1 + shift) % n + 1


def _same_json(cmd: Command, out: Path, ref: Path, labels=("source", "target")) -> dict:
    """Out JSON equals reference JSON with its label fields shifted."""
    got, want = _json(out), _json(ref)
    for key in labels:
        want[key] = _shifted(want[key], cmd.label - 1, cmd.n)
    _same(got, want, cmd.name)
    return got


def _same_csv(cmd: Command, out: Path, ref: Path):
    got_header, got = _csv(out)
    want_header, want = _csv(ref)
    _require(got_header == want_header, f"{cmd.name}: CSV header differs")
    _close(got, want, f"{cmd.name}: CSV values differ")
    return got


def check_spectrum(cmd: Command, out: Path, ref: Path) -> None:
    """Uniform profile with range N/2 - 1: bins {N-2: 1, 0: N/2, -2: N/2 - 1}."""
    _same_csv(cmd, out / f"{cmd.name}.csv", ref / f"{cmd.name}.csv")
    hist = _same_json(cmd, out / f"{cmd.name}.json", ref / f"{cmd.name}.json", ())
    bins = {round(b["eigenvalue"], 6): b["multiplicity"] for b in hist["bins"]}
    n = cmd.n
    _require(bins == {n - 2: 1, 0: n // 2, -2: n // 2 - 1}, f"{cmd.name}: bins {bins}")


def check_transport(cmd: Command, out: Path, ref: Path) -> None:
    """Rows for mode m equal the reference rows for mode m - (s - 1)."""
    header, got = _csv(out / f"{cmd.name}.csv")
    want_header, want = _csv(ref / f"{cmd.name}.csv")
    _require(header == want_header, f"{cmd.name}: CSV header differs")
    n = cmd.n
    _require(got.shape == want.shape and got.shape[0] % n == 0, f"{cmd.name}: row count")
    got = got.reshape(-1, n, 3)
    want = want.reshape(-1, n, 3)
    _require(bool(np.all(got[:, :, 1] == np.arange(1, n + 1))), f"{cmd.name}: mode column")
    _close(got[:, :, 0], want[:, :, 0], f"{cmd.name}: z grid differs")
    _close(got[:, :, 2], np.roll(want[:, :, 2], cmd.label - 1, axis=1),
           f"{cmd.name}: not translation invariant")
    _close(got[:, :, 2].sum(axis=1), 1.0, f"{cmd.name}: probabilities do not sum to 1")


def check_pst(cmd: Command, out: Path, ref: Path) -> None:
    """Paper: PST at z = pi/2 with amplitude -1 exactly for the N = 4n collapse."""
    report = _same_json(cmd, out / f"{cmd.name}.json", ref / f"{cmd.name}.json")
    expect = cmd.n % 4 == 0 and "uniform" in " ".join(cmd.argv)
    _require(report["is_pst"] is expect, f"{cmd.name}: is_pst should be {expect}")
    if expect:
        _close(report["z_pst"], math.pi / 2, f"{cmd.name}: z_pst is not pi/2")
        _close(report["amplitude_at_zpst"], [-1.0, 0.0], f"{cmd.name}: amplitude is not -1")


def check_synth(cmd: Command, out: Path, ref: Path) -> None:
    """Residual within tolerance and the synthesized profile transfers perfectly."""
    doc = _same_json(cmd, out / f"{cmd.name}.json", ref / f"{cmd.name}.json", ())
    solution = doc["solution"]
    _require(solution["residual"] <= solution["tolerance"], f"{cmd.name}: residual")
    _require(doc["pst_report"]["is_pst"] is True, f"{cmd.name}: synthesized is_pst")


def check_cat(cmd: Command, out: Path, ref: Path) -> None:
    values = _same_csv(cmd, out / f"{cmd.name}.csv", ref / f"{cmd.name}.csv")
    _require(bool(np.all((values[:, 1] >= 0) & (values[:, 1] <= 1 + TOL))),
             f"{cmd.name}: fidelity outside [0, 1]")
    _same_json(cmd, out / f"{cmd.name}.json", ref / f"{cmd.name}.json")


def check_tmsv(cmd: Command, out: Path, ref: Path) -> None:
    """Columns equal the reference; headers name the shifted pairs.

    At z = 0 the input pair holds the squeezing (exp(-2w) - 1) / 2 and
    the tracked pair is in vacuum.
    """
    header, got = _csv(out / f"{cmd.name}.csv")
    _, want = _csv(ref / f"{cmd.name}.csv")
    a, n = cmd.label, cmd.n
    pairs = [(a, _shifted(a, 1, n)), (_shifted(a, n // 2, n), _shifted(a, n // 2 + 1, n))]
    expected = ["z"] + [f"S_{q}_{x}{y}" for x, y in pairs for q in "QP"]
    _require(header == expected, f"{cmd.name}: header {header}")
    _close(got, want, f"{cmd.name}: not translation invariant")
    w = float(cmd.argv[cmd.argv.index("--w") + 1])
    squeezed = (math.exp(-2.0 * w) - 1.0) / 2.0
    _close(got[0, 1:], [squeezed, squeezed, 0.0, 0.0], f"{cmd.name}: z=0 squeezing")


def check_evanescent(cmd: Command, out: Path, ref: Path) -> None:
    _same_csv(cmd, out / f"{cmd.name}.csv", ref / f"{cmd.name}.csv")
    summary = _same_json(cmd, out / f"{cmd.name}.json", ref / f"{cmd.name}.json")
    if summary["mu"] == 0.815:
        _close(summary["max_transfer"], EVANESCENT_0815_MAX, f"{cmd.name}: max_transfer")


# (output name, subcommand template, N, check).  ``{s}`` is the seeded
# label; ``{s1}`` is the label after it (tmsv pairs).
_TABLE = {
    "dense-output": [
        ("evanescent-n12-z5000",
         "evanescent --n 12 --mu 0.815 --r 6 --source {s} --z-max 5000", 12, check_evanescent),
        ("transport-n64-fine",
         "transport --n 64 --profile uniform:C=1,R=31 --source {s} --z-max pi --dz 0.001",
         64, check_transport),
        ("transport-n8",
         "transport --n 8 --profile uniform:C=1,R=3 --source {s} --z-max pi --dz 0.005",
         8, check_transport),
        ("evanescent-n12-z500",
         "evanescent --n 12 --mu 0.524 --r 6 --source {s} --z-max 500", 12, check_evanescent),
    ],
    "gaussian-steps": [
        ("tmsv-n64",
         "tmsv --n 64 --profile uniform:C=1,R=31 --w 0.881374 --pair {s},{s1} --z-max pi --dz 0.01",
         64, check_tmsv),
        ("tmsv-n8",
         "tmsv --n 8 --profile uniform:C=1,R=3 --w 0.881374 --pair {s},{s1} --z-max pi --dz 0.01",
         8, check_tmsv),
    ],
    "wide-ring": [
        ("pst-check-n1024",
         "pst-check --n 1024 --profile uniform:C=1,R=511 --source {s}", 1024, check_pst),
        ("pst-check-n1022",
         "pst-check --n 1022 --profile evanescent:mu=0.815,R=511 --source {s}", 1022, check_pst),
        ("synth-n1024", "synth --n 1024 --m 512 --c 1", 1024, check_synth),
        ("cat-n256",
         "cat --n 256 --profile uniform:C=1,R=127 --source {s} --alpha 0.5 --phi pi/2"
         " --z-max 200 --dz 0.01", 256, check_cat),
        ("spectrum-n1024", "spectrum --n 1024 --profile uniform:C=1,R=511", 1024, check_spectrum),
        ("spectrum-n12", "spectrum --n 12 --profile uniform:C=1,R=5", 12, check_spectrum),
        ("pst-check-n10",
         "pst-check --n 10 --profile uniform:C=1,R=4 --source {s}", 10, check_pst),
        ("cat-n12",
         "cat --n 12 --profile uniform:C=1,R=5 --source {s} --alpha 0.5 --phi pi/2 --z-max 2pi",
         12, check_cat),
        ("synth-n8", "synth --n 8 --m 4 --c 1", 8, check_synth),
    ],
}


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's command list with labels drawn from ``seed``."""
    rng = random.Random(seed)
    result = []
    for name, template, n, check in _TABLE[workload]:
        label = rng.randint(1, n) if "{s}" in template else 1
        argv = template.format(s=label, s1=_shifted(label, 1, n)).split()
        ref = template.format(s=1, s1=2).split()
        result.append(Command(name, tuple(argv), tuple(ref), n, label, check))
    return result
