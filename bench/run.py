"""Benchmark of the pstnet command line, driven in process.

Usage (from the repository root):

    python3 bench/run.py --workload dense-output --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one client in one process.  Each pass runs
the workload's commands through ``pstnet.cli.main(argv)``, one after the
other, writing into a scratch directory under the repository root that
is removed at exit.  A first, untimed pass with source label 1 warms the
process and provides the reference outputs for the correctness checks.

``--trace 0`` prints the end-to-end metrics:

* ``pass_s``: median wall time of one pass, warm process, tracing off;
* ``peak_rss_mb``: peak resident memory (VmHWM) of a fresh process that
  imports pstnet and runs one pass;
* ``setup_s``: median wall time of a fresh interpreter that runs
  ``import pstnet.cli`` and exits, a cost paid on every CLI run; one
  sample follows each pass, and at least 11 are taken;
* ``success_rate``: commands that passed over commands attempted, that
  is ``1 - error_rate``.  A command fails when it exits non-zero, raises
  or fails its correctness check.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of ``spans.py``, plus ``trace.overhead_s``, the paired
difference between traced and untraced passes.

BLAS and OpenMP are pinned to one thread for this process and its
children, so that runs on a small shared machine are repeatable.  Every
result is preceded by a provenance line.  The last line of standard
output is the result object.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))  # must precede the numpy import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, commands, run_pass  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_PASSES = 3
SETUP_SAMPLES = 11

# metric names and units, as the result line must report them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def load_cli():
    if not (SRC / "pstnet" / "cli.py").is_file():
        sys.exit(f"bench: no pstnet sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import pstnet.cli

    if Path(pstnet.cli.__file__).resolve().parent != SRC / "pstnet":
        sys.exit(f"bench: imported pstnet from {pstnet.cli.__file__}, not {SRC}")
    return pstnet.cli


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_sample() -> float:
    """Wall time of a fresh interpreter that imports pstnet.cli and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import pstnet.cli"], env=child_env(), check=True)
    return time.perf_counter() - start


def peak_rss_mb(workload: str, seed: int, outdir: Path) -> float:
    outdir.mkdir()
    argv = [sys.executable, str(HERE / "rss_probe.py"), str(SRC), workload, str(seed), str(outdir)]
    done = subprocess.run(argv, env=child_env(), check=True, capture_output=True, text=True)
    return int(done.stdout.split()[-1]) / 1024.0


class OutputCheck:
    """Checks a pass's outputs; byte-identical reruns reuse the verdict."""

    def __init__(self, ref_dir: Path):
        self.ref_dir = ref_dir
        self.verdicts: dict[str, tuple[str, bool]] = {}

    def check_pass(self, cmds, exited_ok, outdir: Path) -> tuple[int, int, int]:
        """Failed commands, bytes written and CSV rows written by one pass."""
        failed = nbytes = nrows = 0
        for cmd, ok in zip(cmds, exited_ok):
            good, cmd_bytes, cmd_rows = self.check_command(cmd, outdir)
            failed += not (ok and good)
            nbytes += cmd_bytes
            nrows += cmd_rows
        return failed, nbytes, nrows

    def check_command(self, cmd, outdir: Path) -> tuple[bool, int, int]:
        digest = hashlib.sha256()
        nbytes = nrows = 0
        for path in cmd.files(outdir):
            data = path.read_bytes()
            digest.update(path.name.encode() + b"\0" + data)
            nbytes += len(data)
            if path.suffix == ".csv":
                nrows += data.count(b"\n") - 1
        key = digest.hexdigest()
        known = self.verdicts.get(cmd.name)
        if known and known[0] == key:
            return known[1], nbytes, nrows
        try:
            cmd.check(cmd, outdir, self.ref_dir)
            ok = True
        except Exception as exc:  # any defect in the output fails the command
            print(f"bench: {cmd.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        self.verdicts[cmd.name] = (key, ok)
        return ok, nbytes, nrows


def provenance(workload: str, seed: int, cmds) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_text = "unknown"
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True).stdout.strip() or None
        except OSError:
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "argv": [list(cmd.argv) for cmd in cmds],
        "reference_argv": [list(cmd.ref_argv) for cmd in cmds],
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = load_cli()
    cmds = commands(workload, seed)
    print(json.dumps({"provenance": provenance(workload, seed, cmds)}))
    scratch = Path(tempfile.mkdtemp(prefix=".bench-out-", dir=ROOT))
    try:
        metrics = {}
        setup = []
        if not trace:
            setup_sample()  # warm the file cache and the bytecode
            metrics["peak_rss_mb"] = peak_rss_mb(workload, seed, scratch / "rss")
        ref_dir = scratch / "ref"
        ref_dir.mkdir()
        run_pass(cli.main, cmds, ref_dir, reference=True)
        check = OutputCheck(ref_dir)
        tracer = Tracer()
        plain, traced, layers, coverage = [], [], [], []
        attempted = failed = 0
        outdir = scratch / "out"
        deadline = time.perf_counter() + seconds
        while len(plain) < MIN_PASSES or time.perf_counter() < deadline:
            # alternate which of a traced pair runs first, so order effects cancel
            modes = ((False, True), (True, False))[len(plain) % 2] if trace else (False,)
            for traced_pass in modes:
                shutil.rmtree(outdir, ignore_errors=True)
                outdir.mkdir()
                if traced_pass:
                    tracer.install()
                try:
                    elapsed, exited_ok = run_pass(cli.main, cmds, outdir)
                finally:
                    tracer.uninstall()
                pass_failed, nbytes, nrows = check.check_pass(cmds, exited_ok, outdir)
                attempted += len(cmds)
                failed += pass_failed
                if not traced_pass:
                    plain.append(elapsed)
                    if not trace:
                        # spread over the run, so load drift hits it as it hits pass_s
                        setup.append(setup_sample())
                    continue
                spans = tracer.reset()
                per_layer = layer_metrics(spans)
                per_layer["cli.bytes_written"] = nbytes
                per_layer["cli.rows_written"] = nrows
                layers.append(per_layer)
                traced.append(elapsed)
                roots = sum(s.end - s.start for s in spans if s.parent < 0)
                coverage.append(roots / elapsed)
        if trace:
            metrics.update({key: statistics.median(p[key] for p in layers) for key in layers[0]})
            metrics["trace.pass_s"] = statistics.median(traced)
            metrics["trace.overhead_s"] = statistics.median(
                t - p for t, p in zip(traced, plain))
            metrics["trace.span_coverage"] = statistics.median(coverage)
            units = PER_LAYER_UNITS
        else:
            while len(setup) < SETUP_SAMPLES:
                setup.append(setup_sample())
            metrics["setup_s"] = statistics.median(setup)
            metrics["pass_s"] = statistics.median(plain)
            metrics["success_rate"] = 1.0 - failed / attempted
            units = END_TO_END_UNITS
        passes = len(plain) + len(traced)
        print(f"{workload}: seed {seed}, {passes} passes, {attempted} commands, "
              f"{failed} failed, error_rate {failed / attempted:.6g}")
        print("  untraced passes (s): " + " ".join(f"{t:.3f}" for t in plain))
        for name, unit in units.items():
            print(f"  {name:30s} {metrics[name]:>16.6g} {unit}")
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure_all(seed: int, seconds: float, trace: bool) -> dict:
    """Run each workload in its own process and merge their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(argv, check=True, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[1:-1]))  # the workload's summary table
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
        if not trace:
            error_rate = result["failed"] / result["attempted"]
            merged["metrics"][f"{workload}.error_rate"] = {"value": error_rate, "unit": "ratio"}
    return merged


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        result = measure_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
