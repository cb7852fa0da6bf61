"""Tests of the benchmark's spans and checks.  Run: python3 -m pytest bench"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pstnet  # noqa: E402
import pstnet.cli  # noqa: E402
from spans import LAYERS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, CheckFailed, commands, run_pass  # noqa: E402


def traced_calls(argv, outdir):
    tracer = Tracer()
    tracer.install()
    try:
        assert pstnet.cli.main([*argv, "--outdir", str(outdir)]) == 0
    finally:
        tracer.uninstall()
    spans = tracer.reset()
    counts = {}
    for s in spans:
        counts[s.name] = counts.get(s.name, 0) + 1
    return spans, counts


def test_pst_check_1024_call_counts(tmp_path):
    # 1 candidate amplitude, 1 scan grid, 2 + 40 golden-section points
    _, counts = traced_calls(
        "pst-check --n 1024 --profile uniform:C=1,R=511 --source 1".split(), tmp_path)
    assert counts["dispersion"] == 44
    assert counts["offset_amplitudes"] == 44
    assert counts["check_pst"] == counts["transfer_scan"] == counts["main"] == 1


def test_calls_through_imported_names_are_spanned(tmp_path):
    # synthesis calls check_pst by its own binding, fock offset_amplitudes
    _, counts = traced_calls("synth --n 8 --m 4 --c 1".split(), tmp_path)
    assert counts["verify_synthesis"] == counts["check_pst"] == 1
    _, counts = traced_calls(
        "cat --n 12 --profile uniform:C=1,R=5 --source 1 --alpha 0.5 --phi pi/2"
        " --z-max 2pi".split(), tmp_path)
    assert counts["cat_fidelity_scan"] == 1
    assert counts["offset_amplitudes"] == 43  # 1 grid + 42 golden-section points


def test_install_rebinds_every_site_and_uninstall_restores():
    modules = [m for name, m in sys.modules.items() if name.startswith("pstnet")]
    originals = {
        name: getattr(sys.modules[f"pstnet.{layer}"], name)
        for layer, names in LAYERS.items() for name in names
    }

    def sites():
        return [(m.__name__, attr) for m in modules for attr, v in vars(m).items()
                if any(v is f for f in originals.values())]

    before = sites()
    assert ("pstnet.cli", "check_pst") in before
    assert ("pstnet.synthesis", "check_pst") in before
    assert ("pstnet.fock", "offset_amplitudes") in before
    tracer = Tracer()
    tracer.install()
    try:
        assert sites() == []
        assert pstnet.cli.check_pst.__wrapped__ is originals["check_pst"]
    finally:
        tracer.uninstall()
    assert sites() == before


def test_self_times_partition_the_pass(tmp_path):
    spans, _ = traced_calls("synth --n 8 --m 4 --c 1".split(), tmp_path)
    metrics = layer_metrics(spans)
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    roots = sum(s.end - s.start for s in spans if s.parent < 0)
    assert total == pytest.approx(roots, abs=1e-9)
    assert metrics["synthesis.calls"] == 3
    assert metrics["propagation.single_z_calls"] == 43


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_only_changes_labels(workload):
    a, b = commands(workload, 1), commands(workload, 2)
    assert [c.ref_argv for c in a] == [c.ref_argv for c in b]
    for cmd in a + b:
        differ = [i for i, (x, y) in enumerate(zip(cmd.argv, cmd.ref_argv)) if x != y]
        assert all(cmd.ref_argv[i - 1] in ("--source", "--pair") for i in differ)
    assert commands(workload, 7) == commands(workload, 7)


def test_checks_accept_shifted_output_and_reject_a_corrupted_one(tmp_path):
    small = [c for c in commands("dense-output", 3) if c.name == "transport-n8"]
    (cmd,) = small
    assert cmd.label != 1
    ref, out = tmp_path / "ref", tmp_path / "out"
    run_pass(pstnet.cli.main, small, ref, reference=True)
    _, ok = run_pass(pstnet.cli.main, small, out)
    assert ok == [True]
    cmd.check(cmd, out, ref)
    csv = out / f"{cmd.name}.csv"
    lines = csv.read_text().splitlines(keepends=True)
    z, mode, _ = lines[5].split(",")
    lines[5] = f"{z},{mode},0.5\r\n"
    csv.write_text("".join(lines))
    with pytest.raises(CheckFailed):
        cmd.check(cmd, out, ref)
