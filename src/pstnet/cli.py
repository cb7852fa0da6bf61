"""Command line front end.

Subcommands: spectrum, transport, pst-check, cat, tmsv, evanescent,
synth.  Every run is fully determined by its flags, so identical runs
produce identical bytes.  Every CSV field is ``"%.17g" % x`` (17
significant digits; ``%d`` for the integer columns), formatted by
``g17`` one chunk of rows at a time and streamed to the file; every
trace (``transport``, ``tmsv``, ``cat``, ``evanescent``) writes each
block of its grid before it computes the next.  ``transport`` formats
its mode labels once and slices a wide ring's modes.  ``cat`` and
``evanescent`` run one ``_scan`` of their merit, whose summary is their
parameters, the labels, the maximum and where it lies, and the grid
with the step used.  ``synth`` writes one CSV row per auxiliary pair and
a summary of scalars and the synthesized couplings.  Every JSON summary
is ``json.dumps(summary, indent=2, default=_jsonable)``: floats are the
shortest repr that reads back to the same value, a dataclass in a
summary is the mapping of its fields and a complex number is
``[re, im]``.  An optional ``--config`` file (the flag spelled out in
full) of ``key = value`` lines becomes ``--key=value`` flags placed
right after the subcommand: keys are flag names (``z_max`` or
``z-max``), argparse parses them exactly like flags, and explicit flags
win.  A bad grid, an unwritable output, a trace larger than the free
disk space or an allocation numpy refuses ends with exit 3 and a
one-line message.

Mode labels on the command line are 1-based; the library uses 0-based
indices internally.  Distance and angle flags accept symbolic multiples
of pi such as ``pi/2`` or ``3pi/2``, negative ones too, as a separate
token (``--theta -pi/2``) or joined (``--theta=-pi/2``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import shutil
import sys
from pathlib import Path

import numpy as np

from .fock import cat_fidelity_scan
from .g17 import csv_lines, csv_text, g17_fields
from .gaussian import TmsvParams, pair_squeezing, tmsv_covariance
from .lattice import (
    NetworkSpec,
    custom_profile,
    evanescent_profile,
    uniform_profile,
)
from .propagation import (
    _BLOCK,
    antipode,
    check_pst,
    default_step,
    grid_points,
    offset_amplitudes,
    transfer_scan,
    z_blocks,
)
from .spectral import degeneracy_histogram, dispersion
from .synthesis import (
    SynthesisProblem,
    physical_parameters,
    solve_weights,
    verify_synthesis,
)

OUTDIR_ENV = "PSTNET_OUTDIR"

_PI_PATTERN = re.compile(r"^([+-]?[\d.]*)\s*pi\s*(?:/\s*([\d.]+))?$", re.IGNORECASE)


def parse_length(text: str) -> float:
    """Parse a float, allowing symbolic pi multiples like '3pi/2'."""
    s = str(text).strip()
    m = _PI_PATTERN.match(s)
    try:
        if m:
            coef = m.group(1)
            num = float(coef + "1") if coef in ("", "+", "-") else float(coef)
            div = float(m.group(2)) if m.group(2) else 1.0
            return num * math.pi / div
        return float(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse number {text!r}") from None


def parse_profile(text: str):
    """Parse 'uniform:C=1,R=3', 'evanescent:mu=0.5,R=6' or 'custom:0.5,0.25'."""
    kind, sep, rest = str(text).partition(":")
    kind = kind.strip().lower()
    if not sep or not rest.strip():
        raise argparse.ArgumentTypeError(
            f"profile {text!r} must look like kind:parameters"
        )
    try:
        if kind == "custom":
            return custom_profile([float(v) for v in rest.split(",")])
        params = {}
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise ValueError(f"expected key=value, got {item!r}")
            params[key.strip().lower()] = value.strip()
        if kind == "uniform":
            profile = uniform_profile(float(params.pop("c")), int(params.pop("r")))
        elif kind == "evanescent":
            profile = evanescent_profile(float(params.pop("mu")), int(params.pop("r")))
        else:
            raise argparse.ArgumentTypeError(f"unknown profile kind {kind!r}")
        if params:
            raise ValueError(f"unknown parameters {', '.join(sorted(params))}")
        return profile
    except (KeyError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"bad profile {text!r}: {exc}") from None


def parse_pair(text: str) -> tuple[int, int]:
    parts = str(text).split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"pair {text!r} must be two labels 'a,b'")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"pair {text!r} must be integers") from None


# Fields one kernel pass formats: _csv_chunks takes _CHUNK_ROWS // k rows
# of k columns at a time, transport _CHUNK_ROWS // (N + 1) z-steps of z and
# N probabilities (one z-step of a wider ring, in slices of _CHUNK_ROWS modes).
_CHUNK_ROWS = 4096


def _csv_chunks(*columns):
    """Yield the CSV text of equal-length ``columns`` one chunk of rows at a time.

    A chunk holds ``max(1, _CHUNK_ROWS // len(columns))`` rows and is
    formatted by one ``csv_text`` call.  Only one chunk's text is held
    at a time, and none is formatted until the generator is read.
    """
    step = max(1, _CHUNK_ROWS // len(columns))
    for start in range(0, len(columns[0]), step):
        yield csv_text(*(c[start : start + step] for c in columns))


def _jsonable(value):
    """``json.dumps`` default: a dataclass as a mapping of its fields, complex as ``[re, im]``.

    The mapping is shallow; ``json.dumps`` calls this again for each
    nested dataclass or complex value it meets.  Any other value raises
    the ``TypeError`` that ``json.dumps`` raises without a default.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(args, header, run, note: str = "", rows: int = 0) -> int:
    """Run a command and write the CSV trace and JSON summary that ``--format`` selects.

    ``run(write)`` computes the command's results and returns its
    summary, None for a command without one.  It hands ``write`` each
    block's CSV text chunks as it computes them, so a trace writes each
    block's rows before it computes the next block.  When no CSV is
    written (``--format json``, or a command without a trace) ``write``
    drops the chunks unread, so a generator of them formats nothing.
    The CSV is opened at the first ``write``, so a run refused before it
    has rows leaves an earlier file of the same name alone.  The summary
    is ``json.dumps(summary, indent=2, default=_jsonable)`` plus a line
    break.  A run that fails part way, its summary's write included,
    leaves no CSV or JSON file that it opened behind, nor the directories
    it created.  Every trace passes its row count: a trace of ``rows``
    rows needs at least ``rows * (2 len(header) + 1)`` bytes (every field
    and separator takes one), so one that needs more than the output's
    free disk space is refused before ``run`` starts.
    """
    fmt = getattr(args, "format", "both")
    outdir = Path(args.outdir or os.environ.get(OUTDIR_ENV, "."))
    base = args.output or args.command
    # the directories this run creates, deepest first
    created = [d for d in (outdir, *outdir.parents) if not d.exists()]
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / f"{base}.csv"
    fh = None
    opened = []  # the files this run opened, in order
    write_csv = header is not None and fmt != "json"

    def write(chunks):
        nonlocal fh
        if fh is None:
            fh = open(csv_path, "w", newline="")
            opened.append(csv_path)
            fh.write(",".join(header) + "\r\n")
        fh.writelines(chunks)

    try:
        if write_csv and rows:
            needed, free = rows * (2 * len(header) + 1), shutil.disk_usage(outdir).free
            if needed > free:
                raise ValueError(
                    f"{csv_path} needs at least {needed} bytes, more than the "
                    f"{free} bytes free on its disk"
                )
        summary = run(write if write_csv else lambda chunks: None)
        if fh is not None:
            fh.close()
        if summary is not None and fmt in ("json", "both"):
            text = json.dumps(summary, indent=2, default=_jsonable) + "\n"
            json_path = outdir / f"{base}.json"
            with open(json_path, "w") as out:
                opened.append(json_path)
                out.write(text)
    except BaseException:
        if fh is not None:
            fh.close()
        for path in opened:
            path.unlink()
        for d in created:
            d.rmdir()
        raise
    print("wrote " + " ".join(str(p) for p in opened) + note)
    return 0


def _report_labels(report):
    """Shift a transfer report to the 1-based labels used on the CLI."""
    return dataclasses.replace(
        report, source=report.source + 1, target=report.target + 1
    )


def _label_to_index(label: int, n: int, name: str) -> int:
    if not 1 <= label <= n:
        raise ValueError(f"{name} label {label} out of range 1..{n}")
    return label - 1


def _cmd_spectrum(args) -> int:
    spectrum = dispersion(NetworkSpec(args.n, args.profile))
    lam = spectrum.eigenvalues
    hist = degeneracy_histogram(spectrum, args.tol)

    def run(write):
        write(_csv_chunks(np.arange(len(lam)), lam))
        return hist

    return _emit(args, ("p", "lambda_p"), run)


def _cmd_transport(args) -> int:
    spec = NetworkSpec(args.n, args.profile)
    source = _label_to_index(args.source, args.n, "source")
    rows = grid_points(args.z_max, args.dz, 0.0) * args.n
    modes = (np.arange(args.n) - source) % args.n
    labels = np.arange(1, args.n + 1)
    slices = [slice(m, m + _CHUNK_ROWS) for m in range(0, args.n, _CHUNK_ROWS)]

    def run(write):
        names = [g17_fields(labels[s]) for s in slices]  # once per command, not per block
        # a block's z and probabilities fill one kernel pass while N < _CHUNK_ROWS;
        # a wider ring puts one z in a block, and slices keep (z, mode) order
        for z in z_blocks(args.z_max, args.dz, 0.0, max(1, _CHUNK_ROWS // (args.n + 1))):
            probs = np.abs(offset_amplitudes(spec, z)[:, modes]) ** 2
            fields = g17_fields(np.concatenate((z, probs.ravel())))
            zs, probs = fields[: z.size, None], fields[z.size :].reshape(*probs.shape, -1)
            write(csv_lines(zs, f, probs[:, s]) for s, f in zip(slices, names))

    return _emit(args, ("z", "mode", "probability"), run, rows=rows)


def _cmd_pst_check(args) -> int:
    spec = NetworkSpec(args.n, args.profile)
    source = _label_to_index(args.source, args.n, "source")
    report = check_pst(spec, source, tol=args.tol)
    note = f" (is_pst={str(report.is_pst).lower()})"
    return _emit(args, None, lambda write: _report_labels(report), note)


def _scan(args, spec, source, target, column, key, scan, **head) -> int:
    """Write a scan's ``(z, column)`` trace and its summary: ``head``, the
    labels, the maximum as ``key``, and the grid with the step the scan used.

    ``scan`` is ``transfer_scan`` or ``cat_fidelity_scan`` with its cat bound.
    """
    dz = default_step(spec, args.z_max) if args.dz is None else args.dz

    def run(write):
        result = scan(
            spec, source, target, z_max=args.z_max, dz=dz,
            on_block=lambda zs, v: write(_csv_chunks(zs, v)),
        )
        return {
            **head,
            "source": source + 1,
            "target": target + 1,
            key: result.max_value,
            "z_at_max": result.z_at_max,
            "z_max": args.z_max,
            "dz": result.dz,
        }

    return _emit(args, ("z", column), run, rows=grid_points(args.z_max, dz, dz))


def _cmd_cat(args) -> int:
    spec = NetworkSpec(args.n, args.profile)
    source = _label_to_index(args.source, args.n, "source")
    if args.target is None:
        target = antipode(args.n, source)
    else:
        target = _label_to_index(args.target, args.n, "target")
    scan = functools.partial(cat_fidelity_scan, alpha=args.alpha, phi=args.phi)
    return _scan(
        args, spec, source, target, "fidelity", "max_fidelity", scan,
        alpha=args.alpha, phi=args.phi,
    )


def _cmd_tmsv(args) -> int:
    spec = NetworkSpec(args.n, args.profile)
    pair = tuple(_label_to_index(i, args.n, "pair") for i in args.pair)
    if args.track is None:
        track = tuple(antipode(args.n, i) for i in pair)
    else:
        track = tuple(_label_to_index(i, args.n, "track") for i in args.track)
    params = TmsvParams(args.w, args.theta, pair)
    rows = grid_points(args.z_max, args.dz, 0.0)
    # the input pair's covariance, checked once for every block
    v = tmsv_covariance(dataclasses.replace(params, mode_pair=(0, 1)), 2)
    pairs = (pair, track)
    header = ("z", *(f"S_{q}_{j + 1}{k + 1}" for j, k in pairs for q in "QP"))

    def run(write):
        for z in z_blocks(args.z_max, args.dz, 0.0, max(1, _BLOCK // args.n)):
            squeezing = pair_squeezing(offset_amplitudes(spec, z), v, pair, pairs)
            write(_csv_chunks(z, *squeezing))

    return _emit(args, header, run, rows=rows)


def _cmd_evanescent(args) -> int:
    spec = NetworkSpec(args.n, evanescent_profile(args.mu, args.r))
    source = _label_to_index(args.source, args.n, "source")
    target = antipode(args.n, source)
    return _scan(
        args, spec, source, target, "probability", "max_transfer", transfer_scan,
        n_modes=args.n, mu=args.mu, r=args.r,
    )


def _cmd_synth(args) -> int:
    problem = SynthesisProblem(args.n, args.m, args.c, args.tolerance)
    solution = physical_parameters(
        solve_weights(problem), args.delta_scale, args.dispersive_min
    )
    report = verify_synthesis(solution)
    modes = solution.physical
    note = f" (is_pst={str(report.is_pst).lower()})"

    def run(write):
        write(_csv_chunks(
            np.arange(1, len(modes) + 1),
            solution.weights,
            [mode.g for mode in modes],
            [mode.detuning for mode in modes],
            [mode.ratio for mode in modes],
        ))
        return {
            "n_modes": args.n,
            "n_aux_pairs": args.m,
            "strength": args.c,
            "solution": {
                "couplings": solution.couplings,
                "residual": solution.residual,
                "tolerance": solution.tolerance,
                "min_dispersive_ratio": solution.min_dispersive_ratio,
                "dispersive_ok": solution.dispersive_ok,
            },
            "pst_report": _report_labels(report),
        }

    return _emit(args, ("k", "weight", "g", "detuning", "ratio"), run, note)


class _ConfigPrefix(argparse.Action):
    """Reject a prefix of ``--config`` such as ``--conf``.

    ``main`` takes ``--config`` out of argv before parsing, so one that
    reaches the parser, before or after the subcommand, is a prefix, and
    storing it would leave the file silently unread.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        raise argparse.ArgumentError(self, "spell out --config in full")


@functools.cache
def build_parser():
    """The ``pstnet`` argument parser, built once per process.

    argparse does not change a parser while it parses, so ``main`` reuses it.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config",
        action=_ConfigPrefix,
        help="file of key = value lines, read as --key=value flags (spell out --config)",
    )
    common.add_argument("--output", help="output base name (default: subcommand)")
    common.add_argument(
        "--outdir", help=f"output directory (default: ${OUTDIR_ENV} or '.')"
    )

    network = argparse.ArgumentParser(add_help=False)
    network.add_argument("--n", type=int, required=True, help="number of waveguides")
    network.add_argument(
        "--profile",
        type=parse_profile,
        required=True,
        help="uniform:C=..,R=.. | evanescent:mu=..,R=.. | custom:c1,c2,...",
    )

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "json", "both"), default="both")

    parser = argparse.ArgumentParser(
        prog="pstnet",
        description="State transfer experiments on circulant waveguide networks",
    )
    parser.add_argument("--config", action=_ConfigPrefix, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "spectrum", parents=[common, network, fmt], help="Fourier-mode eigenvalues"
    )
    p.add_argument("--tol", type=float, default=None, help="degeneracy bin tolerance")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser(
        "transport", parents=[common, network], help="single-photon occupation trace"
    )
    p.add_argument("--source", type=int, required=True, help="input mode label (1-based)")
    p.add_argument("--z-max", type=parse_length, required=True)
    p.add_argument("--dz", type=parse_length, required=True)
    p.set_defaults(func=_cmd_transport)

    p = sub.add_parser(
        "pst-check", parents=[common, network], help="perfect-transfer report"
    )
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_pst_check)

    p = sub.add_parser(
        "cat", parents=[common, network, fmt], help="cat-state fidelity scan"
    )
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--target", type=int, default=None, help="default: antipodal mode")
    p.add_argument("--alpha", type=parse_length, required=True)
    p.add_argument("--phi", type=parse_length, required=True, help="radians; accepts pi/2")
    p.add_argument("--z-max", type=parse_length, required=True)
    p.add_argument("--dz", type=parse_length, default=None)
    p.set_defaults(func=_cmd_cat)

    p = sub.add_parser(
        "tmsv", parents=[common, network], help="two-mode squeezing transport"
    )
    p.add_argument("--w", type=float, required=True, help="squeezing strength")
    p.add_argument("--theta", type=parse_length, default=0.0)
    p.add_argument("--pair", type=parse_pair, required=True, help="input pair 'a,b'")
    p.add_argument("--track", type=parse_pair, default=None, help="default: antipodal pair")
    p.add_argument("--z-max", type=parse_length, required=True)
    p.add_argument("--dz", type=parse_length, required=True)
    p.set_defaults(func=_cmd_tmsv)

    p = sub.add_parser(
        "evanescent",
        parents=[common, fmt],
        help="transfer degradation under decaying couplings",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--r", type=int, required=True, help="interaction range")
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--z-max", type=parse_length, default=500.0)
    p.add_argument("--dz", type=parse_length, default=None)
    p.set_defaults(func=_cmd_evanescent)

    p = sub.add_parser(
        "synth", parents=[common], help="auxiliary-mode coupling synthesis"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help="auxiliary mode pairs")
    p.add_argument("--c", type=float, required=True, help="target coupling strength")
    p.add_argument("--delta-scale", type=float, default=200.0)
    p.add_argument("--dispersive-min", type=float, default=10.0)
    p.add_argument(
        "--tolerance",
        type=float,
        default=1e-8,
        help="largest synthesis residual accepted, relative to max(1, |c|)",
    )
    p.set_defaults(func=_cmd_synth)

    return parser


def _read_config(path: str) -> list[str]:
    """Turn each ``key = value`` line into one ``--key=value`` flag."""
    flags = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return flags


def _join_negative_values(argv: list[str]) -> list[str]:
    """Join ``--theta -pi/2`` into ``--theta=-pi/2``.

    argparse reads a token that starts with ``-`` as an option unless it
    is a plain negative number such as ``-2`` or ``-.5``, so a negative
    symbolic length given as its own token would be a usage error.  A
    token that ``parse_length`` accepts is never an option of this CLI.
    """
    joined = []
    for tok in argv:
        prev = joined[-1] if joined else ""
        if prev.startswith("--") and "=" not in prev and tok.startswith("-"):
            try:
                parse_length(tok)
            except argparse.ArgumentTypeError:
                pass
            else:
                joined[-1] = f"{prev}={tok}"
                continue
        joined.append(tok)
    return joined


@functools.cache
def _config_parser():
    """The parser that takes ``--config`` out of argv, built once per process."""
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    return pre


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``main``'s argv, with the flags of a ``--config`` file placed."""
    argv = _join_negative_values(argv)
    parser = build_parser()
    # only these tokens can match the pre-parser, which takes no abbreviation
    if not any(tok == "--config" or tok.startswith("--config=") for tok in argv):
        return parser.parse_args(argv)
    known, argv = _config_parser().parse_known_args(argv)
    if known.config:
        # Config flags go right after the subcommand, so argparse converts
        # and checks them like typed flags and later explicit flags win.
        command = next((tok for tok in argv if not tok.startswith("-")), None)
        if command is None:
            parser.error("--config requires a subcommand")
        try:
            flags = _read_config(known.config)
        except OSError as exc:
            parser.error(f"cannot read config file: {exc}")
        except ValueError as exc:
            parser.error(str(exc))
        at = argv.index(command) + 1
        argv[at:at] = flags
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(list(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"pstnet: error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())
