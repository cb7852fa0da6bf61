"""Golden digests of every file the seven README commands write.

The digests pin the CLI's output bytes.  They were recorded with numpy
2.4.6 and Python 3.11.7 on x86-64 Linux; a change that alters them on
purpose must say why and record them again.

The CSV digests were last recorded when the spectrum became the FFT of
the coupling row instead of a cosine sum, which moved eigenvalues in
their last digits (at most 1.6e-14 for these commands).

The JSON digests were last recorded when the summaries started to be
written by ``json.dumps(summary, indent=2)`` instead of a hand-written
emitter.  Floats are now the shortest repr that reads back to the same
value instead of 17 significant digits, integral floats keep their
``.0`` (``-1.0``, not ``-1``) so they load back as floats, and lists
take one element per line.  Every JSON file loads into an object equal
to the previous one, with the same keys in the same order; no CSV byte
changed.

``tmsv.csv`` was last recorded when ``pair_squeezing`` started to read
its amplitudes at the six offsets its pairs need, from one
``offset_amplitudes`` call with their tuple (the phases of the three
distinct eigenvalues against a 3 x 6 weight matrix), instead of all N
phases and one inverse FFT per z-step.  Values moved by rounding alone,
at most 6.7e-16, in 311 of 315 rows; on every seventh row both the new
and the old values are within 5.0e-16 of the exactly summed dense chain.
No other digest moved, ``LONG_TRACES`` and ``WIDE_RING`` included: one
integer offset kept its arithmetic.  Before that it was recorded when
``pair_squeezing`` started to read each pair's squeezing in closed
form, e/2 (|a|^2 + |b|^2) +- Re(c a b), from four amplitudes and two entries of the input covariance, instead of
the realified 4 x 4 product R D R^T checked as a stacked covariance per
step.  The arithmetic is rounded at other points, so values moved by at
most 6.7e-16, in 313 of 315 rows; no other digest changed.  Earlier still
it was recorded when ``tmsv`` started to read each pair's squeezing from
the four amplitudes of one ``offset_amplitudes`` grid instead of
evolving the full 2N x 2N covariance per step (moves of at most 2.0e-15).

``pst-check.json``, ``cat.csv``, ``cat.json``, ``evanescent.csv``,
``evanescent.json``, ``synth.json`` and the long ``evanescent`` trace
were last recorded when every scan started to read its one offset from
the sum over distinct eigenvalues (``offset_amplitudes(..., offset=d)``)
instead of column d of an N-column inverse FFT.  The summation order
changed, and eigenvalues equal to within 1e-13 / max|z| now share one
phase.  CSV values moved by at most 6.1e-15 (``evanescent.csv``), JSON
amplitudes and maxima by at most 2.0e-15, and ``z_at_max`` on the flat
peaks that the golden-section refinement ends on by at most 2.1e-9
(``pst-check.json``).  Every non-numeric field, ``is_pst`` included, is
unchanged, and the ``spectrum``, ``transport`` and ``tmsv`` digests did
not move.

``LONG_TRACES`` pins the two largest CSVs of the ``dense-output``
benchmark (201,089 and 407,501 lines).  Their digests were recorded
before the CSV writer moved from ``csv.writer`` over per-field strings
to chunks of ``%``-formatted text, which wrote the same bytes.

No digest moved when the ``%`` templates gave way to the vectorized
``g17_fields`` kernel and ``transport`` began to compute its amplitudes
one chunk of z-steps at a time.

No digest moved when every offset at once came from the phases of the
distinct eigenvalues, gathered back to the N modes, and ``tmsv`` began
to compute its amplitudes one chunk of z-steps at a time.

No digest moved when every offset at once went back to the phases of all
N modes and one inverse FFT, with no grouping: the ``transport`` and
``tmsv`` rings are uniform, whose degenerate eigenvalues are bitwise
equal, so every phase and every byte is the one the gather computed.

No digest moved when the JSON summaries came to be written by
``cli._json_text``, a direct writer whose bytes are those of
``json.dumps(summary, indent=2, default=_jsonable)``, when a single-z
amplitude came to skip ``_group_sum`` for the same product, and when
``transport`` came to format each block's z with its probabilities in
blocks of ``_CHUNK_ROWS // (N + 1)`` z-steps: each row's phases and
inverse FFT do not depend on its block.

``cat.csv``, ``evanescent.csv`` and the long ``evanescent`` trace were
last recorded when a scan on an evenly spaced grid started to read its
phases from a two-level table (anchor phases times one shared table of
step phases, with a first-order correction for the rounding gap)
instead of one ``exp`` per phase.  The phase arguments are rounded at
other points, so values moved by at most 3.3e-16 in ``cat.csv``, 2.6e-14
in ``evanescent.csv`` and 6.1e-13 in the z = 5000 trace, inside the
bound ``c * eps * max|mu z|`` that rounding the arguments carries either
way.  Every JSON digest is unchanged, maxima and ``z_at_max`` included.

``pst-check --n 8 ... --source 2`` pins the one JSON shape that no other
digest covers, a report with ``is_pst: true`` and a numeric ``z_pst``.
It was recorded before the ``pst-check`` and ``synth`` summaries switched
from hand-written ``to_dict`` methods to ``dataclasses.asdict`` (through
the ``json.dumps`` default), and no digest moved with that switch.

``synth.json`` was last recorded when the square system M = N/2 came to
be solved by one inverse real FFT (a type-I cosine transform) instead of
``lstsq`` on the dense cosine matrix, and the couplings came from the FFT
of the evenly folded weights.  The weights became exactly (-1.5, -2,
-1.5, -1), the couplings exactly (1, 1, 1, 0) and the residual went from
8.9e-16 to 0.0; ``z_pst`` is now pi/2 to the last bit.  No other digest
moved.

``synth.json`` was last recorded, and ``synth.csv`` first pinned, when
``synth`` moved its per-pair arrays into a CSV table of
``(k, weight, g, detuning, ratio)``, one row per auxiliary pair, and
every summary came to be written by ``json.dumps`` itself.  It is a
change of layout, and no value moved: the JSON lost ``weights`` and
``physical`` and is otherwise equal, key order included, and each table
row reads back to the weight and ``(g, detuning, ratio)`` of its pair.
No other digest moved.

The long ``evanescent`` trace (z = 5000, 407,500 points) was last
recorded when scans started to read their grid in blocks of at most
2^16 points, one ``offset_amplitudes`` call per block.  Each block has
its own two-level phase table and grouping tolerance, so the phase
arguments are rounded at other points: its 7 blocks moved by at most
5.2e-13, inside the bound ``c * eps * max|mu z|`` (6.6e-12).  On a
sample of points from every block the new values are at most 1.4e-13
from the exact ones in mpmath, the old ones 2.3e-13.  Its JSON is unchanged (``max_transfer`` 0.8984104562454922),
and every ``GOLDEN`` digest and the long ``transport`` trace, one block
or no scan at all, did not move.

``evanescent.csv`` and ``evanescent.json`` of ``evanescent --z-max 500``
and the long ``evanescent`` trace's CSV were last recorded when the
grouping tolerance of ``offset_amplitudes`` was rounded down to a power
of two, ``2^floor(log2(1e-13 / max(1, max|z|)))``, so that every call
whose reach lies in one octave shares one plan of groups and weights.
Eigenvalues of the evanescent rings that differ in their last bits are
grouped at the new tol, so CSV values moved by at most 5.7e-15
(``--z-max 500``) and 2.3e-14 (the z = 5000 trace), and
``max_transfer`` of ``--z-max 500`` by 2 ulp (0.9591261446533657 to
0.9591261446533659).  On 200 sampled points each, the new values are at
most 1.2e-14 and 5.1e-14 from the exact ones in mpmath, the old ones
1.0e-14 and 6.1e-14.  The long trace's JSON and every uniform-ring
digest did not move: the collapse spectrum's three values are bitwise
distinct, so every tol groups them alike.

``evanescent.csv`` and ``evanescent.json`` of ``evanescent --z-max 500``
and of the long ``evanescent`` trace (z = 5000) were last recorded when
the one-offset sum came to group only exactly equal eigenvalues, with
no tolerance, and ``NetworkSpec.spectrum`` came to write lambda_p into
lambda_{N-p}, so the FFT's two roundings of one eigenvalue became one
value.  The evanescent rings' eigenvalues moved in their last bits and
their groups changed, so CSV values moved by at most 2.2e-14
(``--z-max 500``, 25,875 of 26,200 rows) and 1.9e-13 (the z = 5000
trace, 406,430 of 407,500 rows), inside ``c * eps * max|mu z|``.
``max_transfer`` went from 0.9591261446533659 to 0.9591261446533724
and from 0.8984104562454922 to 0.898410456245594, and ``z_at_max`` on
the flat peaks by at most 1.3e-10.  On 200 sampled points each, the new
values are at most 1.2e-14 and 2.1e-13 from the exact sum over their own
spectrum in mpmath, the old ones 1.1e-14 and 2.2e-13.  The collapse
spectra are mirror symmetric straight from the FFT, so every
uniform-ring digest did not move, and neither did ``synth``.

``WIDE_RING`` pins ``synth --n 1024 --m 512 --c 1``, the ``synth`` of the
``wide-ring`` benchmark, whose 512-row table the N = 8 golden cannot
stand for.  Its digests were recorded before ``physical_parameters``
came to split the weights into ``(g, detuning, ratio)`` columns in one
numpy pass instead of one ``AuxiliaryMode`` per pair.  No digest moved
with that change: every column is bitwise the per-pair loop's.
"""

import hashlib

import pytest

from pstnet.cli import main

GOLDEN = {
    "spectrum --n 12 --profile uniform:C=1,R=5": {
        "spectrum.csv": "af31828db243048503e3377cf936b15288a01abcec1097cad70117e0683ad53a",
        "spectrum.json": "9b728d27db1f8c9846dcbe592f94397647404b0556f8d5d109b4d8bf79633319",
    },
    "transport --n 8 --profile uniform:C=1,R=3 --source 1 --z-max pi --dz 0.005": {
        "transport.csv": "367e9af72dec4bdc2b3255b787e0d78d630c61275e9554396eeb11581cc6116d",
    },
    "pst-check --n 10 --profile uniform:C=1,R=4 --source 1": {
        "pst-check.json": "cd56c9a1144b165b4b12535f96dc545e01c3598c6154e0e7c2632809070d8f8e",
    },
    "pst-check --n 8 --profile uniform:C=1,R=3 --source 2": {
        "pst-check.json": "ec77c05b4ebdb136a1e2d713a0b2fa2af203b73a6b25d831cd3026d509a37e64",
    },
    "cat --n 12 --profile uniform:C=1,R=5 --source 1 --alpha 0.5 --phi pi/2 --z-max 2pi": {
        "cat.csv": "556c9dd881c7e61d48b8188331d160058eb3199a1f7d3aa5718a1d2c98e04c79",
        "cat.json": "b484ba3d74ca5e9796338b76f56db8db1f12b8496d90f7a961b15f4f1817791d",
    },
    "tmsv --n 8 --profile uniform:C=1,R=3 --w 0.881374 --pair 1,2 --z-max pi --dz 0.01": {
        "tmsv.csv": "d68506bec7c1b380ca0711b27a782396ab0423532a4ec4ab1d8786db8837c177",
    },
    "evanescent --n 12 --mu 0.524 --r 6 --source 1 --z-max 500": {
        "evanescent.csv": "010b63bfd3e3088f2afd6e3f67d1b713498ed4f4211e8d9f3b8f9b8b876bdaef",
        "evanescent.json": "21db266a48f251427dff3fed6a0430e4aebe896456cc24ac1932bba5ac6bd636",
    },
    "synth --n 8 --m 4 --c 1": {
        "synth.csv": "aad9f01974d8521a45f6be7f71de67ab161ce0f2636059832ae0fb6b5042a0dc",
        "synth.json": "b3e7367444f641c0b372aac285fa19f0d21d37f18ca4d10c294caa313fb9f542",
    },
}

LONG_TRACES = {
    "transport --n 64 --profile uniform:C=1,R=31 --source 1 --z-max pi --dz 0.001": {
        "transport.csv": "f6490fd80a34e880d677b57ac89a9574ced9bf333eb7ca29ea07e69b690a7a84",
    },
    "evanescent --n 12 --mu 0.815 --r 6 --source 1 --z-max 5000": {
        "evanescent.csv": "6385f072b3a3c584c5edfccbc0a89c00609ba315eddbf2ef2c7639408390924e",
        "evanescent.json": "4b851b310c3dadbc6d6a549b5d7d277bbf4e06dda5f21a1b80197afbd00cec54",
    },
}

WIDE_RING = {
    "synth --n 1024 --m 512 --c 1": {
        "synth.csv": "9ac9673dc71d3eeffa7b15799fac5faec19a96937753d6765258ea613c6c2b75",
        "synth.json": "a9ae56c57b11b9e920fb46182646be525c2a11339a534c7d1e4f2b0b306ca745",
    },
}


def _digests(command, outdir):
    assert main([*command.split(), "--outdir", str(outdir)]) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in outdir.iterdir()
    }


@pytest.mark.parametrize("command", GOLDEN)
def test_readme_command_output_is_byte_identical(command, tmp_path):
    assert _digests(command, tmp_path) == GOLDEN[command]


@pytest.mark.parametrize("command", LONG_TRACES)
def test_long_trace_output_is_byte_identical(command, tmp_path):
    assert _digests(command, tmp_path) == LONG_TRACES[command]


@pytest.mark.parametrize("command", WIDE_RING)
def test_wide_ring_output_is_byte_identical(command, tmp_path):
    assert _digests(command, tmp_path) == WIDE_RING[command]
