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

``tmsv.csv`` was last recorded when ``tmsv`` started to read each pair's
squeezing from the four amplitudes of one ``offset_amplitudes`` grid
(``pair_squeezing``) instead of evolving the full 2N x 2N covariance per
step.  Its values moved by at most 2.0e-15; no other digest changed.

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
    "cat --n 12 --profile uniform:C=1,R=5 --source 1 --alpha 0.5 --phi pi/2 --z-max 2pi": {
        "cat.csv": "07b7d6d70b6db08a5922e60da81e894112bf4e3cb00da974b6446cfc6455269a",
        "cat.json": "b484ba3d74ca5e9796338b76f56db8db1f12b8496d90f7a961b15f4f1817791d",
    },
    "tmsv --n 8 --profile uniform:C=1,R=3 --w 0.881374 --pair 1,2 --z-max pi --dz 0.01": {
        "tmsv.csv": "5d36ce1d9b17075b59650321f3599f4335eda6c4fc74fa2be3b3fbc2963a5a15",
    },
    "evanescent --n 12 --mu 0.524 --r 6 --source 1 --z-max 500": {
        "evanescent.csv": "fbc369cf1e53b59dc6f4972d1b8449db15e80bcd2084430767e2d35f80278e3f",
        "evanescent.json": "b5ed2f6a1887a0fc4b1e07346e00c7a74058fb4b2a9ad4eba5666c3ef6701fc8",
    },
    "synth --n 8 --m 4 --c 1": {
        "synth.json": "9eadee4305f0d365a8dbf185f1cd72b5faaa4961a67379a923dadb1a5890ac7f",
    },
}

LONG_TRACES = {
    "transport --n 64 --profile uniform:C=1,R=31 --source 1 --z-max pi --dz 0.001": {
        "transport.csv": "f6490fd80a34e880d677b57ac89a9574ced9bf333eb7ca29ea07e69b690a7a84",
    },
    "evanescent --n 12 --mu 0.815 --r 6 --source 1 --z-max 5000": {
        "evanescent.csv": "5035793b21672e227a5a0dc32ba0779b36a1f2fdff7d187f3a8527a6e388233a",
        "evanescent.json": "5d2417f7e9e8f12227935fe728386c0946d7043e4d49e6276de4fe932e1fd89f",
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
