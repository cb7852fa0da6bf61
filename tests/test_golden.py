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

``LONG_TRACES`` pins the two largest CSVs of the ``dense-output``
benchmark (201,089 and 407,501 lines).  Their digests were recorded
before the CSV writer moved from ``csv.writer`` over per-field strings
to chunks of ``%``-formatted text, which wrote the same bytes.
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
        "pst-check.json": "2cf0385ab08d6502c003a9aef159c85ad3c802dcb789c2e6a8d24016b6344757",
    },
    "cat --n 12 --profile uniform:C=1,R=5 --source 1 --alpha 0.5 --phi pi/2 --z-max 2pi": {
        "cat.csv": "4fe09012afd6093b51dc566236f2c23333d2a4a5156f61066ef3e00e6c56d55b",
        "cat.json": "f8efeb298adf41d2480bc79e4f7a7356ce012caf43aca948402163125fe87efc",
    },
    "tmsv --n 8 --profile uniform:C=1,R=3 --w 0.881374 --pair 1,2 --z-max pi --dz 0.01": {
        "tmsv.csv": "5d36ce1d9b17075b59650321f3599f4335eda6c4fc74fa2be3b3fbc2963a5a15",
    },
    "evanescent --n 12 --mu 0.524 --r 6 --source 1 --z-max 500": {
        "evanescent.csv": "49df62347413976ddc2007dca5f341a5b39ac4c440b6ee5367b0e127b3ed9209",
        "evanescent.json": "f705fcf64442a323d01251c19a2b21accd116c550039326268143979761e1151",
    },
    "synth --n 8 --m 4 --c 1": {
        "synth.json": "5e278c164c372ecd91242665d70e9a811020188b1300885f3b1ccef677b9586e",
    },
}

LONG_TRACES = {
    "transport --n 64 --profile uniform:C=1,R=31 --source 1 --z-max pi --dz 0.001": {
        "transport.csv": "f6490fd80a34e880d677b57ac89a9574ced9bf333eb7ca29ea07e69b690a7a84",
    },
    "evanescent --n 12 --mu 0.815 --r 6 --source 1 --z-max 5000": {
        "evanescent.csv": "4f362518951cf80b7a70c9dc773d53ee35596d828d3f967ad54754202815cba5",
        "evanescent.json": "77a31f900b3bef43c381e986fb8bac590e6b1719a1e5964e0be61c11536657d7",
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
