"""Golden digests of every file the seven README commands write.

The digests pin the CLI's output bytes.  They were recorded with numpy
2.4.6 and Python 3.11.7 on x86-64 Linux; a change that alters them on
purpose must say why and record them again.

Last recorded when the spectrum became the FFT of the coupling row
instead of a cosine sum.  That moves eigenvalues in their last digits
(at most 1.6e-14 for these commands), and every file derived from the
spectrum changes with them; every value stays within 1e-9 * max(1, |x|)
of the cosine-sum output and every non-numeric field is unchanged.
Only ``cat.json`` kept its bytes.
"""

import hashlib

import pytest

from pstnet.cli import main

GOLDEN = {
    "spectrum --n 12 --profile uniform:C=1,R=5": {
        "spectrum.csv": "af31828db243048503e3377cf936b15288a01abcec1097cad70117e0683ad53a",
        "spectrum.json": "409dee7027e83bbe7419fe3c4dc65961b2c14b23730421f8b571c3d894313c04",
    },
    "transport --n 8 --profile uniform:C=1,R=3 --source 1 --z-max pi --dz 0.005": {
        "transport.csv": "367e9af72dec4bdc2b3255b787e0d78d630c61275e9554396eeb11581cc6116d",
    },
    "pst-check --n 10 --profile uniform:C=1,R=4 --source 1": {
        "pst-check.json": "4aa7b560ed65dcbe624f270e6f1a532bb3d03f16dd48517516a992c1b9adf816",
    },
    "cat --n 12 --profile uniform:C=1,R=5 --source 1 --alpha 0.5 --phi pi/2 --z-max 2pi": {
        "cat.csv": "4fe09012afd6093b51dc566236f2c23333d2a4a5156f61066ef3e00e6c56d55b",
        "cat.json": "8640c89a6149f479da242de33d617e7478056cab4c20d2e607a9826b8fcee1e3",
    },
    "tmsv --n 8 --profile uniform:C=1,R=3 --w 0.881374 --pair 1,2 --z-max pi --dz 0.01": {
        "tmsv.csv": "f7f2c7b477740de8dc694f13526ac5d86d9a351f4acfdb42413af6de8755b49c",
    },
    "evanescent --n 12 --mu 0.524 --r 6 --source 1 --z-max 500": {
        "evanescent.csv": "49df62347413976ddc2007dca5f341a5b39ac4c440b6ee5367b0e127b3ed9209",
        "evanescent.json": "19cbae080bd92cd37767102fcfb7486bc3e0768e4615124a150f64cbbaf49750",
    },
    "synth --n 8 --m 4 --c 1": {
        "synth.json": "7ae5f3c078e978592c0813d1e75b7cf6ce0fed8140ecba986acf7a541836544e",
    },
}


@pytest.mark.parametrize("command", GOLDEN)
def test_readme_command_output_is_byte_identical(command, tmp_path):
    assert main([*command.split(), "--outdir", str(tmp_path)]) == 0
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert written == GOLDEN[command]
