"""Golden digests of every file the seven README commands write.

The digests pin the CLI's output bytes.  They were recorded with numpy
2.4.6 and Python 3.11.7 on x86-64 Linux; a change that alters them on
purpose must say why and record them again.
"""

import hashlib

import pytest

from pstnet.cli import main

GOLDEN = {
    "spectrum --n 12 --profile uniform:C=1,R=5": {
        "spectrum.csv": "6f15cbaea5a191aeee614be95ba105290117e8c42e686822626c0cfd2470909e",
        "spectrum.json": "e3289fa74b048e51d9b77226017cee51204475a9dd30349d00acdcb5853e8039",
    },
    "transport --n 8 --profile uniform:C=1,R=3 --source 1 --z-max pi --dz 0.005": {
        "transport.csv": "fb215be9819cd81f8e5af1e28df8a8efd292442d1f81ce1dfb70009944252b74",
    },
    "pst-check --n 10 --profile uniform:C=1,R=4 --source 1": {
        "pst-check.json": "27ed459a7ce3253b167bcb2c3b34d626cf78a706664c1eb9194117ca9e584920",
    },
    "cat --n 12 --profile uniform:C=1,R=5 --source 1 --alpha 0.5 --phi pi/2 --z-max 2pi": {
        "cat.csv": "021654a178ffbdebae5e125c5b3a351c06519adb35f2385a0228ae576ec7e004",
        "cat.json": "8640c89a6149f479da242de33d617e7478056cab4c20d2e607a9826b8fcee1e3",
    },
    "tmsv --n 8 --profile uniform:C=1,R=3 --w 0.881374 --pair 1,2 --z-max pi --dz 0.01": {
        "tmsv.csv": "dbb8950b066a062c2a9e4da67b96fe1f9080b9c662f43073a59b4ca615eeb2e6",
    },
    "evanescent --n 12 --mu 0.524 --r 6 --source 1 --z-max 500": {
        "evanescent.csv": "976d497ade0da5f68afc1f661c0f31672956c890a1e4bbb62e6e15b955f47cd9",
        "evanescent.json": "8ca11fcb6df4dbe8fc53e4cbf90ad2e90329b21950459b19687ed15ef4f37cb5",
    },
    "synth --n 8 --m 4 --c 1": {
        "synth.json": "dc6416ec6905f90fc0f058f5801b694405d01b5838e341763246868e1719c611",
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
