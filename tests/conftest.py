"""Let CLI subprocesses import pstnet from this checkout.

``run_cli`` and the determinism test start ``python -m pstnet`` with the
working directory set to a temporary path, where a relative ``src`` entry
on PYTHONPATH resolves to nothing.  The absolute path is prepended for
every child process the tests start.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_configure(config):
    paths = [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
