"""Let CLI subprocesses import pstnet from this checkout; join scan blocks.

``run_cli`` and the determinism test start ``python -m pstnet`` with the
working directory set to a temporary path, where a relative ``src`` entry
on PYTHONPATH resolves to nothing.  The absolute path is prepended for
every child process the tests start.

The ``scan_trace`` fixture runs a scan and joins the grid blocks it hands
to ``on_block`` into the whole trace.
"""

import os
from pathlib import Path

import numpy as np
import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_configure(config):
    paths = [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)


def _scan_trace(scan, *args, **kwargs):
    """``(result, zs, values)`` of ``scan(*args, **kwargs)``, its blocks joined."""
    blocks = []
    result = scan(*args, on_block=lambda zs, values: blocks.append((zs, values)), **kwargs)
    zs, values = (np.concatenate(column) for column in zip(*blocks))
    return result, zs, values


@pytest.fixture
def scan_trace():
    return _scan_trace
