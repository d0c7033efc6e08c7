"""Command-line tests start ``python -m indivisible.cli`` in a child process;
give the child the package the tests themselves imported, so a bare
``pytest`` from a checkout tests ``src/`` without an installed copy."""

import os
from pathlib import Path

import pytest

import indivisible


@pytest.fixture(autouse=True, scope="session")
def _children_import_this_package():
    src = str(Path(indivisible.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
        yield
