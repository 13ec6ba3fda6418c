"""Make the in-tree package importable by child processes too.

``pyproject.toml`` puts ``src`` on pytest's own import path, but a test
that starts ``python -m pairsim.cli`` in a subprocess (acceptance
criterion 8) only sees ``PYTHONPATH``; prepend ``src`` there so bare
``pytest`` runs it.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    paths = [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
