"""The pins of tests/test_pins.py with numpy's dispatched SIMD kernels
switched off.

numpy picks some of its kernels by CPU at run time, so a pinned byte that
depends on one of them would differ between hosts. The test below runs
tests/test_pins.py in a fresh process with every SIMD extension numpy
found here disabled through ``NPY_DISABLE_CPU_FEATURES`` (numpy refuses a
name outside that list, so the names are read, not written down). The
suite's own run of tests/test_pins.py is the run under the default
dispatch; when both match the pins they match each other.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_pinned_outputs_do_not_depend_on_numpy_kernel_dispatch():
    found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    if not found:
        pytest.skip("numpy dispatches no SIMD extension beyond its baseline on this CPU")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(found)}
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_pins.py"]
    run = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
