"""Every ``repro`` package imports as the first import of a process.

A package that only imports after another ``repro`` package was loaded
first hides an import cycle.  ``repro.hardware`` and ``repro.perf``
were such packages: ``hardware.accelerator`` imports ``repro.models``,
whose renderer imported ``repro.core`` at module level, and
``repro.core``'s package init imports ``hardware.accelerator`` back.
Each import runs in a fresh interpreter, since in this one the
conftest has already loaded ``repro.models``.
"""

import os
import pkgutil
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

MODULES = sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules([os.path.join(SRC, "repro")])
    if info.ispkg) + ["repro.hardware.accelerator", "repro.perf.reference"]


def test_every_subpackage_is_listed():
    assert {"repro.core", "repro.hardware", "repro.models",
            "repro.perf"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_first_import_of_a_fresh_interpreter(module):
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
        text=True, timeout=120)
    assert result.returncode == 0, result.stderr
