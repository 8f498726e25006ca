"""Every ``repro`` package imports as the first import of a process.

A package that only imports after another ``repro`` package was loaded
first hides an import cycle.  ``repro.hardware`` and ``repro.perf``
were such packages: ``hardware.accelerator`` imports ``repro.models``,
whose renderer imported ``repro.core`` at module level, and
``repro.core``'s package init imports ``hardware.accelerator`` back.
Each import runs in a fresh interpreter, since in this one the
conftest has already loaded ``repro.models``.

``repro.hardware`` also sits below ``repro.core`` in the layering:
planning and simulating a frame loads no ``repro.core`` module.
"""

import os
import pkgutil
import subprocess
import sys
import textwrap

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


SIMULATE_ONE_FRAME = textwrap.dedent("""
    import sys

    import repro.hardware as H
    from repro.models.workload import typical_workload
    from repro.scenes import make_scene

    scene = make_scene("deepvoxels", seed=0, num_source_views=2,
                       image_scale=1 / 8)
    intr = scene.target_camera.intrinsics
    workload = typical_workload(height=intr.height, width=intr.width,
                                num_views=2)
    accelerator = H.GenNerfAccelerator()
    args = (scene.target_camera, scene.source_cameras, scene.near,
            scene.far)
    plan = accelerator.plan_frame(*args, workload)
    frame = accelerator.simulate_frame(workload, *args, plan=plan)
    assert frame.num_patches > 0 and frame.total_time_s > 0
    print(sorted(name for name in sys.modules
                 if name.split(".")[:2] == ["repro", "core"]))
""")


def test_simulating_a_frame_imports_no_core_module():
    result = subprocess.run(
        [sys.executable, "-c", SIMULATE_ONE_FRAME],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
        text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]", result.stdout
