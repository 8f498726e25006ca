"""Benchmark harness support.

Each benchmark regenerates one paper table/figure through the
experiment registry (``repro.core.registry``), prints it, and checks
the text byte for byte against the committed
``benchmarks/results/<name>.txt``.  The harness never writes an
artefact: a deliberate change is regenerated with ``python -m repro run
<experiment> --write``.  ``benchmark.pedantic(..., rounds=1)`` is used
throughout: the interesting output is the experiment's *result*;
wall-clock is reported once, not statistically sampled.
"""

import ctypes
import difflib
import glob
import os

import numpy as np
import pytest

from repro.core.registry import all_experiments

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ ``slow`` (the figure/table
    harnesses take minutes) so ``pytest -m "not slow"`` is a fast inner
    loop; the hot-path microbenches additionally get ``bench`` so they
    can be selected on their own with ``-m bench``."""
    here = os.path.dirname(__file__)
    for item in items:
        if str(item.fspath).startswith(here):
            item.add_marker(pytest.mark.slow)
            if "test_perf_microbench" in str(item.fspath):
                item.add_marker(pytest.mark.bench)


def _openblas_core_and_threads():
    """The kernel core and thread count of numpy's bundled OpenBLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir,
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        library = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_core = getattr(library, f"{prefix}get_corename{suffix}",
                                   None)
                get_threads = getattr(
                    library, f"{prefix}get_num_threads{suffix}", None)
                if get_core is not None and get_threads is not None:
                    get_core.argtypes = get_threads.argtypes = []
                    get_core.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    return get_core().decode(), get_threads()
    return "unknown", "unknown"


def host_fingerprint() -> str:
    """CPU count, numpy version, and the BLAS build with the kernel core
    and thread count it runs: artefacts that run GEMMs take their bits
    from these."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core, threads = _openblas_core_and_threads()
    return (f"{os.cpu_count()} CPUs, numpy {np.__version__}, "
            f"{blas.get('name')} {blas.get('version')} "
            f"(core {core}, {threads} threads)")


def emit(name: str, text: str) -> None:
    """Print a regenerated table/figure and fail unless it matches the
    committed artefact byte for byte.  The file is left as it was."""
    banner = f"\n{'#' * 72}\n# {name}\n{'#' * 72}\n"
    print(banner + text)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    rendered = text + "\n"
    committed = None
    if os.path.exists(path):
        with open(path, newline="") as handle:
            committed = handle.read()
    if committed == rendered:
        return
    experiment = next((e.name for e in all_experiments()
                       if e.artefact == name), name)
    if committed is None:
        found = f"{path} does not exist."
    else:
        diff = difflib.unified_diff(
            committed.splitlines(keepends=True),
            rendered.splitlines(keepends=True),
            fromfile=f"committed {name}.txt", tofile="regenerated")
        found = f"{path} differs from the regenerated text:\n" \
            + "".join(diff)
    pytest.fail(f"{found}\nhost: {host_fingerprint()}\n"
                f"If the change is deliberate, regenerate it with "
                f"`python -m repro run {experiment} --write`.",
                pytrace=False)


@pytest.fixture()
def report():
    return emit
