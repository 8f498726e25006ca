"""Which row counts of a float32 GEMM compute its rows bit for bit.

BLAS picks a kernel per call from the call's shape, and two kernels can
round one output row differently.  Every path that changes a GEMM's row
count and promises unchanged bits asks this module which counts are
safe: the packed fine pass, the footprint encode and serve's merging.

Measured on OpenBLAS 0.3 (``DYNAMIC_ARCH``, Haswell kernels) at one and
two threads; ``tests/nn/test_regime.py`` checks it on the suite's host.
``sgemm`` switches kernels above :data:`SGEMM_SWITCH_CELLS` rows x K x N,
which moves bits only for narrow outputs (N <= 8) with K > 30.  ``sgemv``
(N == 1) switches above :data:`SGEMV_SWITCH_ROWS` rows; below, it keeps
rows only at multiples of 4, as do contiguous N <= 3 outputs.  A
*scattered* subset of rows (the footprint encode's) has no safe ``sgemv``
or small-regime narrow ``sgemm`` count; elsewhere it needs >= 2 rows.

The rule is checked at first use in every process (:func:`host_matches`),
at whatever BLAS thread count the process runs with.  Where the check
fails, :func:`row_interval` knows no safe count for any shape, so every
caller takes its dense path, and one ``blas.regime_mismatch`` event says
so.
"""

import functools

import numpy as np

SGEMM_SWITCH_CELLS = 1_000_000
SGEMV_SWITCH_ROWS = 16_384

# (K, N, rows, within): a ``rows``-row call computes the same bits as
# the same rows inside a ``within``-row call, both in one regime.  Row
# counts stay small where the regime has no upper end.
_HOST_CHECKS = (
    (8, 1, 6_144, 16_384),      # sgemv, under its row switch
    (8, 1, 16_388, 16_400),     # sgemv, over it
    (32, 8, 1_024, 3_906),      # narrow sgemm, under its cell switch
    (32, 8, 3_907, 4_000),      # narrow sgemm, over it
)


def _rows_match(k: int, n: int, rows: int, within: int,
                values: np.ndarray) -> bool:
    """Whether a ``rows``-row block at either end of a ``within``-row
    (., k) x (k, n) float32 GEMM computes the same bits alone."""
    a = values[:within * k].reshape(within, k)
    w = values[-k * n:].reshape(k, n)
    full = a @ w
    return all(np.array_equal(a[start:start + rows] @ w,
                              full[start:start + rows])
               for start in (0, within - rows))


@functools.lru_cache(maxsize=None)
def host_matches() -> bool:
    """Whether this process's BLAS keeps the rule, checked once with
    real GEMMs on both sides of each switch."""
    size = max(within * k for k, _, _, within in _HOST_CHECKS) \
        + max(k * n for k, n, _, _ in _HOST_CHECKS)
    values = np.random.default_rng(0).standard_normal(size,
                                                      dtype=np.float32)
    for k, n, rows, within in _HOST_CHECKS:
        if not _rows_match(k, n, rows, within, values):
            # Imported here: ``import repro.nn`` loads no ``repro.core``.
            from ..core import log
            log.event(log.get_logger("nn.regime"), "blas.regime_mismatch",
                      k=k, n=n, rows=rows, within=within)
            return False
    return True


def row_interval(rows: int, k: int, n: int, scattered: bool = False):
    """The regime of a (rows, k) x (k, n) float32 GEMM: ``(lo, hi)``,
    inclusive, with ``hi`` None when unbounded (always, for
    ``scattered``); or None when no other count is known to match.  A
    count given the same interval computes the shared rows bit for bit.
    """
    if not host_matches():
        return None
    if n == 1:
        if scattered:
            return None
        if rows > SGEMV_SWITCH_ROWS:
            return SGEMV_SWITCH_ROWS + 1, None
        return None if rows % 4 else (1, SGEMV_SWITCH_ROWS)
    if n <= 3 and rows % 4 and not scattered:
        return None
    least = 2 if scattered else 1
    if n <= 8 and k > 30:
        limit = SGEMM_SWITCH_CELLS // (k * n)
        if rows > limit:
            return limit + 1, None
        return None if scattered else (least, limit)
    return least, None


def batch_interval(shapes, count: int):
    """:func:`row_interval` for a call over ``count`` items whose GEMMs
    have the ``(rows per item, K, N)`` in ``shapes``: the item counts,
    as ``(lo, hi)``, at which every one of them stays in its interval."""
    lo, hi = 1, None
    for per_item, k, n in shapes:
        interval = row_interval(per_item * count, k, n)
        if interval is None:
            return None
        lo = max(lo, -(-interval[0] // per_item))
        if interval[1] is not None:
            top = interval[1] // per_item
            hi = top if hi is None else min(hi, top)
    return lo, hi
