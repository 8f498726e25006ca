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
"""

SGEMM_SWITCH_CELLS = 1_000_000
SGEMV_SWITCH_ROWS = 16_384


def row_interval(rows: int, k: int, n: int, scattered: bool = False):
    """The regime of a (rows, k) x (k, n) float32 GEMM: ``(lo, hi)``,
    inclusive, with ``hi`` None when unbounded (always, for
    ``scattered``); or None when no other count is known to match.  A
    count given the same interval computes the shared rows bit for bit.
    """
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
