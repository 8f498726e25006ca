"""Pure arithmetic and output checks of the benchmark.

Nothing here imports the program: the functions take plain numbers and
arrays, so ``perfbench/tests`` can show each check rejecting a corrupted
output without building a scene or a model.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import fields
from typing import Iterable, List, Sequence, Tuple

import numpy as np


# ----------------------------------------------------------------------
# Percentiles and spreads
# ----------------------------------------------------------------------
def nearest_rank(values: Sequence[float], q: float) -> float:
    """The q-th percentile by nearest rank: the smallest sample with at
    least ``q`` per cent of the samples at or below it (no
    interpolation, so the value is always one that was measured)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the nearest-rank
    q-th percentile; a percentile is a tail when at least ten do (p95
    needs 200 samples)."""
    return count - max(1, math.ceil(q / 100.0 * count))


def quartile_spread(values: Sequence[float]) -> Tuple[float, float, float,
                                                     float]:
    """(first quartile, median, third quartile, spread) where spread is
    the inter-quartile distance as a share of the median, with the
    quartiles of :func:`statistics.quantiles` (``n=4``)."""
    if len(values) < 2:
        value = float(values[0])
        return value, value, value, 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else math.inf
    return q1, median, q3, spread


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Sequence]) -> List[int]:
    """Self time of every span: its duration minus the time its direct
    children cover.

    ``spans`` rows are ``(name, start, end, parent)`` with ``parent``
    the index of the enclosing span or -1.  Spans come from one thread,
    so the children of a span never overlap each other.
    """
    result = [int(span[2]) - int(span[1]) for span in spans]
    for span in spans:
        parent = int(span[3])
        if parent >= 0:
            result[parent] -= int(span[2]) - int(span[1])
    return result


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def pixels_valid(image: np.ndarray, shape: Tuple[int, ...]) -> bool:
    """An image of the requested shape whose pixels are finite and in
    [0, 1]."""
    image = np.asarray(image)
    return (image.shape == tuple(shape) and bool(np.isfinite(image).all())
            and bool((image >= 0.0).all()) and bool((image <= 1.0).all()))


def bit_identical(served: np.ndarray, direct: np.ndarray) -> bool:
    """Same dtype, shape and bytes."""
    served = np.asarray(served)
    direct = np.asarray(direct)
    return (served.dtype == direct.dtype and served.shape == direct.shape
            and served.tobytes() == direct.tobytes())


def losses_finite(history: Iterable[float]) -> bool:
    return all(math.isfinite(value) for value in history)


def loss_fell(before: Sequence[float], after: Sequence[float]) -> bool:
    """The mean of the ``after`` losses is below the mean of the
    ``before`` losses."""
    if not len(before) or not len(after):
        return False
    return float(np.mean(after)) < float(np.mean(before))


def plan_tiles(bounds: np.ndarray, height: int, width: int,
               depth: int) -> bool:
    """Do the patch boxes ``(h0, h1, w0, w1, d0, d1)`` tile the
    ``height x width x depth`` cube exactly: every cell in exactly one
    patch?

    Coordinates are compressed to the patch edges, so the coverage
    count runs on a grid of a few hundred thousand cells instead of the
    frame's tens of millions.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    if bounds.ndim != 2 or bounds.shape[1] != 6 or not len(bounds):
        return False
    lo = bounds[:, 0::2]
    hi = bounds[:, 1::2]
    extent = np.array([height, width, depth], dtype=np.int64)
    if (lo < 0).any() or (hi <= lo).any() or (hi > extent).any():
        return False
    volumes = np.prod(hi - lo, axis=1)
    if int(volumes.sum()) != int(height) * int(width) * int(depth):
        return False
    edges = [np.unique(np.concatenate(([0, extent[axis]], lo[:, axis],
                                       hi[:, axis])))
             for axis in range(3)]
    start = [np.searchsorted(edges[axis], lo[:, axis]) for axis in range(3)]
    stop = [np.searchsorted(edges[axis], hi[:, axis]) for axis in range(3)]
    corners = np.zeros([len(edge) for edge in edges], dtype=np.int64)
    for corner in range(8):
        index = tuple(stop[axis] if corner >> axis & 1 else start[axis]
                      for axis in range(3))
        sign = -1 if bin(corner).count("1") % 2 else 1
        np.add.at(corners, index, sign)
    coverage = corners.cumsum(0).cumsum(1).cumsum(2)[:-1, :-1, :-1]
    return bool((coverage == 1).all())


def simulation_consistent(total_time_s: float, engine_busy_s: float,
                          pe_utilization: float) -> bool:
    """Frame time covers the engine's busy time, and the PE pool is
    used but never more than fully."""
    return (total_time_s >= engine_busy_s
            and 0.0 < pe_utilization <= 1.0)


def same_fields(first, second, skip: Tuple[str, ...] = ("plan",)) -> bool:
    """Two dataclass instances agree exactly on every field but
    ``skip``."""
    for item in fields(first):
        if item.name in skip:
            continue
        if not getattr(first, item.name) == getattr(second, item.name):
            return False
    return True
