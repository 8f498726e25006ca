"""Footprint-restricted training encode.

Training violates the paper's gather-dominated structure in one place:
every step convolves the *full* source images even though the step's
ray bundle fetches only the bilinear corners of a few dozen projected
sample points.  This module plans the repair: given the exact set of
feature-map pixels a step will gather, walk that set backward through
the encoder's conv stack to the input receptive fields, and hand the
encoder per-layer packed gather matrices so it convolves only those
pixels (:func:`repro.nn.functional.conv2d_at`).  Per-step encode cost
then tracks rays-per-batch instead of image area — the training-side
mirror of the sparse fine pass (ISSUE 9).

Bit-exactness is the contract, and it rests on three legs:

* **Padding / stride phase.**  The gather matrices address real
  neighbour pixels wherever the full image has them and the zero
  sentinel exactly where the full conv's zero-padding reads, so the
  packed patch rows are bitwise the :func:`repro.nn.functional.im2col`
  rows at the same output positions.
* **Kernel regimes.**  A GEMM over fewer rows may run a different BLAS
  kernel with a different in-register accumulation order.  The planner
  pads each packed GEMM to a row count that
  :func:`repro.nn.regime.row_interval` calls bitwise-safe for a
  scattered subset of its dense counterpart's rows, and falls back to
  the dense encode where no count is.
* **Backward.**  Un-gathered feature pixels receive exactly-zero
  gradient, and both the dense conv backward and the packed one apply
  the same :func:`repro.nn.functional.grad_live_rows` compaction, so
  they reduce the *same* weight-gradient GEMM; the packed input
  gradient replays ``col2im``'s per-offset accumulation order.  The
  planner's ``2 * n_out < dense_rows`` guard per layer is what makes
  the shared compaction rule always fire on both sides.

Where the host fails the check of :func:`repro.nn.regime.host_matches`,
no count is bitwise-safe, so every plan falls back to the dense encode.
``Trainer(..., footprint=False)`` skips planning altogether: the
reference seam of :func:`repro.perf.reference.trainer_full_encode`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn import regime

# Process-wide counters, mirroring ``ibrnet.PACK_STATS``: how many
# training encodes ran footprint-restricted vs fell back to the dense
# conv stack (saturated footprint, infeasible kernel regime).
FOOTPRINT_STATS = {"footprint": 0, "dense": 0}


@dataclass
class LayerFootprint:
    """Packed execution recipe for one conv layer of the stack."""

    out_index: np.ndarray   # (n_out,) sorted flat indices into (S*oh*ow)
    gather: np.ndarray      # (n_out, k*k) rows into the previous level's
                            # packed rows; value n_in = zero-pad sentinel
    dense_rows: int         # S*oh*ow — the dense GEMM's row count
    pad_rows: int           # forward-GEMM regime-pinning pad
    pad_rows_grad: int      # input-gradient-GEMM regime-pinning pad


@dataclass
class FootprintPlan:
    """Backward-walked receptive-field plan for a whole conv stack."""

    layers: List[LayerFootprint]   # in execution order (conv1 first)
    input_index: np.ndarray        # (n0,) flat indices into (S*H*W)
    out_shape: Tuple[int, int, int]  # (S, Hf, Wf) of the final maps
    coverage: float                # fetched cells / total final cells


def _pad_for_regime(rows: int, dense_rows: int, k: int, n: int
                    ) -> Optional[int]:
    """Extra zero rows for a packed (rows, k) x (k, n) GEMM to be
    row-stable against its dense (dense_rows, k) x (k, n) counterpart,
    or ``None`` when no padded count is bitwise-safe (dense fallback).
    """
    interval = regime.row_interval(dense_rows, k, n, scattered=True)
    return None if interval is None else max(0, interval[0] - rows)


def _input_mask(out_mask: np.ndarray, conv, in_hw: Tuple[int, int]
                ) -> np.ndarray:
    """Input pixels any requested output of ``conv`` reads (in-bounds
    taps only; padding reads have no input pixel)."""
    in_h, in_w = in_hw
    num_views = out_mask.shape[0]
    k, stride, pad = conv.kernel, conv.stride, conv.padding
    s_idx, y_idx, x_idx = np.nonzero(out_mask)
    in_mask = np.zeros((num_views, in_h, in_w), dtype=bool)
    for ky in range(k):
        in_y = y_idx * stride - pad + ky
        for kx in range(k):
            in_x = x_idx * stride - pad + kx
            ok = ((in_y >= 0) & (in_y < in_h)
                  & (in_x >= 0) & (in_x < in_w))
            in_mask[s_idx[ok], in_y[ok], in_x[ok]] = True
    return in_mask


def _positions(mask: np.ndarray) -> Tuple[np.ndarray, int]:
    """Packed row number per True cell (np.nonzero order == ascending
    flat index, i.e. the dense path's row order), -1 elsewhere."""
    pos = np.full(mask.shape, -1, dtype=np.intp)
    count = int(mask.sum())
    pos[mask] = np.arange(count, dtype=np.intp)
    return pos, count


def _gather_matrix(s_idx: np.ndarray, y_idx: np.ndarray, x_idx: np.ndarray,
                   pos: np.ndarray, conv, sentinel: int) -> np.ndarray:
    """(n_out, k*k) input-row indices per output pixel, (ky, kx) order;
    out-of-image taps get ``sentinel`` (the zero-padding row)."""
    _, in_h, in_w = pos.shape
    k, stride, pad = conv.kernel, conv.stride, conv.padding
    gather = np.full((s_idx.size, k * k), sentinel, dtype=np.intp)
    for ky in range(k):
        in_y = y_idx * stride - pad + ky
        for kx in range(k):
            in_x = x_idx * stride - pad + kx
            ok = ((in_y >= 0) & (in_y < in_h)
                  & (in_x >= 0) & (in_x < in_w))
            gather[ok, ky * k + kx] = pos[s_idx[ok], in_y[ok], in_x[ok]]
    return gather


def plan_conv_footprint(convs: Sequence, num_views: int, height: int,
                        width: int, out_mask: np.ndarray
                        ) -> Optional[FootprintPlan]:
    """Plan a packed run of ``convs`` producing exactly ``out_mask``.

    ``convs`` is the stack in execution order (``Conv2d``-likes with
    ``kernel``/``stride``/``padding``/``in_channels``/``out_channels``
    and ``output_shape``); ``out_mask`` is the (S, Hf, Wf) boolean set
    of final-layer output pixels that must be bit-exact.  Returns
    ``None`` — dense fallback — when the footprint is empty or covers
    half or more of any layer (the shared weight-gradient compaction
    rule would stop firing on the dense side), or when a layer's GEMM
    shape cannot be regime-pinned.

    Only the *first* conv may take a gradient-free input (source
    images): input-gradient GEMMs are regime-pinned for the later
    layers only.
    """
    dims = [(height, width)]
    for conv in convs:
        dims.append(conv.output_shape(*dims[-1]))
    final_h, final_w = dims[-1]
    if out_mask.shape != (num_views, final_h, final_w):
        raise ValueError(f"out_mask shape {out_mask.shape} does not match "
                         f"({num_views}, {final_h}, {final_w})")

    masks: List[np.ndarray] = [np.empty(0)] * (len(convs) + 1)
    masks[-1] = out_mask
    for i in range(len(convs) - 1, -1, -1):
        masks[i] = _input_mask(masks[i + 1], convs[i], dims[i])

    pos_prev, n_prev = _positions(masks[0])
    input_index = np.flatnonzero(masks[0].reshape(-1))
    layers: List[LayerFootprint] = []
    for i, conv in enumerate(convs):
        out_h, out_w = dims[i + 1]
        s_idx, y_idx, x_idx = np.nonzero(masks[i + 1])
        n_out = s_idx.size
        dense_rows = num_views * out_h * out_w
        if n_out == 0 or 2 * n_out >= dense_rows:
            return None
        taps = conv.in_channels * conv.kernel * conv.kernel
        pad_rows = _pad_for_regime(n_out, dense_rows, taps,
                                   conv.out_channels)
        if pad_rows is None:
            return None
        if i > 0:
            pad_grad = _pad_for_regime(n_out, dense_rows,
                                       conv.out_channels, taps)
            if pad_grad is None:
                return None
        else:
            pad_grad = 0
        gather = _gather_matrix(s_idx, y_idx, x_idx, pos_prev, conv, n_prev)
        out_index = s_idx * (out_h * out_w) + y_idx * out_w + x_idx
        layers.append(LayerFootprint(out_index=out_index, gather=gather,
                                     dense_rows=dense_rows,
                                     pad_rows=pad_rows,
                                     pad_rows_grad=pad_grad))
        pos_prev, n_prev = _positions(masks[i + 1])
    coverage = float(out_mask.sum()) / float(out_mask.size)
    return FootprintPlan(layers=layers, input_index=input_index,
                         out_shape=(num_views, final_h, final_w),
                         coverage=coverage)
