"""Functional operations built on :class:`repro.nn.tensor.Tensor`.

These mirror the subset of ``torch.nn.functional`` that the Gen-NeRF
algorithm stack needs: activations, softmax (for the ray-transformer
baseline and IBRNet's visibility-style pooling), layer norm, masked ops
(for padded focused samples), and the MSE training loss from paper Eq. 3.

Performance note: the training hot path runs through :func:`linear`,
:func:`softmax` / :func:`masked_softmax`, and :func:`mse_loss`, and the
feature fetch through :func:`bilinear_rows`, so these are *fused* ops —
each records a single graph node whose backward is one closed-form
closure, instead of composing 3-5 elementwise autograd nodes with their
temporary arrays.  ``nn.Linear`` (hence ``nn.MLP``) and the
ray-transformer attention route through them; ``benchmarks/harness.py``
tracks the training-step timing.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .tensor import (Tensor, as_tensor, concatenate, grad_enabled,  # noqa: F401
                     stack, unbroadcast, where)
from .tensor import _node, _plain, _scatter_add_rows


def relu(x: Tensor) -> Tensor:
    return as_tensor(x).relu()


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    return as_tensor(x).elu(alpha)


def sigmoid(x: Tensor) -> Tensor:
    return as_tensor(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    return as_tensor(x).tanh()


def softplus(x: Tensor) -> Tensor:
    return as_tensor(x).softplus()


def exp(x: Tensor) -> Tensor:
    return as_tensor(x).exp()


def log(x: Tensor) -> Tensor:
    return as_tensor(x).log()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``.

    Fused: a single graph node with the closed-form backward
    ``y * (g - sum(g * y))`` instead of the exp/sum/divide composition.
    """
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out_data = exps / exps.sum(axis=axis, keepdims=True)
    if not x._tracked():
        return _plain(out_data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            inner = (g * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(out_data * (g - inner))

    return _node(out_data, (x,), backward)


def masked_softmax(x: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax that assigns zero probability where ``mask`` is False.

    Used by the ray transformer when focused sampling pads rays to
    ``N_max``: padded points must not attend or be attended to.  Fused
    like :func:`softmax`; masked entries have zero output, so the same
    closed-form backward routes them zero gradient.
    """
    x = as_tensor(x)
    mask = np.asarray(mask, dtype=bool)
    if mask.all():
        # All-valid masks are the common case on dense renders; adding
        # a zero bias and multiplying by 1.0 are bit-exact identities,
        # so skip those passes (the +1e-12 denominator stays).
        shifted = x.data - x.data.max(axis=axis, keepdims=True)
        exps = np.exp(shifted)
    else:
        neg = np.where(mask, 0.0, -1e9).astype(x.dtype)
        shifted = x.data + neg
        shifted = shifted - shifted.max(axis=axis, keepdims=True)
        exps = np.exp(shifted) * mask.astype(x.dtype)
    out_data = exps / (exps.sum(axis=axis, keepdims=True) + 1e-12)
    if not x._tracked():
        return _plain(out_data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            inner = (g * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(unbroadcast(out_data * (g - inner), x.shape))

    return _node(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis."""
    x = as_tensor(x)
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normed = (x - mu) / (var + eps).sqrt()
    return normed * gamma + beta


def mse_loss(prediction: Tensor, target) -> Tensor:
    """Mean-square error, paper Eq. 3 (averaged rather than summed).

    Fused: sub/square/mean collapse into one node whose backward is
    ``2 * diff / N`` — the training loop's every-step op builds one graph
    node instead of four.
    """
    prediction = as_tensor(prediction)
    diff = prediction.data - as_tensor(target).data
    out_data = np.asarray((diff * diff).mean(), dtype=prediction.dtype)
    if not prediction._tracked():
        return _plain(out_data)
    scale = 2.0 / max(diff.size, 1)

    def backward(g: np.ndarray) -> None:
        if prediction.requires_grad:
            prediction._accumulate(
                unbroadcast((g * scale) * diff, prediction.shape))

    return _node(out_data, (prediction,), backward)


def masked_mse_loss(prediction: Tensor, target, mask: np.ndarray) -> Tensor:
    """MSE over valid entries only; padded focused samples carry no loss."""
    prediction = as_tensor(prediction)
    target = as_tensor(target)
    mask_arr = np.asarray(mask, dtype=prediction.dtype)
    diff = (prediction - target.detach()) * Tensor(mask_arr)
    denom = float(mask_arr.sum()) if mask_arr.sum() > 0 else 1.0
    return (diff * diff).sum() * (1.0 / denom)


def dropout(x: Tensor, rate: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or rate==0."""
    x = as_tensor(x)
    if not training or rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep
    return x * Tensor(mask)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ W + b`` with ``W`` of shape (in, out).

    Fused: matmul and bias-add record a single graph node with one
    backward closure (``gx = g W^T``, ``gW = x^T g`` summed over batch
    axes, ``gb = sum(g)``), halving the node and temporary churn of the
    training loop's dominant op.  Falls back to composed ops for
    non-matrix weights.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    if weight.ndim != 2 or x.ndim == 0:
        out = x @ weight
        return out + bias if bias is not None else out
    bias_t = as_tensor(bias) if bias is not None else None

    # Batched (..., in) inputs flatten to one (N, in) GEMM: numpy's
    # stacked matmul dispatches a BLAS call per leading-axis matrix,
    # which for the model's small per-ray matrices is call-overhead
    # bound; a single large GEMM also lets the weight gradient skip the
    # per-batch (B, in, out) intermediate and its reduction.
    batch_shape = x.data.shape[:-1]
    x2d = x.data.reshape(-1, x.data.shape[-1]) if x.data.ndim > 2 else x.data
    out_data = x2d @ weight.data
    if bias_t is not None:
        out_data = out_data + bias_t.data
    if x.data.ndim > 2:
        out_data = out_data.reshape(batch_shape + (weight.data.shape[1],))
    if not x._tracked(weight, *(() if bias_t is None else (bias_t,))):
        return _plain(out_data)

    def backward(g: np.ndarray) -> None:
        g2d = g.reshape(-1, g.shape[-1]) if g.ndim > 2 else g
        if x.requires_grad:
            gx = g2d @ weight.data.T
            x._accumulate(unbroadcast(gx.reshape(g.shape[:-1] + (x.data.shape[-1],))
                                      if g.ndim > 2 else gx, x.shape))
        if weight.requires_grad:
            if x.data.ndim == 1:
                gw = np.multiply.outer(x.data, g)
            else:
                gw = x2d.T @ g2d
            weight._accumulate(unbroadcast(np.asarray(gw), weight.shape))
        if bias_t is not None and bias_t.requires_grad:
            gb = g2d.sum(axis=0) if g2d.ndim > 1 else g2d
            bias_t._accumulate(unbroadcast(gb, bias_t.shape))

    parents = (x, weight) if bias_t is None else (x, weight, bias_t)
    return _node(out_data, parents, backward)


def pad_last_axes(x: Tensor, pad: Sequence[tuple], value: float = 0.0) -> Tensor:
    """Constant-pad trailing axes; gradient flows to the unpadded region."""
    x = as_tensor(x)
    widths = [(0, 0)] * (x.ndim - len(pad)) + list(pad)
    out_data = np.pad(x.data, widths, constant_values=value)
    if not x._tracked():
        return _plain(out_data)
    slicer = tuple(slice(lo, out_data.shape[i] - hi)
                   for i, (lo, hi) in enumerate(widths))

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g[slicer])

    return _node(out_data, (x,), backward)


def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Axis-0 rows of ``x`` at integer ``index`` — the packing gather.

    Fused equivalent of ``x[index]`` for integer row indices: one graph
    node whose backward is the bincount-based scatter-add (duplicate
    indices accumulate), instead of ``__getitem__``'s generic fancy-index
    node.  Under :class:`repro.nn.inference_mode` it returns a plain
    tensor — no graph, no closure — which is how the sparse fine pass
    uses it (see :mod:`repro.models.ibrnet`).
    """
    x = as_tensor(x)
    index = np.asarray(index, dtype=np.intp)
    out_data = x.data[index]
    if not x._tracked():
        return _plain(out_data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(_scatter_add_rows(index, g, x.data.shape,
                                            x.data.dtype))

    return _node(out_data, (x,), backward)


def bilinear_rows(x: Tensor, rows: np.ndarray, fx: np.ndarray,
                  fy: np.ndarray) -> Tensor:
    """Bilinear interpolation from four row gathers of ``x`` — the fetch.

    ``x`` is (..., C); its leading axes flatten to (M, C) and ``rows`` is
    a (4, ...) integer array of rows in that flattening for the corners
    (y0, x0), (y0, x1), (y1, x0) and (y1, x1), named 00, 01, 10 and 11.
    ``fx`` and ``fy`` are float32 fractions of shape
    ``rows.shape[1:] + (1,)``.  Every row must be in ``[0, M)``.  The
    result is (rows.shape[1:] + (C,)), computed as

        top = f00*(1-fx) + f01*fx;  bottom = f10*(1-fx) + f11*fx
        out = top*(1-fy) + bottom*fy

    one float32 operation per product and per sum, which is the lerp of
    :func:`repro.models.features.bilinear_gather`, so the bits agree.
    Each corner is read with ``np.take`` and the lerp runs in place in
    three reused buffers (the first is the output), instead of the
    thirteen temporaries the composed expression allocates.

    One fused node: the backward weights the output gradient by the
    same factors, scatter-adds each corner with the bincount scatter
    and sums the four in float32 in corner order 00, 01, 10, 11 — the
    accumulation the composed 14-node graph performs.  A plain ndarray
    ``x`` (or inference mode) returns a graph-free tensor.
    """
    x = as_tensor(x)
    flat = x.data.reshape(-1, x.data.shape[-1])
    rows = np.asarray(rows, dtype=np.intp)
    wx, wy = 1.0 - fx, 1.0 - fy
    out = np.take(flat, rows[0], axis=0)
    out *= wx
    right = np.take(flat, rows[1], axis=0)
    right *= fx
    out += right
    # mode="clip" lets take write into ``out=`` unbuffered ("raise"
    # buffers it); the rows are in range, so nothing is clipped.
    bottom = np.take(flat, rows[2], axis=0, out=right, mode="clip")
    bottom *= wx
    right = np.take(flat, rows[3], axis=0)
    right *= fx
    bottom += right
    out *= wy
    bottom *= fy
    out += bottom
    if not x._tracked():
        return _plain(out)
    flat_shape = flat.shape

    def backward(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        total = _scatter_add_rows(rows[0], (g * wy) * wx, flat_shape,
                                  x.dtype)
        for corner, weight_y, weight_x in ((1, wy, fx), (2, fy, wx),
                                           (3, fy, fx)):
            total += _scatter_add_rows(rows[corner], (g * weight_y) * weight_x,
                                       flat_shape, x.dtype)
        x._accumulate(total.reshape(x.shape))

    return _node(out, (x,), backward)


def scatter_rows(x: Tensor, index: np.ndarray, num_rows: int) -> Tensor:
    """Scatter ``x``'s axis-0 rows into a zero tensor of ``num_rows`` rows.

    ``out[index[i]] = x[i]``; every row of the output not named by
    ``index`` is exactly ``+0.0``.  ``index`` must be unique (the packed
    fine pass scatters each valid sample to its own padded slot; with
    duplicates numpy's last-write-wins applies and the backward would
    overcount).  Gradient flows only to the scattered rows — backward is
    the plain gather ``g[index]`` — and under
    :class:`repro.nn.inference_mode` no graph is recorded, keeping the
    op autograd- and inference-clean in both modes.
    """
    x = as_tensor(x)
    index = np.asarray(index, dtype=np.intp)
    out_data = np.zeros((num_rows,) + x.data.shape[1:], dtype=x.data.dtype)
    out_data[index] = x.data
    if not x._tracked():
        return _plain(out_data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g[index])

    return _node(out_data, (x,), backward)


def im2col(images: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Rearrange (B, C, H, W) into (B, out_h*out_w, C*k*k) patches.

    Pure-numpy strided gather used by :class:`repro.nn.layers.Conv2d`; the
    same rearrangement is how the accelerator's systolic arrays consume
    convolutions as GEMMs, so keeping it explicit documents the mapping.
    """
    batch, channels, height, width = images.shape
    if padding:
        images = np.pad(images,
                        ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    strides = images.strides
    shape = (batch, channels, out_h, out_w, kernel, kernel)
    view = np.lib.stride_tricks.as_strided(
        images,
        shape=shape,
        strides=(strides[0], strides[1],
                 strides[2] * stride, strides[3] * stride,
                 strides[2], strides[3]),
        writeable=False,
    )
    # (B, out_h, out_w, C, k, k) -> (B, out_h*out_w, C*k*k)
    cols = view.transpose(0, 2, 3, 1, 4, 5).reshape(
        batch, out_h * out_w, channels * kernel * kernel)
    return np.ascontiguousarray(cols), out_h, out_w


def col2im(cols: np.ndarray, image_shape, kernel: int, stride: int,
           padding: int) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add patches back into an image."""
    batch, channels, height, width = image_shape
    padded_h = height + 2 * padding
    padded_w = width + 2 * padding
    out_h = (padded_h - kernel) // stride + 1
    out_w = (padded_w - kernel) // stride + 1
    images = np.zeros((batch, channels, padded_h, padded_w), dtype=cols.dtype)
    cols6 = cols.reshape(batch, out_h, out_w, channels, kernel, kernel)
    for ky in range(kernel):
        y_max = ky + stride * out_h
        for kx in range(kernel):
            x_max = kx + stride * out_w
            images[:, :, ky:y_max:stride, kx:x_max:stride] += (
                cols6[:, :, :, :, ky, kx].transpose(0, 3, 1, 2))
    if padding:
        images = images[:, :, padding:-padding, padding:-padding]
    return images


def grad_live_rows(g2d: np.ndarray, dense_rows: int) -> Optional[np.ndarray]:
    """Rows of ``g2d`` carrying any nonzero gradient, when compacting pays.

    The conv weight/bias gradient skips exactly-zero gradient rows when
    fewer than half of ``dense_rows`` are live; returns ``None`` when the
    dense GEMM should run unchanged.  Training gradients are sparse in
    feature-map pixels (only gathered bilinear corners receive gradient),
    so this makes the backward GEMM cost track the fetched footprint.

    Both the dense conv backward (:class:`repro.nn.layers.Conv2d`) and
    the footprint-restricted :func:`conv2d_at` apply this same rule
    against the *dense* row count — that is what keeps their weight
    gradients bit-identical: they reduce the same compacted GEMM rather
    than two differently shaped ones (OpenBLAS's reduction blocking
    depends on the row count, so dropping zero rows is not a bitwise
    no-op).
    """
    rows = np.flatnonzero(np.any(g2d != 0, axis=1))
    if rows.size * 2 < dense_rows:
        return rows
    return None


def conv2d_at(x: Tensor, gather: np.ndarray, weight: Tensor,
              bias: Optional[Tensor], dense_rows: int, pad_rows: int = 0,
              pad_rows_grad: int = 0,
              cols: Optional[np.ndarray] = None) -> Tensor:
    """Convolution restricted to a packed set of output pixels.

    ``x`` holds the *input* pixels the requested outputs depend on, one
    row per pixel, channels last (``(n_in, C)``).  ``gather`` maps each
    output pixel to its ``k*k`` input rows in ``(ky, kx)`` order, with
    the out-of-range sentinel ``n_in`` standing in for the zeros the
    full image's padding would supply — so crop borders read real
    neighbours exactly where the full conv does and zero-pad exactly
    where it does.  The patch rows this builds are bitwise the rows
    :func:`im2col` would produce at the same output positions, which is
    what makes the footprint-restricted encode byte-identical to the
    dense one (see :mod:`repro.models.footprint` for the planner and
    the kernel-regime reasoning behind ``pad_rows``/``pad_rows_grad``).

    ``cols`` short-circuits patch assembly with pre-gathered im2col rows
    (the :func:`repro.nn.layers.shared_patch_rows` cache hit); it must
    contain exactly the rows ``gather`` would build.

    The weight/bias gradient applies :func:`grad_live_rows` against
    ``dense_rows`` — the caller must guarantee ``2 * n_out <
    dense_rows`` so the dense backward would compact too; the input
    gradient replays :func:`col2im`'s per-offset accumulation order so
    skipped zero contributions are bitwise no-ops.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    bias_t = as_tensor(bias) if bias is not None else None
    gather = np.asarray(gather, dtype=np.intp)
    n_out, taps = gather.shape
    n_in, channels = x.data.shape
    if cols is None:
        ext = np.concatenate(
            [x.data, np.zeros((1, channels), dtype=x.data.dtype)])
        # (n_out, k*k, C) -> the channel-major (C, ky, kx) patch layout
        # im2col produces.
        cols = np.ascontiguousarray(
            ext[gather].transpose(0, 2, 1)).reshape(n_out, -1)
    if pad_rows:
        # Row count chosen by the planner so this GEMM runs in the same
        # BLAS kernel regime as its dense counterpart; pad contents are
        # irrelevant (rows are independent) and the rows are sliced off.
        cols_g = np.concatenate(
            [cols, np.zeros((pad_rows, cols.shape[1]), dtype=cols.dtype)])
    else:
        cols_g = cols
    out2d = cols_g @ weight.data
    if bias_t is not None:
        out2d = out2d + bias_t.data
    out_data = out2d[:n_out] if pad_rows else out2d
    if not x._tracked(weight, *(() if bias_t is None else (bias_t,))):
        return _plain(out_data)

    def backward(g: np.ndarray) -> None:
        g2d = np.ascontiguousarray(g)
        if weight.requires_grad or (bias_t is not None
                                    and bias_t.requires_grad):
            rows = grad_live_rows(g2d, dense_rows)
            if rows is None:  # unreachable under the planner's row guard
                rows = np.arange(n_out, dtype=np.intp)
            g_live = g2d[rows]
            if weight.requires_grad:
                weight._accumulate(cols[rows].T @ g_live)
            if bias_t is not None and bias_t.requires_grad:
                bias_t._accumulate(g_live.sum(axis=0))
        if x.requires_grad:
            if pad_rows_grad:
                g_pad = np.concatenate(
                    [g2d, np.zeros((pad_rows_grad, g2d.shape[1]),
                                   dtype=g2d.dtype)])
            else:
                g_pad = g2d
            gcols = g_pad @ weight.data.T
            if pad_rows_grad:
                gcols = gcols[:n_out]
            gcols3 = gcols.reshape(n_out, channels, taps)
            grad_in = np.zeros((n_in, channels), dtype=g2d.dtype)
            # Mirror col2im's accumulation order: one scatter pass per
            # kernel offset in (ky, kx) order.  Within a pass the
            # offset's output->input map is one-to-one, so fancy += is
            # exact; the full path's extra contributions are exact
            # zeros, which cannot flip bits of a +0.0-seeded
            # accumulator.
            for off in range(taps):
                target = gather[:, off]
                valid = target < n_in
                grad_in[target[valid]] += gcols3[valid, :, off]
            x._accumulate(grad_in)

    parents = (x, weight) if bias_t is None else (x, weight, bias_t)
    return _node(out_data, parents, backward)


def linear_split(xs: Sequence[Tensor], weight: Tensor,
                 bias: Optional[Tensor] = None) -> Tensor:
    """``concatenate(xs, -1) @ W + b`` without materialising the concat.

    The weight's input rows are partitioned by the inputs' trailing
    widths and each input multiplies its own slice; inputs may be
    *broadcast* along leading axes (e.g. per-ray pooled statistics fed
    next to per-view latents), in which case their partial product is
    computed once at their own shape and broadcast-added — the render
    path's aggregation MLPs skip both the (S, R, P, sum_widths) concat
    copy and the S-fold duplicate GEMMs this way.  One fused graph
    node; the backward routes ``g @ W_slice^T`` to each input
    (unbroadcast over expanded axes) and per-slice weight gradients
    ``x^T g`` (summing ``g`` over axes the input was broadcast along).

    Note: the summation order differs from the concatenated GEMM, so
    results match :func:`linear` to float tolerance, not bit-for-bit;
    grad- and inference-mode share this code path, so the two modes
    remain bit-identical to each other.
    """
    xs = [as_tensor(x) for x in xs]
    weight = as_tensor(weight)
    bias_t = as_tensor(bias) if bias is not None else None
    widths = [x.shape[-1] for x in xs]
    if sum(widths) != weight.shape[0]:
        raise ValueError(f"input widths {widths} do not partition weight "
                         f"rows {weight.shape[0]}")
    offsets = np.cumsum([0] + widths)

    out_data = None
    partials = []
    for x, start, stop in zip(xs, offsets[:-1], offsets[1:]):
        w_slice = weight.data[start:stop]
        x2d = x.data.reshape(-1, x.data.shape[-1]) if x.data.ndim > 2 \
            else x.data
        part = x2d @ w_slice
        if x.data.ndim > 2:
            part = part.reshape(x.data.shape[:-1] + (weight.data.shape[1],))
        partials.append(part)
        out_data = part if out_data is None else out_data + part
    if bias_t is not None:
        out_data = out_data + bias_t.data

    tracked = grad_enabled() and (weight.requires_grad
                                  or any(x.requires_grad for x in xs)
                                  or (bias_t is not None
                                      and bias_t.requires_grad))
    if not tracked:
        return _plain(out_data)

    def backward(g: np.ndarray) -> None:
        g2d = g.reshape(-1, g.shape[-1]) if g.ndim > 2 else g
        grad_w = None
        for x, start, stop in zip(xs, offsets[:-1], offsets[1:]):
            w_slice = weight.data[start:stop]
            if x.requires_grad:
                gx = g2d @ w_slice.T
                if g.ndim > 2:
                    gx = gx.reshape(g.shape[:-1] + (w_slice.shape[0],))
                x._accumulate(unbroadcast(gx, x.shape))
            if weight.requires_grad:
                # Sum g over axes this input was broadcast along, then
                # one (in_i, N) x (N, out) product per slice.
                extra = g.ndim - x.data.ndim
                g_for_w = g
                if extra > 0:
                    g_for_w = g.sum(axis=tuple(range(extra)))
                # Axes where x has size 1 but g doesn't:
                axes = tuple(i for i in range(x.data.ndim - 1)
                             if x.data.shape[i] == 1
                             and g_for_w.shape[i] != 1)
                if axes:
                    g_for_w = g_for_w.sum(axis=axes, keepdims=True)
                gw2d = g_for_w.reshape(-1, g.shape[-1])
                x2d = x.data.reshape(-1, x.data.shape[-1])
                if grad_w is None:
                    grad_w = np.empty_like(weight.data)
                grad_w[start:stop] = x2d.T @ gw2d
        if weight.requires_grad and grad_w is not None:
            weight._accumulate(grad_w)
        if bias_t is not None and bias_t.requires_grad:
            gb = g2d.sum(axis=0) if g2d.ndim > 1 else g2d
            bias_t._accumulate(unbroadcast(gb, bias_t.shape))

    parents = tuple(xs) + ((weight,) if bias_t is None else (weight, bias_t))
    return _node(out_data, parents, backward)
