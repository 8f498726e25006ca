"""Point sampling strategies along camera rays.

Implements the three samplers the paper compares:

* **Stratified uniform** — vanilla NeRF's base sampler (re-exported from
  :mod:`repro.geometry.rays`).
* **Hierarchical** — vanilla NeRF's two-level sampler: a coarse pass
  yields weights, a fine pass importance-samples *the same number of
  points on every ray*.  This is the IBRNet baseline's strategy.
* **Coarse-then-focus** (paper Sec. 3.2) — Gen-NeRF's sampler.  Step ①
  runs a lightweight coarse pass; Step ② filters empty/occluded regions
  by thresholding hitting probabilities w_k against tau and builds the
  sampling PDF ``P(k, j) = P(k | j) P(j)`` with ``P(j)`` proportional to
  the per-ray count of critical points; Step ③ draws a *global* budget of
  ``num_rays x N_f`` samples from that PDF via inverse-transform
  sampling, so rays through empty/occluded space receive few (possibly
  zero) points while surface rays receive many.  For batch training the
  per-ray samples are padded to ``N_max`` with an accompanying mask.

Performance note: this module is on the render critical path (the
sampler runs for every ray of every frame), so every per-ray Python
loop has been replaced with batched numpy — a flat batched
``searchsorted`` in :func:`_inverse_transform`, sort-and-pack in
:func:`focused_depths`, and a sorted-union mask dance in
:func:`merge_critical_points` — with row compression skipping the empty
rays the sampler exists to create.  ``benchmarks/harness.py`` tracks
the speedup over the seed loop implementations (kept in
:mod:`repro.perf.reference`); the equivalence suite pins bit-identical
outputs at fixed seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..geometry.rays import stratified_depths

__all__ = [
    "stratified_depths", "SampleSet", "SamplePacking", "pack_samples",
    "hierarchical_depths", "sampling_pdf", "allocate_ray_budget",
    "focused_depths", "coarse_then_focus_plan",
]

# Packed-row alignment for :func:`pack_samples`.  16 keeps every GEMM
# the packed fine pass issues on a row granularity where this
# container's OpenBLAS kernels are tail-free for all the shapes the
# models use (the strictest measured granularity is 16 rows, for the
# K=2 matrix-vector tail); it also floors the padded length so the
# f64 projection GEMM never degenerates to a single row.
PACK_ALIGN = 16


def _aligned_rows(rows: int, align: int = PACK_ALIGN) -> int:
    return max(align, ((rows + align - 1) // align) * align)


@dataclass
class SampleSet:
    """Depths plus a validity mask, the common currency of the renderers.

    ``depths`` is (R, N_max) sorted ascending within the valid prefix;
    ``mask`` is (R, N_max) with True marking real samples.  ``counts``
    gives the number of valid samples per ray.
    """

    depths: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.depths = np.asarray(self.depths, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.depths.shape != self.mask.shape:
            raise ValueError("depths and mask shapes differ")

    @property
    def counts(self) -> np.ndarray:
        return self.mask.sum(axis=-1)

    @property
    def total_points(self) -> int:
        return int(self.mask.sum())

    @staticmethod
    def dense(depths: np.ndarray) -> "SampleSet":
        depths = np.asarray(depths, dtype=np.float64)
        return SampleSet(depths, np.ones(depths.shape, dtype=bool))


@dataclass(frozen=True)
class SamplePacking:
    """Struct-of-arrays compression of a ``SampleSet.mask``.

    The sparse fine pass flattens the valid entries of an (R, N_max)
    sample grid into flat ``(V_pad, ...)`` buffers — the same
    struct-of-arrays idiom as ``TraceArrays``/``PlanArrays``.
    ``ray_index``/``point_index`` name each packed row's dense cell in
    **ray-major order** (``np.nonzero`` order), so one ray's samples
    form a contiguous segment whose length is ``counts[ray]`` and whose
    start is ``offsets[ray]``.  Rows past ``valid`` are padding: copies
    of the first valid cell, present only to keep the packed GEMMs on
    an aligned, kernel-regime-matched row count (see
    :func:`repro.nn.regime.batch_interval`); their outputs are dropped
    on scatter.
    """

    ray_index: np.ndarray    # (V_pad,) intp — dense ray of each packed row
    point_index: np.ndarray  # (V_pad,) intp — dense sample slot of each row
    valid: int               # V: real packed rows; the rest are padding
    num_rays: int            # R of the dense grid
    points_per_ray: int      # N_max of the dense grid

    @property
    def padded(self) -> int:
        """V_pad — total packed rows including alignment padding."""
        return int(self.ray_index.shape[0])

    @property
    def flat_index(self) -> np.ndarray:
        """(V,) flat dense-grid positions of the valid rows (for the
        scatter back into ``(R * N_max, ...)`` buffers)."""
        return (self.ray_index[:self.valid] * self.points_per_ray
                + self.point_index[:self.valid])

    @property
    def counts(self) -> np.ndarray:
        """(R,) per-ray segment lengths (== ``SampleSet.counts``)."""
        return np.bincount(self.ray_index[:self.valid],
                           minlength=self.num_rays)

    @property
    def offsets(self) -> np.ndarray:
        """(R + 1,) CSR-style segment starts into the packed buffers."""
        return np.concatenate([[0], np.cumsum(self.counts)])


def pack_samples(mask: np.ndarray, pad_to: Optional[int] = None
                 ) -> SamplePacking:
    """Build the packed index set for an (R, N_max) validity mask.

    ``pad_to`` raises the padded row count (it is then aligned up to
    :data:`PACK_ALIGN`); the result always has at least
    ``max(valid, pad_to, PACK_ALIGN)`` rows.  With zero valid samples
    the padding rows point at cell (0, 0).
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"mask must be (R, N_max), got shape {mask.shape}")
    rows, cols = np.nonzero(mask)
    valid = int(rows.shape[0])
    padded = _aligned_rows(max(valid, pad_to or 0))
    ray_index = np.empty(padded, dtype=np.intp)
    point_index = np.empty(padded, dtype=np.intp)
    ray_index[:valid] = rows
    point_index[:valid] = cols
    ray_index[valid:] = rows[0] if valid else 0
    point_index[valid:] = cols[0] if valid else 0
    return SamplePacking(ray_index=ray_index, point_index=point_index,
                         valid=valid, num_rays=int(mask.shape[0]),
                         points_per_ray=int(mask.shape[1]))


def _inverse_transform(bin_edges: np.ndarray, pdf: np.ndarray,
                       uniforms: np.ndarray) -> np.ndarray:
    """Sample depths from a per-ray piecewise-constant PDF.

    ``bin_edges`` (R, B+1), ``pdf`` (R, B) (need not be normalised),
    ``uniforms`` (R, K) in [0, 1).  Vectorised inverse-CDF; this is the
    software model of the accelerator's "Monte-Carlo simulator" unit
    (PDF-to-CDF converter + comparator array, Fig. 7).

    The bin lookup is batched — no per-ray Python loop.  Two exact
    strategies, picked by bin count:

    * small B (the paper's regime, N_c <= 64): count, per uniform, how
      many CDF entries are <= it.  That is literally what a right-biased
      ``searchsorted`` returns, computed as B vectorised comparisons
      over the (R, K) uniform block — linear in B but branch-free and
      cache-friendly, and *bit-identical* to the per-ray loop.
    * large B: a single flat ``searchsorted``.  Each ray's CDF spans
      exactly [0, 1] (the final division pins the last entry to 1.0),
      so offsetting ray ``r``'s CDF and uniforms by ``2 r`` makes the
      flattened CDF globally ascending and one search locates every
      (ray, uniform) pair at once.  The offset is exactly representable
      and preserves every comparison except ties within one double ulp
      of the offset magnitude (~1e-12 at R~4096), far below the PDF
      floor.

    The equivalence suite pins both against the seed loop at fixed
    seeds.
    """
    # Computation is pinned to float64 (every in-repo caller already
    # passes float64): the in-place buffer reuse below assumes one
    # dtype throughout rather than numpy's pairwise promotion rules.
    pdf = np.asarray(pdf, dtype=np.float64)
    bin_edges = np.asarray(bin_edges, dtype=np.float64)
    uniforms = np.asarray(uniforms, dtype=np.float64)
    num_rays, num_bins = pdf.shape[0], pdf.shape[-1]
    pdf = np.maximum(pdf, 0.0)
    pdf += 1e-12
    cdf = np.empty((num_rays, num_bins + 1))      # (R, B+1), built in place
    cdf[:, 0] = 0.0
    np.cumsum(pdf, axis=-1, out=cdf[:, 1:])
    np.divide(cdf[:, 1:], cdf[:, -1].copy()[:, None], out=cdf[:, 1:])
    if num_bins <= 64:
        # Column 0 is identically zero and uniforms are >= 0, so it
        # always counts; start from its contribution and accumulate the
        # remaining columns.  ``searchsorted(..., "right") - 1`` equals
        # this count minus one, and the two cancel.  uint16 counters
        # halve the accumulator's memory traffic (B <= 64 here).
        counters = np.zeros(uniforms.shape, dtype=np.uint16)
        compare_buffer = np.empty(uniforms.shape, dtype=bool)
        for column in range(1, num_bins + 1):
            np.less_equal(cdf[:, column, None], uniforms, out=compare_buffer)
            counters += compare_buffer
        indices = np.minimum(counters, num_bins - 1).astype(np.intp)
    else:
        rows_2d = np.arange(num_rays)[:, None]
        offsets = 2.0 * rows_2d
        flat_positions = np.searchsorted(
            (cdf + offsets).ravel(), (uniforms + offsets).ravel(),
            side="right")
        indices = flat_positions.reshape(uniforms.shape) - 1 \
            - rows_2d * (num_bins + 1)
        indices = np.clip(indices, 0, num_bins - 1)

    # Flat gathers (np.take on a raveled view) beat 2-D advanced
    # indexing by ~2x: one index array, contiguous reads.  The lerp
    # reuses the gathered buffers; same ops in the same order as the
    # seed, so results stay bit-identical.
    flat_indices = indices + (np.arange(num_rays) * (num_bins + 1))[:, None]
    cdf_lo = np.take(cdf, flat_indices)
    edge_lo = np.take(bin_edges, flat_indices)
    flat_indices += 1
    cdf_hi = np.take(cdf, flat_indices)
    edge_hi = np.take(bin_edges, flat_indices)
    width = np.subtract(cdf_hi, cdf_lo, out=cdf_hi)
    np.maximum(width, 1e-12, out=width)
    frac = np.subtract(uniforms, cdf_lo, out=cdf_lo)
    np.divide(frac, width, out=frac)
    span = np.subtract(edge_hi, edge_lo, out=edge_hi)
    span *= frac
    span += edge_lo
    return span


def _edges_from_centers(depths: np.ndarray, near: float,
                        far: float) -> np.ndarray:
    """Bin edges from sorted sample centres, clamped to [near, far]."""
    mids = 0.5 * (depths[..., 1:] + depths[..., :-1])
    lo = np.full(depths.shape[:-1] + (1,), near, dtype=np.float64)
    hi = np.full(depths.shape[:-1] + (1,), far, dtype=np.float64)
    return np.concatenate([lo, mids, hi], axis=-1)


def hierarchical_depths(coarse_depths: np.ndarray, coarse_weights: np.ndarray,
                        num_fine: int, near: float, far: float,
                        rng: Optional[np.random.Generator],
                        include_coarse: bool = False,
                        uniforms: Optional[np.ndarray] = None) -> np.ndarray:
    """Vanilla-NeRF fine sampling: same count on every ray (Mildenhall).

    Importance-samples ``num_fine`` depths per ray from the coarse
    weights; optionally merges the coarse depths back in (as NeRF does).
    Returns sorted (R, num_fine[+Nc]).

    ``uniforms`` (R, num_fine) replaces the rng draw when given — the
    sharded renderer pre-draws a frame's uniforms in chunk order from
    the frame rng and ships each chunk its own block, so a chunk's
    result no longer depends on its predecessors having advanced the
    stream (same values, shard-safe).
    """
    edges = _edges_from_centers(coarse_depths, near, far)
    if uniforms is None:
        uniforms = rng.random((coarse_depths.shape[0], num_fine))
    fine = _inverse_transform(edges, coarse_weights, uniforms)
    if include_coarse:
        fine = np.concatenate([fine, coarse_depths], axis=-1)
    return np.sort(fine, axis=-1)


def sampling_pdf(coarse_weights: np.ndarray, tau: float
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Paper Step ②: empty/occluded-region filtering and PDF estimation.

    Points whose hitting probability clears the threshold are *critical
    points*.  The threshold is applied to the bin-count-normalised
    probability ``w_k * N_c >= tau`` so that whether a region counts as
    critical does not depend on how finely the coarse pass happened to
    slice it (halving the bin width halves every w_k; the paper's fixed
    per-point threshold would silently reclassify regions).

    Returns ``(ray_probability P(j), point_pdf P(k|j), critical_counts)``.
    Rays with no critical point receive probability 0 — they are the
    empty/occluded rays whose budget is redistributed.  If *no* ray has a
    critical point (e.g. a camera staring into empty space), falls back to
    weight-proportional allocation so rendering still proceeds.
    """
    weights = np.asarray(coarse_weights, dtype=np.float64)
    num_bins = max(weights.shape[-1], 1)
    critical = weights * num_bins >= tau
    critical_counts = critical.sum(axis=-1)

    total_critical = critical_counts.sum()
    if total_critical > 0:
        ray_probability = critical_counts / total_critical
    else:
        mass = weights.sum(axis=-1)
        ray_probability = (mass + 1e-12) / (mass.sum() + 1e-12 * len(mass))

    point_pdf = weights + 1e-12
    point_pdf = point_pdf / point_pdf.sum(axis=-1, keepdims=True)
    return ray_probability, point_pdf, critical_counts


def allocate_ray_budget(ray_probability: np.ndarray, total_points: int,
                        n_max: int, min_points: int = 0) -> np.ndarray:
    """Integer per-ray sample counts from ``P(j)`` (largest remainder).

    Deterministic so renders are reproducible; respects ``n_max`` (the
    training-time pad bound) by redistributing clipped mass to the next
    largest-remainder rays.

    When ``min_points > 0`` the floor is paid for by stealing the excess
    back from the largest-count rays, so ``counts.sum() == total_points``
    holds whenever the budget is feasible at all, i.e.
    ``len(counts) * min_points <= total_points <= len(counts) * n_max``.
    Outside that range the nearest bound wins: an unaffordable floor
    leaves the sum above ``total_points``, and a budget exceeding the
    pad capacity saturates every ray at ``n_max``.
    """
    probability = np.asarray(ray_probability, dtype=np.float64)
    if probability.sum() <= 0:
        probability = np.ones_like(probability)
    probability = probability / probability.sum()

    raw = probability * total_points
    counts = np.floor(raw).astype(np.int64)
    counts = np.minimum(counts, n_max)
    remainder = int(total_points - counts.sum())
    if remainder > 0:
        # Largest-remainder rays with headroom each take one point.
        fractional = np.where(counts < n_max, raw - np.floor(raw), -1.0)
        order = np.argsort(fractional)[::-1]
        chosen = order[counts[order] < n_max][:remainder]
        counts[chosen] += 1
        remainder -= len(chosen)
        if remainder > 0:  # everything saturated at n_max
            room = n_max - counts
            order = np.argsort(room)[::-1]
            # Greedy fill in room order == clip the running remainder
            # against each ray's headroom (prefix-sum formulation).
            room_sorted = room[order]
            taken_before = np.concatenate(
                [[0], np.cumsum(room_sorted)[:-1]])
            take = np.clip(remainder - taken_before, 0, room_sorted)
            counts[order] += take
            remainder -= int(take.sum())
    if min_points > 0:
        counts = np.maximum(counts, min_points)
        excess = int(counts.sum() - total_points)
        if excess > 0 and total_points >= min_points * len(counts):
            # The floor pushed us over the global R x N_f budget: steal
            # the excess back from the largest-count rays (level by
            # level, deterministically) until the sum is exact again.
            while excess > 0:
                stealable = counts > min_points
                ceiling = counts[stealable].max()
                victims = np.flatnonzero(stealable & (counts == ceiling))
                take = min(excess, len(victims))
                counts[victims[:take]] -= 1
                excess -= take
    return counts


def focused_depths(coarse_depths: np.ndarray, point_pdf: np.ndarray,
                   counts: np.ndarray, n_max: int, near: float, far: float,
                   rng: np.random.Generator) -> SampleSet:
    """Paper Step ③: inverse-transform sampling of per-ray focused points.

    Each ray j draws ``counts[j]`` depths from its piecewise-constant
    ``P(k|j)``; results are sorted, left-packed, and padded to ``n_max``.
    """
    num_rays = coarse_depths.shape[0]
    counts = np.minimum(np.asarray(counts, dtype=np.int64), n_max)
    edges = _edges_from_centers(coarse_depths, near, far)
    max_count = int(counts.max()) if len(counts) else 0
    depths = np.full((num_rays, n_max), far, dtype=np.float64)
    mask = np.zeros((num_rays, n_max), dtype=bool)
    if max_count == 0:
        return SampleSet(depths, mask)

    # The uniforms are drawn for every ray up front (fixed rng stream,
    # reproducible regardless of the later compression), but the
    # transform only runs on rays with a nonzero budget — under focused
    # sampling most rays are empty, which is the point of the paper's
    # sampler and of skipping them here.
    uniforms = rng.random((num_rays, max_count))
    active = counts > 0
    active_counts = counts[active]
    samples = _inverse_transform(edges[active], point_pdf[active],
                                 uniforms[active])
    # Keep each active ray's first c draws *before* sorting — the draws
    # are i.i.d., so any prefix is an unbiased sample; sorting first
    # would keep only the nearest depths.  Vectorised: push the unused
    # draws to +inf and sort each row once, so the kept draws land
    # sorted in the leading columns exactly where the prefix mask
    # expects them.
    valid = np.arange(max_count)[None, :] < active_counts[:, None]
    packed = np.sort(np.where(valid, samples, np.inf), axis=-1)
    depths[active, :max_count] = np.where(valid, packed, far)
    mask[:, :max_count] = np.arange(max_count)[None, :] < counts[:, None]
    return SampleSet(depths, mask)


def merge_critical_points(plan: SampleSet, coarse_depths: np.ndarray,
                          coarse_weights: np.ndarray, tau: float,
                          n_max: int, far: float) -> SampleSet:
    """Merge critical coarse samples (w_k >= tau) into the focused set.

    Mirrors hierarchical NeRF's reuse of coarse locations: the coarse
    pass already found these depths to matter, so the fine model
    evaluates them too.  ``tau`` is on the bin-normalised probability,
    matching :func:`sampling_pdf`.  Per ray the union is sorted and truncated to
    ``n_max`` (dropping the farthest extras).  The paper's FLOPs
    accounting reflects this: a 16/48 configuration costs ~64 full-model
    points per ray (Table 2) and Fig. 9 counts 8/16 as 24 points.
    """
    weights = np.asarray(coarse_weights)
    critical = weights * max(weights.shape[-1], 1) >= tau
    num_rays = plan.depths.shape[0]
    depths = np.full((num_rays, n_max), far, dtype=np.float64)
    mask = np.zeros((num_rays, n_max), dtype=bool)
    # Rays with neither focused samples nor critical coarse points stay
    # all-padding; only the active subset is merged (most rays are empty
    # under focused sampling).
    active = plan.mask.any(axis=-1) | critical.any(axis=-1)
    if not active.any():
        return SampleSet(depths, mask)
    # Vectorised per-ray sorted-union: pad invalid entries to +inf, sort
    # each row once, drop duplicates by masking repeats back to +inf and
    # re-sorting (== np.unique on the finite prefix, left-packed), with
    # no per-ray sort/unique loop.
    plan_width = plan.depths.shape[1]
    candidates = np.full(
        (int(active.sum()), plan_width + coarse_depths.shape[1]), np.inf)
    np.copyto(candidates[:, :plan_width], plan.depths[active],
              where=plan.mask[active])
    np.copyto(candidates[:, plan_width:], coarse_depths[active],
              where=critical[active])
    candidates.sort(axis=-1)
    keep = np.isfinite(candidates)
    keep[:, 1:] &= candidates[:, 1:] != candidates[:, :-1]
    counts = np.minimum(keep.sum(axis=-1), n_max)
    np.copyto(candidates, np.inf, where=~keep)
    candidates.sort(axis=-1)
    packed = candidates[:, :n_max]
    width = packed.shape[1]
    active_mask = np.arange(width)[None, :] < counts[:, None]
    depths[active, :width] = np.where(active_mask, packed, far)
    mask[active] = np.arange(n_max)[None, :] < counts[:, None]
    return SampleSet(depths, mask)


def coarse_then_focus_plan(coarse_depths: np.ndarray,
                           coarse_weights: np.ndarray, num_focused_avg: int,
                           n_max: int, tau: float, near: float, far: float,
                           rng: Optional[np.random.Generator] = None,
                           merge_critical: bool = True) -> SampleSet:
    """The full Steps ②-③ pipeline given coarse-pass weights.

    ``num_focused_avg`` is N_f, the average focused points per ray; the
    global budget is ``R x N_f`` redistributed by the estimated PDF.
    With ``merge_critical`` the critical coarse samples are folded into
    the result (see :func:`merge_critical_points`).
    """
    gen = rng or np.random.default_rng(0)
    num_rays = coarse_depths.shape[0]
    ray_probability, point_pdf, _ = sampling_pdf(coarse_weights, tau)
    budget = num_focused_avg * num_rays
    counts = allocate_ray_budget(ray_probability, budget, n_max)
    plan = focused_depths(coarse_depths, point_pdf, counts, n_max, near, far,
                          gen)
    if merge_critical:
        plan = merge_critical_points(plan, coarse_depths, coarse_weights,
                                     tau, n_max, far)
    return plan
