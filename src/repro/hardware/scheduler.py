"""Workload scheduler: greedy 3D-point-patch partition (paper Sec. 4.3).

The H x W x D workload cube (pixels x pixels x depth bins) is divided
into point patches processed one prefetch at a time.  For each *local
region* (a macro tile of the image times the full depth range — "the
same number of 3D sampled points" per region, as the paper specifies)
the scheduler evaluates M candidate patch shapes {dh, dw, dd}: each
candidate's frusta are projected onto every source view (the *vertex
projector*), the covered tetragon areas estimate the prefetch bytes (the
*area calculator*), and the shape minimising bytes-per-point wins (the
*area comparator*) subject to the paper's two constraints:

1. patches at the same (h, w) share one partition across depth — here by
   construction, since a candidate fixes (dh, dw) for a whole region;
2. a patch's prefetch bytes must fit the prefetch buffer.

The run-time cost of scheduling itself is modelled
(:meth:`GreedyPatchScheduler.scheduling_cycles`) so the claim that the
scheduler keeps ahead of the rendering engine is testable.

``fixed_partition`` provides Fig. 12's Var-1 baseline: constant
{k, k, D} patches sliced along rows/columns with the largest k that fits
the buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.camera import Camera
from .interleave import FeatureStore, FootprintRegion, regions_as_array
from .units import KB


@dataclass(frozen=True)
class PatchShape:
    """A candidate patch shape in workload-cube units."""

    dh: int
    dw: int
    dd: int

    @property
    def cells(self) -> int:
        return self.dh * self.dw * self.dd


DEFAULT_CANDIDATES: Tuple[PatchShape, ...] = (
    PatchShape(32, 32, 8),
    PatchShape(32, 32, 16),
    PatchShape(16, 16, 16),
    PatchShape(16, 16, 64),
    PatchShape(8, 8, 64),
    PatchShape(16, 32, 16),
    PatchShape(32, 16, 16),
)


@dataclass(frozen=True)
class SchedulerConfig:
    """Static configuration of the partition."""

    depth_bins: int = 64
    macro_tile: int = 32
    candidates: Tuple[PatchShape, ...] = DEFAULT_CANDIDATES
    buffer_bytes: int = 256 * KB
    feature_scale: float = 0.5
    channels: int = 32
    bytes_per_element: int = 1
    guard_band: float = 2.0     # bilinear guard ring in feature pixels

    def __post_init__(self):
        for cand in self.candidates:
            if self.macro_tile % cand.dh or self.macro_tile % cand.dw:
                raise ValueError(f"candidate {cand} does not tile the "
                                 f"{self.macro_tile}px macro tile")
            if self.depth_bins % cand.dd:
                raise ValueError(f"candidate {cand} does not divide "
                                 f"depth_bins={self.depth_bins}")


@dataclass
class Patch:
    """One scheduled point patch.

    ``footprints`` describe the DRAM-visible *delta* regions actually
    fetched (after on-chip reuse of the previous slab's overlap);
    ``resident_footprints`` the full per-view regions resident in the
    prefetch buffer while the patch computes — the interpolator's SRAM
    reads spread over the banks holding these.
    """

    h0: int
    h1: int
    w0: int
    w1: int
    d0: int
    d1: int
    prefetch_bytes: float
    footprints: List[FootprintRegion]
    resident_footprints: List[FootprintRegion] = field(default_factory=list)

    def __post_init__(self):
        if not self.resident_footprints:
            self.resident_footprints = list(self.footprints)

    @property
    def num_pixels(self) -> int:
        return (self.h1 - self.h0) * (self.w1 - self.w0)

    @property
    def num_depth_bins(self) -> int:
        return self.d1 - self.d0


@dataclass
class PlanArrays:
    """Struct-of-arrays view of a frame plan.

    This is the representation the batched frame simulator consumes
    directly (``GenNerfAccelerator._simulate_patches``): patch bounds
    and prefetch bytes as flat arrays, and the per-view footprints as
    the concatenated (N, 5) ``(view, row0, row1, col0, col1)`` region
    rows with per-patch segment counts that
    :func:`repro.hardware.interleave.batched_bank_load` takes.
    """

    bounds: np.ndarray            # (P, 6) int64: h0, h1, w0, w1, d0, d1
    prefetch_bytes: np.ndarray    # (P,) float64
    fetch_regions: np.ndarray     # (N, 5) int64 delta-fetch regions
    fetch_counts: np.ndarray      # (P,) int64 regions per patch
    resident_regions: np.ndarray  # (M, 5) int64 resident regions
    resident_counts: np.ndarray   # (P,) int64

    @property
    def num_patches(self) -> int:
        return self.bounds.shape[0]


class FramePlan:
    """Output of scheduling one frame.

    Struct-of-arrays first: both planners,
    :meth:`GreedyPatchScheduler.plan_frame` and :func:`fixed_partition`,
    build the flat :class:`PlanArrays` directly and the batched frame
    simulation consumes them without ever constructing Python objects;
    the ``patches`` list of :class:`Patch`/:class:`FootprintRegion`
    objects is materialised **on demand** (and cached) for object
    consumers — the seed simulation loop, tests, diagnostics.  Plans
    can equally be built *from* an object list (``patches=``, used by
    the seed planners in :mod:`repro.perf.reference`), in which case
    the array view is derived lazily; both representations describe the
    same plan bit for bit
    (``tests/hardware/test_scheduler_equivalence.py``).
    """

    def __init__(self, patches: Optional[List[Patch]] = None,
                 total_prefetch_bytes: float = 0.0,
                 candidate_histogram: Optional[Dict[PatchShape, int]] = None,
                 image_height: int = 0, image_width: int = 0,
                 depth_bins: int = 0,
                 arrays: Optional[PlanArrays] = None):
        if patches is None and arrays is None:
            raise ValueError("FramePlan needs patches or arrays")
        self._patches = patches
        self._arrays = arrays
        self.total_prefetch_bytes = total_prefetch_bytes
        self.candidate_histogram = candidate_histogram or {}
        self.image_height = image_height
        self.image_width = image_width
        self.depth_bins = depth_bins

    # ------------------------------------------------------------------
    @property
    def num_patches(self) -> int:
        if self._arrays is not None:
            return self._arrays.num_patches
        return len(self._patches)

    @property
    def patches(self) -> List[Patch]:
        """Patch objects, materialised from the arrays on first use."""
        if self._patches is None:
            self._patches = self._materialise_patches()
        return self._patches

    @property
    def arrays(self) -> PlanArrays:
        """Flat arrays, derived from the object list on first use."""
        if self._arrays is None:
            self._arrays = self._pack_arrays()
        return self._arrays

    def bytes_per_cube_cell(self) -> float:
        cells = self.image_height * self.image_width * self.depth_bins
        return self.total_prefetch_bytes / max(cells, 1)

    # ------------------------------------------------------------------
    def _materialise_patches(self) -> List[Patch]:
        arr = self._arrays
        bounds = arr.bounds.tolist()
        bytes_list = arr.prefetch_bytes.tolist()
        fetch = arr.fetch_regions.tolist()
        resident = arr.resident_regions.tolist()
        fetch_offsets = np.concatenate(
            [[0], np.cumsum(arr.fetch_counts)]).tolist()
        res_offsets = np.concatenate(
            [[0], np.cumsum(arr.resident_counts)]).tolist()
        patches = []
        for index, (h0, h1, w0, w1, d0, d1) in enumerate(bounds):
            footprints = [
                FootprintRegion(view=v, row0=r0, row1=r1, col0=c0, col1=c1)
                for v, r0, r1, c0, c1 in
                fetch[fetch_offsets[index]:fetch_offsets[index + 1]]]
            res = [
                FootprintRegion(view=v, row0=r0, row1=r1, col0=c0, col1=c1)
                for v, r0, r1, c0, c1 in
                resident[res_offsets[index]:res_offsets[index + 1]]]
            patches.append(Patch(h0=h0, h1=h1, w0=w0, w1=w1, d0=d0, d1=d1,
                                 prefetch_bytes=bytes_list[index],
                                 footprints=footprints,
                                 resident_footprints=res))
        return patches

    def _pack_arrays(self) -> PlanArrays:
        patches = self._patches
        bounds = np.array([(p.h0, p.h1, p.w0, p.w1, p.d0, p.d1)
                           for p in patches],
                          dtype=np.int64).reshape(-1, 6)
        prefetch = np.array([p.prefetch_bytes for p in patches],
                            dtype=np.float64)
        fetch_regions = regions_as_array(
            [fp for p in patches for fp in p.footprints])
        fetch_counts = np.fromiter((len(p.footprints) for p in patches),
                                   dtype=np.int64, count=len(patches))
        resident_regions = regions_as_array(
            [fp for p in patches for fp in p.resident_footprints])
        resident_counts = np.fromiter(
            (len(p.resident_footprints) for p in patches),
            dtype=np.int64, count=len(patches))
        return PlanArrays(bounds=bounds, prefetch_bytes=prefetch,
                          fetch_regions=fetch_regions,
                          fetch_counts=fetch_counts,
                          resident_regions=resident_regions,
                          resident_counts=resident_counts)




def _corner_lattice(novel: Camera, height: int, width: int,
                    shape: PatchShape, depth_edges: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """One candidate's frustum corners as a shared lattice of world points.

    Neighbouring tiles share their edge corners and each depth slab's
    far face is the next slab's near face, so the corner points of all
    (slab, tile) frusta form one lattice: row edges ``0, dh, ...,
    height`` x column edges ``0, dw, ..., width`` x the ``n_slabs + 1``
    depth edges.  The last row and column edge are the image border,
    where edge tiles are clipped by ``min(h0 + dh, height)``.  Each
    point is unprojected once here and projected once per view by
    :meth:`GreedyPatchScheduler._footprint_stats`, instead of once per
    frustum that has it as a corner (up to six).

    Returns ``(points, corners)``: the (L, 3) world points, and the
    (8, n_slabs * T) lattice index of every frustum's corners in
    slab-major (slab, tile) order.  The corner order is the per-frustum
    one: the near face (w0, h0), (w1, h0), (w1, h1), (w0, h1), then the
    far face in the same order.  Every point goes through the same
    unprojection arithmetic as a per-frustum corner would, so gathered
    corners are bit-identical to unprojecting each frustum on its own.
    """
    rows = np.append(np.arange(0, height, shape.dh), height)
    cols = np.append(np.arange(0, width, shape.dw), width)
    grid_v, grid_u = np.meshgrid(rows, cols, indexing="ij")
    face = np.stack([grid_u.ravel(), grid_v.ravel()],
                    axis=-1).astype(np.float64)            # (F, 2) pixels
    face_points = face.shape[0]
    edges = depth_edges.shape[0]
    points = novel.unproject(
        np.broadcast_to(face, (edges, face_points, 2)).reshape(-1, 2),
        np.repeat(depth_edges, face_points))

    stride = cols.size
    tile_base = (np.arange(rows.size - 1)[:, None] * stride
                 + np.arange(cols.size - 1)).ravel()        # (w0, h0) corners
    quad = np.array([0, 1, stride + 1, stride])
    offsets = np.concatenate([quad, quad + face_points])    # near, far face
    slab_base = (np.arange(edges - 1)[:, None] * face_points
                 + tile_base).ravel()
    return points, offsets[:, None] + slab_base


# Corner k's successor in a closed 8-gon, for the shoelace terms.
_NEXT_CORNER = np.array([1, 2, 3, 4, 5, 6, 7, 0])


def _polygon_areas(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Areas of near-convex 8-point sets via centroid-angle sort.

    ``x`` and ``y`` are corner-major (8, N) coordinate planes.  Exact
    for points in convex position (true for projected frustum corners
    away from degeneracies); a documented estimator otherwise — this is
    the same quantity the hardware's area calculator produces from the
    projected tetragon.

    The arithmetic reproduces the point-major (N, 8, 2) seed
    (``repro.perf.reference._polygon_areas``) bit for bit: numpy
    reduces a leading axis corner by corner, the order in which it
    reduces the seed's (N, 8, 2) points over axis 1; the angles are
    argsorted as the same row-major (N, 8) array, since the order of
    ties depends on that layout; and the shoelace terms are added in
    numpy's 8-element pairwise order, which the seed's row sums use.

    The default ``argsort`` is not stable, so the order of tied angles
    comes from numpy's SIMD dispatch for the host (numpy 2.4.6 on a
    SkylakeX core returned ``[.., 6, 2, ..]`` where a stable sort gives
    ``[.., 2, 6, ..]``).  A frustum whose eight corners clip onto one
    border column has tied angles, and its shoelace residue depends on
    that order: over the perfbench ``simulate`` sweep at seeds 1-3, 446
    of 11,512,386 (frustum, view) areas differ from a stable sort's, by
    at most 9.1e-13, and at seed 1 no plan or frame statistic changes.
    A host-independent order would change bits, so it is left as is.
    """
    count = x.shape[1]
    angles = np.arctan2(y - y.mean(axis=0), x - x.mean(axis=0))
    order = np.argsort(np.ascontiguousarray(angles.T), axis=1)
    # Flat (8, N) gather index, C-ordered so the gathered planes are too.
    by_angle = np.ascontiguousarray(order.T)
    by_angle *= count
    by_angle += np.arange(count)
    xs = x.ravel()[by_angle]
    ys = y.ravel()[by_angle]
    cross = xs * ys[_NEXT_CORNER] - ys * xs[_NEXT_CORNER]
    total = ((cross[0] + cross[1]) + (cross[2] + cross[3])) \
        + ((cross[4] + cross[5]) + (cross[6] + cross[7]))
    return 0.5 * np.abs(total)


class GreedyPatchScheduler:
    """Software model of the workload scheduler block (Fig. 7, right)."""

    def __init__(self, config: SchedulerConfig = SchedulerConfig()):
        self.config = config

    # ------------------------------------------------------------------
    def _tile_grid(self, height: int, width: int, shape: PatchShape
                   ) -> Tuple[np.ndarray, np.ndarray]:
        hs = np.arange(0, height, shape.dh)
        ws = np.arange(0, width, shape.dw)
        grid_h, grid_w = np.meshgrid(hs, ws, indexing="ij")
        return grid_h.ravel(), grid_w.ravel()

    def _footprint_stats(self, lattice: np.ndarray, corners: np.ndarray,
                         source: Camera) -> Tuple[np.ndarray, np.ndarray]:
        """Per-frustum (location count, bbox rows/cols) on one source view.

        ``lattice`` and ``corners`` are a candidate's corner lattice and
        its (8, N) frustum index (:func:`_corner_lattice`): the lattice
        is projected, scaled and clipped once, and every frustum
        gathers its 8 corners as corner-major planes.  Returns
        ``(locations, bbox)`` with bbox as (N, 4) int arrays of
        (row0, row1, col0, col1) at feature resolution, clipped to the
        feature map.  Frusta with corners behind the camera are charged
        the full feature map (worst case, forcing the comparator away
        from such shapes).
        """
        cfg = self.config
        feat_w = max(1, int(round(source.intrinsics.width * cfg.feature_scale)))
        feat_h = max(1, int(round(source.intrinsics.height * cfg.feature_scale)))

        pixels, depth = source.project(lattice, return_depth=True)
        pixels = pixels * cfg.feature_scale
        x = np.clip(pixels[:, 0], 0.0, feat_w - 1.0)[corners]    # (8, N)
        y = np.clip(pixels[:, 1], 0.0, feat_h - 1.0)[corners]
        bad = (depth <= 1e-9)[corners].any(axis=0)

        areas = _polygon_areas(x, y)
        col0 = np.floor(x.min(axis=0)).astype(np.int64)
        col1 = np.ceil(x.max(axis=0)).astype(np.int64) + 1
        row0 = np.floor(y.min(axis=0)).astype(np.int64)
        row1 = np.ceil(y.max(axis=0)).astype(np.int64) + 1

        guard = cfg.guard_band * ((row1 - row0) + (col1 - col0))
        locations = np.minimum(areas + guard, float(feat_w * feat_h))
        locations = np.where(bad, float(feat_w * feat_h), locations)
        row0 = np.where(bad, 0, row0)
        row1 = np.where(bad, feat_h, row1)
        col0 = np.where(bad, 0, col0)
        col1 = np.where(bad, feat_w, col1)
        bbox = np.stack([row0, row1, col0, col1], axis=-1)
        return locations, bbox

    # ------------------------------------------------------------------
    def evaluate_candidate(self, novel: Camera, sources: Sequence[Camera],
                           height: int, width: int, shape: PatchShape,
                           near: float, far: float):
        """Per-tile prefetch costs for one candidate over the whole frame.

        Returns ``(h0, w0, h1, w1, full_bytes, delta_bytes, delta_locs,
        bboxes)`` where arrays are per-tile-per-slab(-per-view):

        * ``full_bytes`` (T, n_slabs) — complete footprint of each slab
          patch; this is what must *fit the prefetch buffer*.
        * ``delta_bytes``/``delta_locs`` — DRAM traffic after delta
          fetching: consecutive depth slabs of a tile are processed
          back-to-back (scheduler constraint 1), so the overlap with the
          previous slab's footprint is serviced buffer-to-buffer on chip
          and only the new region is fetched from DRAM.
        * ``bboxes`` (T, n_slabs, S, 4) — feature-map bounding boxes.
        """
        cfg = self.config
        h0, w0 = self._tile_grid(height, width, shape)
        h1 = np.minimum(h0 + shape.dh, height)
        w1 = np.minimum(w0 + shape.dw, width)
        n_slabs = cfg.depth_bins // shape.dd
        tiles = h0.shape[0]
        num_views = len(sources)

        # One corner lattice for all slabs' frusta, unprojected once and
        # projected once per view — the Python loop is over the S
        # source views only, not n_slabs x S.
        depth_edges = near + (far - near) \
            * (np.arange(n_slabs + 1) * shape.dd) / cfg.depth_bins
        lattice, corners = _corner_lattice(novel, height, width, shape,
                                           depth_edges)
        locs = np.zeros((tiles, n_slabs, num_views))
        bboxes = np.zeros((tiles, n_slabs, num_views, 4), dtype=np.int64)
        for view, source in enumerate(sources):
            locations, bbox = self._footprint_stats(lattice, corners, source)
            locs[:, :, view] = locations.reshape(n_slabs, tiles).T
            bboxes[:, :, view] = bbox.reshape(n_slabs, tiles, 4) \
                .transpose(1, 0, 2)

        # Depth-delta reuse: consecutive slabs of a tile overlap; all
        # slab pairs are independent, so the per-slab loop collapses to
        # one shifted-slice pass.
        delta_locs = locs.copy()
        if n_slabs > 1:
            prev = bboxes[:, :-1]
            curr = bboxes[:, 1:]
            inter_rows = np.maximum(
                0, np.minimum(prev[..., 1], curr[..., 1])
                - np.maximum(prev[..., 0], curr[..., 0]))
            inter_cols = np.maximum(
                0, np.minimum(prev[..., 3], curr[..., 3])
                - np.maximum(prev[..., 2], curr[..., 2]))
            area = np.maximum(
                (curr[..., 1] - curr[..., 0])
                * (curr[..., 3] - curr[..., 2]), 1)
            overlap_fraction = np.clip(inter_rows * inter_cols / area, 0, 1)
            delta_locs[:, 1:] *= (1.0 - overlap_fraction)
        delta_locs = np.maximum(delta_locs, 16.0)   # control-granule floor

        elem = cfg.channels * cfg.bytes_per_element
        full_bytes = locs.sum(axis=2) * elem
        delta_bytes = delta_locs.sum(axis=2) * elem
        return h0, w0, h1, w1, full_bytes, delta_bytes, delta_locs, bboxes

    def plan_frame(self, novel: Camera, sources: Sequence[Camera],
                   near: float, far: float) -> FramePlan:
        """Greedy partition of the whole frame (Fig. 5 flow)."""
        cfg = self.config
        height = novel.intrinsics.height
        width = novel.intrinsics.width
        macro = cfg.macro_tile
        macro_rows = int(np.ceil(height / macro))
        macro_cols = int(np.ceil(width / macro))
        num_macros = macro_rows * macro_cols

        per_candidate = []
        macro_cost = np.full((len(cfg.candidates), num_macros), np.inf)
        for c_index, shape in enumerate(cfg.candidates):
            evaluated = self.evaluate_candidate(novel, sources, height,
                                                width, shape, near, far)
            h0, w0, h1, w1, full_bytes, delta_bytes, delta_locs, bboxes = \
                evaluated
            per_candidate.append(evaluated)
            macro_index = (h0 // macro) * macro_cols + (w0 // macro)
            tile_total = delta_bytes.sum(axis=1)     # DRAM traffic (greedy
            # minimises memory accesses, Fig. 5)
            # Buffer constraint: every slab-patch footprint must fit.
            fits = (full_bytes <= cfg.buffer_bytes).all(axis=1)
            cost = np.where(fits, tile_total, np.inf)
            sums = np.zeros(num_macros)
            bad = np.zeros(num_macros, dtype=bool)
            np.add.at(sums, macro_index, np.where(np.isinf(cost), 0.0, cost))
            np.logical_or.at(bad, macro_index, np.isinf(cost))
            macro_cost[c_index] = np.where(bad, np.inf, sums)

        chosen = np.argmin(macro_cost, axis=0)
        # If no candidate fits a macro tile (extreme footprints), fall
        # back to the candidate with the fewest cells per patch.
        fallback = int(np.argmin([c.cells for c in cfg.candidates]))
        no_fit = np.isinf(macro_cost.min(axis=0))
        chosen[no_fit] = fallback

        # Struct-of-arrays patch assembly: no Python object is built
        # here at all.  Per candidate, the selected tiles' bounds,
        # prefetch bytes, and per-view footprint regions come out as
        # flat arrays in exactly the object path's (tile, slab, view)
        # order; Patch/FootprintRegion objects materialise on demand
        # from FramePlan.patches.
        histogram: Dict[PatchShape, int] = {c: 0 for c in cfg.candidates}
        bounds_parts: List[np.ndarray] = []
        bytes_parts: List[np.ndarray] = []
        fetch_parts: List[np.ndarray] = []
        resident_parts: List[np.ndarray] = []
        num_views = len(sources)
        for c_index, shape in enumerate(cfg.candidates):
            h0, w0, h1, w1, full_bytes, delta_bytes, delta_locs, bboxes = \
                per_candidate[c_index]
            macro_index = (h0 // macro) * macro_cols + (w0 // macro)
            selected_tiles = np.where(chosen[macro_index] == c_index)[0]
            if selected_tiles.size == 0:
                continue
            n_sel = selected_tiles.size
            n_slabs = delta_bytes.shape[1]
            histogram[shape] += n_sel * n_slabs
            sel_bbox = bboxes[selected_tiles]       # (n_sel, n_slabs, S, 4)
            sel_cols = _delta_column_spans(sel_bbox,
                                           delta_locs[selected_tiles])

            # (n_sel, n_slabs, 6) tile bounds with per-slab depth spans.
            tile_hw = np.stack([h0[selected_tiles], h1[selected_tiles],
                                w0[selected_tiles], w1[selected_tiles]],
                               axis=-1).astype(np.int64)
            d0 = (np.arange(n_slabs, dtype=np.int64) * shape.dd)
            cand_bounds = np.empty((n_sel, n_slabs, 6), dtype=np.int64)
            cand_bounds[:, :, :4] = tile_hw[:, None, :]
            cand_bounds[:, :, 4] = d0[None, :]
            cand_bounds[:, :, 5] = d0[None, :] + shape.dd
            bounds_parts.append(cand_bounds.reshape(-1, 6))
            bytes_parts.append(delta_bytes[selected_tiles].reshape(-1))

            # (n_sel, n_slabs, S, 5) region rows; fetch regions carry
            # the delta column span, resident regions the full bbox.
            views = np.arange(num_views, dtype=np.int64)
            regions = np.empty((n_sel, n_slabs, num_views, 5),
                               dtype=np.int64)
            regions[..., 0] = views
            regions[..., 1] = sel_bbox[..., 0]
            regions[..., 2] = sel_bbox[..., 1]
            regions[..., 3] = sel_bbox[..., 2]
            regions[..., 4] = sel_bbox[..., 3]
            resident_parts.append(regions.reshape(-1, 5).copy())
            regions[..., 4] = sel_bbox[..., 2] + sel_cols
            fetch_parts.append(regions.reshape(-1, 5))

        if bounds_parts:
            bounds = np.concatenate(bounds_parts, axis=0)
            prefetch = np.concatenate(bytes_parts, axis=0)
            fetch_regions = np.concatenate(fetch_parts, axis=0)
            resident_regions = np.concatenate(resident_parts, axis=0)
        else:
            bounds = np.zeros((0, 6), dtype=np.int64)
            prefetch = np.zeros(0, dtype=np.float64)
            fetch_regions = np.zeros((0, 5), dtype=np.int64)
            resident_regions = np.zeros((0, 5), dtype=np.int64)
        counts = np.full(bounds.shape[0], num_views, dtype=np.int64)
        arrays = PlanArrays(bounds=bounds, prefetch_bytes=prefetch,
                            fetch_regions=fetch_regions, fetch_counts=counts,
                            resident_regions=resident_regions,
                            resident_counts=counts.copy())
        return FramePlan(arrays=arrays,
                         total_prefetch_bytes=_ordered_sum(prefetch),
                         candidate_histogram=histogram, image_height=height,
                         image_width=width, depth_bins=cfg.depth_bins)

    # ------------------------------------------------------------------
    def scheduling_cycles(self, num_views: int, height: int,
                          width: int) -> float:
        """Run-time cost of the partition on the scheduler block.

        Per (macro tile, candidate, slab, view): 8 corner projections on
        the vertex projector's MAC array (12 MACs each, 16 MACs/cycle),
        an area calculation (~8 cycles on its adder tree), and a compare.
        """
        macros = int(np.ceil(height / self.config.macro_tile)) \
            * int(np.ceil(width / self.config.macro_tile))
        work = 0.0
        for shape in self.config.candidates:
            slabs = self.config.depth_bins // shape.dd
            tiles_per_macro = (self.config.macro_tile // shape.dh) \
                * (self.config.macro_tile // shape.dw)
            per_macro = tiles_per_macro * slabs * num_views \
                * (8 * 12 / 16 + 8 + 1)
            work += macros * per_macro
        return work


def _ordered_sum(values: np.ndarray) -> float:
    """Left-to-right float accumulation, matching the seed loops' ``+=``.

    ``np.sum`` reduces pairwise, which can differ from sequential
    accumulation in the last bits; plan and frame totals are pinned
    bit-identical to the seed loops in :mod:`repro.perf.reference`, so
    they keep the loops' order.  ``np.cumsum`` in float64 is that
    sequential accumulate, each value converted to float64 first as
    ``total += value`` converts it.  The loop starts from ``0.0``, so
    an all-``-0.0`` input totals ``0.0``; adding the last partial sum
    to ``0.0`` does the same.
    """
    values = np.asarray(values)
    if values.size == 0:
        return 0.0
    return 0.0 + float(np.cumsum(values, dtype=np.float64)[-1])


def _delta_column_spans(bboxes: np.ndarray, delta_locs: np.ndarray
                        ) -> np.ndarray:
    """Delta-region column counts for (..., S, 4) bboxes at once.

    The same arithmetic as the seed's per-patch loop
    (``repro.perf.reference._delta_footprints``), batched over any
    leading (tile, slab) axes: each view's bbox keeps its row span and
    the column span shrinks to carry the delta location count.
    """
    rows = np.maximum(1, bboxes[..., 1] - bboxes[..., 0])
    cols = np.maximum(1, np.ceil(delta_locs / rows).astype(np.int64))
    return np.minimum(cols, np.maximum(1, bboxes[..., 3] - bboxes[..., 2]))


def fixed_partition(novel: Camera, sources: Sequence[Camera], near: float,
                    far: float, config: SchedulerConfig) -> FramePlan:
    """Var-1 baseline (Fig. 12): constant {k, k, D} patches.

    k is the largest candidate-independent square tile whose worst-case
    footprint fits the prefetch buffer; patches span the full depth
    range, so footprints are long epipolar stripes and neighbouring
    tiles re-fetch heavily overlapping regions (no depth-delta reuse is
    possible — each tile is a single patch).
    """
    scheduler = GreedyPatchScheduler(config)
    height = novel.intrinsics.height
    width = novel.intrinsics.width

    # Halve k from the macro tile until every footprint fits, stopping
    # at the 4 px floor whether or not it fits.
    k = config.macro_tile
    while True:
        shape = PatchShape(k, k, config.depth_bins)
        h0, w0, h1, w1, full_bytes, _delta, _delta_locs, bboxes = \
            scheduler.evaluate_candidate(novel, sources, height, width,
                                         shape, near, far)
        if k // 2 < 4 or (full_bytes <= config.buffer_bytes).all():
            break
        k //= 2

    # One full-depth patch per tile, built as arrays like plan_frame's:
    # a patch fetches exactly the per-view bboxes it keeps resident, so
    # one (tile, view)-ordered region array serves as both.
    tiles = h0.shape[0]
    num_views = len(sources)
    bounds = np.stack([h0, h1, w0, w1, np.zeros_like(h0),
                       np.full_like(h0, config.depth_bins)],
                      axis=-1).astype(np.int64)
    prefetch = full_bytes[:, 0]
    regions = np.empty((tiles, num_views, 5), dtype=np.int64)
    regions[..., 0] = np.arange(num_views)
    regions[..., 1:] = bboxes[:, 0]
    regions = regions.reshape(-1, 5)
    counts = np.full(tiles, num_views, dtype=np.int64)
    arrays = PlanArrays(bounds=bounds, prefetch_bytes=prefetch,
                        fetch_regions=regions, fetch_counts=counts,
                        resident_regions=regions, resident_counts=counts)
    return FramePlan(arrays=arrays,
                     total_prefetch_bytes=_ordered_sum(prefetch),
                     candidate_histogram={shape: tiles},
                     image_height=height, image_width=width,
                     depth_bins=config.depth_bins)
