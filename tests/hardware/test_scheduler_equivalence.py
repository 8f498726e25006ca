"""Vectorised scheduler slab sweep vs the seed per-(slab, view) loops.

The batched ``evaluate_candidate`` (one corner lattice per candidate,
unprojected once and projected once per view, corner-major area
calculator, sliced overlap pass) must reproduce the seed loop
implementation bit-for-bit — the per-element arithmetic is unchanged,
only the batching differs — including on frames with partial edge
tiles and with corners behind a source.  The array-built plans
(``plan_frame``, ``fixed_partition``) must match the seed's
object-built ones.  Also pins the vectorised ``rectangle_bank_load``
residue counting against a direct per-row evaluation for every layout.
"""

import numpy as np
import pytest

from repro.core.pipeline import HardwareRig, hardware_rig
from repro.geometry.transforms import camera_at
from repro.hardware.interleave import (FeatureStore, FootprintRegion,
                                       LAYOUTS, _residue_counts,
                                       spatial_skew)
from repro.hardware.scheduler import (DEFAULT_CANDIDATES,
                                      GreedyPatchScheduler, PatchShape,
                                      SchedulerConfig, _corner_lattice,
                                      fixed_partition)
from repro.hardware.units import KB
from repro.perf import reference
from repro.scenes.datasets import DatasetSpec

SMALL_SPEC = DatasetSpec("small", width=128, height=96, fov_x_deg=50.0,
                         near=2.0, far=6.0, rig="orbit", rig_distance=4.0)


@pytest.fixture(scope="module")
def rig():
    return hardware_rig(SMALL_SPEC, num_views=4, seed=0)


@pytest.mark.parametrize("shape", DEFAULT_CANDIDATES,
                         ids=lambda s: f"{s.dh}x{s.dw}x{s.dd}")
def test_evaluate_candidate_matches_seed_loop(rig, shape):
    scheduler = GreedyPatchScheduler(SchedulerConfig())
    fast = scheduler.evaluate_candidate(rig.novel, rig.sources, 96, 128,
                                        shape, rig.near, rig.far)
    loop = reference.evaluate_candidate_loop(scheduler, rig.novel,
                                             rig.sources, 96, 128, shape,
                                             rig.near, rig.far)
    names = ("h0", "w0", "h1", "w1", "full_bytes", "delta_bytes",
             "delta_locs", "bboxes")
    for name, fast_arr, loop_arr in zip(names, fast, loop):
        assert np.array_equal(np.asarray(fast_arr), np.asarray(loop_arr)), \
            f"{name} diverged for candidate {shape}"


def _bank_load_loop(store, region, num_banks):
    """Direct per-row evaluation of the bank mapping (seed structure)."""
    loads = np.zeros(num_banks, dtype=np.int64)
    acts = np.zeros(num_banks, dtype=np.int64)
    rows, cols = region.num_rows, region.num_cols
    if rows <= 0 or cols <= 0:
        return loads, acts
    if store.layout == "row_major":
        rows_per_bank = max(1, (store.num_views * store.height) // num_banks)
        flat0 = region.view * store.height + region.row0
        for flat in range(flat0, flat0 + rows):
            bank = min(flat // rows_per_bank, num_banks - 1)
            loads[bank] += cols
            acts[bank] += 1
        return loads, acts
    if store.layout == "row_interleaved":
        flat0 = region.view * store.height + region.row0
        row_counts = _residue_counts(flat0, flat0 + rows, num_banks)
        return row_counts * cols, row_counts
    if store.layout == "view_interleaved":
        bank = region.view % num_banks
        loads[bank] = rows * cols
        acts[bank] = rows
        return loads, acts
    skew = spatial_skew(num_banks)
    for row in range(region.row0, region.row1):
        offset = skew * row
        row_counts = _residue_counts(offset + region.col0,
                                     offset + region.col1, num_banks)
        loads += row_counts
        acts += (row_counts > 0).astype(np.int64)
    return loads, acts


@pytest.mark.parametrize("layout", LAYOUTS)
def test_rectangle_bank_load_matches_per_row_loop(layout):
    rng = np.random.default_rng(42)
    store = FeatureStore(num_views=6, height=120, width=160, channels=32,
                         layout=layout)
    for banks in (4, 8, 16, 13):
        for _ in range(40):
            row0 = int(rng.integers(0, store.height))
            row1 = int(rng.integers(row0, store.height + 1))
            col0 = int(rng.integers(0, store.width))
            col1 = int(rng.integers(col0, store.width + 1))
            region = FootprintRegion(view=int(rng.integers(0, 6)),
                                     row0=row0, row1=row1,
                                     col0=col0, col1=col1)
            fast = store.rectangle_bank_load(region, banks)
            loop = _bank_load_loop(store, region, banks)
            assert np.array_equal(fast[0], loop[0])
            assert np.array_equal(fast[1], loop[1])


def test_plan_frame_matches_seed_loop(rig):
    """The vectorised plan (batched assembly) reproduces the seed
    per-tile/per-slab plan patch-for-patch."""
    scheduler = GreedyPatchScheduler(SchedulerConfig())
    fast = scheduler.plan_frame(rig.novel, rig.sources, rig.near, rig.far)
    loop = reference.plan_frame_loop(scheduler, rig.novel, rig.sources,
                                     rig.near, rig.far)
    assert fast.num_patches == loop.num_patches
    assert fast.total_prefetch_bytes == loop.total_prefetch_bytes
    assert fast.candidate_histogram == loop.candidate_histogram
    for fast_patch, loop_patch in zip(fast.patches, loop.patches):
        assert fast_patch == loop_patch


# ----------------------------------------------------------------------
# Struct-of-arrays FramePlan: flat assembly vs the object path
# ----------------------------------------------------------------------

def test_plan_arrays_match_object_packing(rig):
    """``plan_frame`` builds the flat arrays directly; packing the
    *materialised* objects back into arrays must give the same bits —
    the two representations describe one plan."""
    from repro.hardware.scheduler import FramePlan

    plan = GreedyPatchScheduler(SchedulerConfig()).plan_frame(
        rig.novel, rig.sources, rig.near, rig.far)
    direct = plan.arrays
    repacked = FramePlan(
        patches=list(plan.patches),
        total_prefetch_bytes=plan.total_prefetch_bytes,
        candidate_histogram=plan.candidate_histogram,
        image_height=plan.image_height, image_width=plan.image_width,
        depth_bins=plan.depth_bins).arrays
    for name in ("bounds", "prefetch_bytes", "fetch_regions",
                 "fetch_counts", "resident_regions", "resident_counts"):
        assert np.array_equal(getattr(direct, name),
                              getattr(repacked, name)), name


def test_seed_plan_arrays_match_fast_plan_arrays(rig):
    """An object-built seed plan derives the same array view the
    struct-of-arrays planner emits directly."""
    scheduler = GreedyPatchScheduler(SchedulerConfig())
    fast = scheduler.plan_frame(rig.novel, rig.sources, rig.near, rig.far)
    loop = reference.plan_frame_loop(scheduler, rig.novel, rig.sources,
                                     rig.near, rig.far)
    for name in ("bounds", "prefetch_bytes", "fetch_regions",
                 "fetch_counts", "resident_regions", "resident_counts"):
        assert np.array_equal(getattr(fast.arrays, name),
                              getattr(loop.arrays, name)), name


def test_materialised_patches_are_cached_and_plain_ints(rig):
    plan = GreedyPatchScheduler(SchedulerConfig()).plan_frame(
        rig.novel, rig.sources, rig.near, rig.far)
    patches = plan.patches
    assert plan.patches is patches            # materialised once
    sample = patches[0]
    for value in (sample.h0, sample.h1, sample.w0, sample.w1,
                  sample.d0, sample.d1):
        assert type(value) is int
    assert type(sample.prefetch_bytes) is float
    region = sample.footprints[0]
    for value in (region.view, region.row0, region.row1, region.col0,
                  region.col1):
        assert type(value) is int


def test_simulation_identical_from_arrays_and_objects(rig):
    """The batched frame simulation consumes ``plan.arrays``; feeding it
    an object-built plan of the same patches must give bit-identical
    frame results."""
    from repro.hardware import GenNerfAccelerator
    from repro.hardware.scheduler import FramePlan
    from repro.models.workload import typical_workload

    workload = typical_workload(height=96, width=128, num_views=4)
    accelerator = GenNerfAccelerator()
    plan = accelerator.plan_frame(rig.novel, rig.sources, rig.near,
                                  rig.far, workload)
    object_plan = FramePlan(
        patches=list(plan.patches),
        total_prefetch_bytes=plan.total_prefetch_bytes,
        candidate_histogram=plan.candidate_histogram,
        image_height=plan.image_height, image_width=plan.image_width,
        depth_bins=plan.depth_bins)
    sim_arrays = accelerator.simulate_frame(
        workload, rig.novel, rig.sources, rig.near, rig.far, plan=plan)
    sim_objects = GenNerfAccelerator().simulate_frame(
        workload, rig.novel, rig.sources, rig.near, rig.far,
        plan=object_plan)
    assert sim_arrays.total_time_s == sim_objects.total_time_s
    assert sim_arrays.energy_j == sim_objects.energy_j
    assert sim_arrays.pool_macs == sim_objects.pool_macs
    assert sim_arrays.prefetch_bytes == sim_objects.prefetch_bytes


# ----------------------------------------------------------------------
# Corner lattice: frames that do not tile, corners behind a source
# ----------------------------------------------------------------------

EDGE_SPEC = DatasetSpec("edge", width=140, height=100, fov_x_deg=50.0,
                        near=2.0, far=6.0, rig="orbit", rig_distance=4.0)


@pytest.fixture(scope="module")
def edge_rig():
    """A frame no candidate tiles exactly: the last tile row and column
    are partial, as at LLFF's 756x1008."""
    return hardware_rig(EDGE_SPEC, num_views=3, seed=0)


@pytest.fixture(scope="module")
def behind_rig(rig):
    """The test rig plus a source inside the novel frustum, facing along
    it: the near slabs' corners lie behind that source (depth <= 1e-9)
    and the far slabs' corners in front of it."""
    novel = rig.novel
    eye = novel.center + 3.1 * novel.forward
    inside = camera_at(eye, eye + novel.forward, novel.intrinsics)
    ends = novel.unproject(np.zeros((2, 2)), np.array([rig.near, rig.far]))
    depth = inside.world_to_camera(ends)[:, 2]
    assert depth[0] <= 1e-9 < depth[1]
    return HardwareRig(novel=novel, sources=list(rig.sources[:2]) + [inside],
                       near=rig.near, far=rig.far)


@pytest.mark.parametrize("shape", DEFAULT_CANDIDATES,
                         ids=lambda s: f"{s.dh}x{s.dw}x{s.dd}")
def test_corner_lattice_gathers_per_frustum_corners(edge_rig, shape):
    """Each (slab, tile) frustum's 8 lattice corners are the world points
    the per-frustum unprojection gives, in its corner order, including
    the clipped edge tiles."""
    height, width = 100, 140
    h0, w0 = GreedyPatchScheduler()._tile_grid(height, width, shape)
    h1 = np.minimum(h0 + shape.dh, height)
    w1 = np.minimum(w0 + shape.dw, width)
    n_slabs = 64 // shape.dd
    depth_edges = edge_rig.near + (edge_rig.far - edge_rig.near) \
        * (np.arange(n_slabs + 1) * shape.dd) / 64
    points, corners = _corner_lattice(edge_rig.novel, height, width, shape,
                                      depth_edges)
    seed = reference._frustum_corners_slabs(edge_rig.novel, h0, w0, h1, w1,
                                            depth_edges)
    assert corners.shape == (8, seed.shape[0] * seed.shape[1])
    assert np.array_equal(points[corners].transpose(1, 0, 2),
                          seed.reshape(-1, 8, 3))


@pytest.mark.parametrize("shape", DEFAULT_CANDIDATES,
                         ids=lambda s: f"{s.dh}x{s.dw}x{s.dd}")
@pytest.mark.parametrize("rig_name", ["edge_rig", "behind_rig"])
def test_evaluate_candidate_matches_seed_at_lattice_edges(request, rig_name,
                                                          shape):
    rig = request.getfixturevalue(rig_name)
    height = rig.novel.intrinsics.height
    width = rig.novel.intrinsics.width
    scheduler = GreedyPatchScheduler(SchedulerConfig())
    fast = scheduler.evaluate_candidate(rig.novel, rig.sources, height,
                                        width, shape, rig.near, rig.far)
    loop = reference.evaluate_candidate_loop(scheduler, rig.novel,
                                             rig.sources, height, width,
                                             shape, rig.near, rig.far)
    names = ("h0", "w0", "h1", "w1", "full_bytes", "delta_bytes",
             "delta_locs", "bboxes")
    for name, fast_arr, loop_arr in zip(names, fast, loop):
        assert np.array_equal(fast_arr, loop_arr), \
            f"{name} diverged for candidate {shape} on {rig_name}"


# ----------------------------------------------------------------------
# Array-built fixed partition vs the seed's object-built one
# ----------------------------------------------------------------------

PLAN_FIELDS = ("bounds", "prefetch_bytes", "fetch_regions", "fetch_counts",
               "resident_regions", "resident_counts")


@pytest.mark.parametrize("rig_name, buffer_kb, tile", [
    ("rig", 256, 32),        # the default buffer holds 32 px tiles
    ("rig", 32, 8),          # k halves until the footprints fit
    ("rig", 8, 4),           # nothing fits: the 4 px floor
    ("edge_rig", 256, 32),   # partial edge tiles
])
def test_fixed_partition_matches_seed_loop(request, rig_name, buffer_kb,
                                           tile):
    rig = request.getfixturevalue(rig_name)
    config = SchedulerConfig(buffer_bytes=buffer_kb * KB)
    fast = fixed_partition(rig.novel, rig.sources, rig.near, rig.far,
                           config)
    loop = reference.fixed_partition_loop(rig.novel, rig.sources, rig.near,
                                          rig.far, config)
    assert fast._patches is None     # arrays only, until .patches is read
    assert list(fast.candidate_histogram) == [PatchShape(tile, tile, 64)]
    assert fast.candidate_histogram == loop.candidate_histogram
    assert fast.total_prefetch_bytes == loop.total_prefetch_bytes
    for name in PLAN_FIELDS:
        fast_arr = getattr(fast.arrays, name)
        loop_arr = getattr(loop.arrays, name)
        assert fast_arr.dtype == loop_arr.dtype, name
        assert np.array_equal(fast_arr, loop_arr), name
    assert fast.patches == loop.patches
