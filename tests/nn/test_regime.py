"""The BLAS kernel-regime rule (:mod:`repro.nn.regime`).

Two kinds of check:

* **Decisions.**  The packed fine pass and the footprint encode made
  their padding decisions from two private copies of the rule before
  it moved into one module.  The tables below were captured from those
  copies, and both callers must still reproduce them for every
  pointwise GEMM of the registered and serving model configs and for
  every encoder conv.
* **Host.**  Real float32 GEMMs on the host that runs the suite: where
  the module calls two row counts interchangeable, the rows they share
  must be bitwise equal.
"""

import numpy as np
import pytest

from repro import models as M
from repro.core import experiments, serve
from repro.models import footprint
from repro.nn import regime


def _models():
    """Every model config the registry and the serving tiers build."""
    small = M.GenNeRF(M.GenNerfConfig(
        fine=experiments._small_model_config("mixer", 20),
        coarse_points=8, focused_points=12))
    small_pruned = M.prune_gen_nerf(small)
    default = M.GenNeRF()
    return {
        "default": default.fine,
        "default_coarse": default.coarse,
        "default_pruned": M.prune_generalizable_nerf(default.fine),
        "default_coarse_pruned": M.prune_generalizable_nerf(default.coarse),
        "small": small.fine,
        "small_coarse": small.coarse,
        "small_pruned": small_pruned.fine,
        "small_coarse_pruned": small_pruned.coarse,
        "serve": serve.build_model("standard"),
        "serve_coarse": serve.build_model("gen_nerf").coarse,
    }


_NARROW_WIDTHS = ("default_coarse", "default_coarse_pruned",
                  "default_pruned", "serve_coarse", "small_coarse",
                  "small_coarse_pruned", "small_pruned")

# ``_packed_pad_bounds(views, columns)`` before the move, as
# (columns, floor, cap) around every switch of each config's GEMMs.
PACKED_BOUNDS = {
    ("default",): {
        4: [(1, 1, 3906), (2, 1, 3906), (3, 1, 3906), (4, 1, 3906),
            (5, 1, 3906), (6, 1, 3906), (3905, 1, 3906), (3906, 1, 3906),
            (3907, 3907, 4096), (3908, 3907, 4096), (4095, 3907, 4096),
            (4096, 3907, 4096), (4097, 4097, None), (4098, 4097, None)],
        10: [(1, None, None), (2, 1, 1638), (3, None, None), (4, 1, 1638),
             (5, None, None), (6, 1, 1638), (1637, None, None),
             (1638, 1, 1638), (1639, 1639, 3906), (1640, 1639, 3906),
             (3905, 1639, 3906), (3906, 1639, 3906), (3907, 3907, None),
             (3908, 3907, None)]},
    ("small", "serve"): {
        4: [(1, 1, 4096), (2, 1, 4096), (3, 1, 4096), (4, 1, 4096),
            (5, 1, 4096), (6, 1, 4096), (4095, 1, 4096), (4096, 1, 4096),
            (4097, 4097, None), (4098, 4097, None)],
        10: [(1, None, None), (2, 1, 1638), (3, None, None), (4, 1, 1638),
             (5, None, None), (6, 1, 1638), (1637, None, None),
             (1638, 1, 1638), (1639, 1639, None), (1640, 1639, None)]},
    _NARROW_WIDTHS: {
        4: [(1, None, None), (2, None, None), (3, None, None),
            (4, 1, 4096), (5, None, None), (6, None, None),
            (4095, None, None), (4096, 1, 4096), (4097, None, None),
            (4098, None, None)],
        10: [(1, None, None), (2, None, None), (3, None, None),
             (4, 1, 1638), (5, None, None), (6, None, None),
             (1637, None, None), (1638, None, None), (1639, None, None),
             (1640, 1639, None)]},
}

# ``footprint._pad_for_regime(rows, dense_rows, k, n)`` before the move,
# per encoder GEMM (k, n), at (rows, dense_rows) = (1, 64), (1, t),
# (1, t + 1), (3, 64), (3, t), (3, t + 1) with t = 1e6 // (k * n).
FOOTPRINT_PADS = {
    (2, 18): (1, 1, 1, 0, 0, 0),
    (3, 18): (1, 1, 1, 0, 0, 0),
    (4, 36): (1, 1, 1, 0, 0, 0),
    (8, 72): (1, 1, 1, 0, 0, 0),
    (12, 72): (1, 1, 1, 0, 0, 0),
    (16, 144): (1, 1, 1, 0, 0, 0),
    (18, 2): (1, 1, 1, 0, 0, 0),
    (18, 3): (1, 1, 1, 0, 0, 0),
    (27, 2): (1, 1, 1, 0, 0, 0),
    (27, 4): (1, 1, 1, 0, 0, 0),
    (27, 8): (1, 1, 1, 0, 0, 0),
    (27, 16): (1, 1, 1, 0, 0, 0),
    (36, 4): (None, None, 6944, None, None, 6942),
    (72, 8): (None, None, 1736, None, None, 1734),
    (72, 12): (1, 1, 1, 0, 0, 0),
    (144, 16): (1, 1, 1, 0, 0, 0),
}


@pytest.fixture(scope="module")
def models():
    return _models()


def test_packed_pad_bounds_match_parent_table(models):
    covered = set()
    for names, by_views in PACKED_BOUNDS.items():
        for name in names:
            covered.add(name)
            for views, rows in by_views.items():
                for columns, floor, cap in rows:
                    assert models[name]._packed_pad_bounds(
                        views, columns) == (floor, cap), \
                        (name, views, columns)
    assert covered == set(models)


def test_footprint_pads_match_parent_table(models):
    shapes = set()
    for model in models.values():
        for index, conv in enumerate(model.encoder.convs):
            taps = conv.in_channels * conv.kernel * conv.kernel
            shapes.add((taps, conv.out_channels))
            if index > 0:             # input-gradient GEMM
                shapes.add((conv.out_channels, taps))
    assert shapes == set(FOOTPRINT_PADS)
    for (k, n), expected in FOOTPRINT_PADS.items():
        switch = 1_000_000 // (k * n)
        grid = [(rows, dense) for rows in (1, 3)
                for dense in (64, switch, switch + 1)]
        got = tuple(footprint._pad_for_regime(rows, dense, k, n)
                    for rows, dense in grid)
        assert got == expected, (k, n)


def test_merged_serve_call_must_keep_the_mixer_head_regime(models):
    """Three standard step-2 requests (768 rays each): the per-view
    GEMVs are past the sgemv switch either way, but the Ray-Mixer head,
    a (rays * 8, 6) x (6, 1) GEMV, is under it at 768 rays and over it
    at 2,304."""
    shapes = models["serve"].gemm_shapes(num_views=4, points_per_ray=8)
    assert (8, 6, 1) in shapes
    assert regime.batch_interval(shapes, 768) == (513, 2048)


def test_row_interval_forms():
    assert regime.row_interval(6144, 6, 1) == (1, regime.SGEMV_SWITCH_ROWS)
    assert regime.row_interval(6143, 6, 1) is None
    assert regime.row_interval(6144, 6, 1, scattered=True) is None
    assert regime.row_interval(16388, 8, 1) \
        == (regime.SGEMV_SWITCH_ROWS + 1, None)
    assert regime.row_interval(100, 32, 8) == (1, 3906)
    assert regime.row_interval(100, 32, 8, scattered=True) is None
    assert regime.row_interval(5000, 32, 8, scattered=True) == (3907, None)
    assert regime.row_interval(7, 27, 16, scattered=True) == (2, None)
    assert regime.batch_interval([], 5) == (1, None)


@pytest.mark.parametrize("k, n, small, large", [
    (6, 1, 6144, 16384), (8, 1, 6144, 16384),       # sgemv, both under
    (6, 1, 16388, 73728), (8, 1, 16388, 73728),     # sgemv, both over
    (32, 4, 1024, 7812), (32, 8, 1024, 3906),       # sgemm, both under
    (32, 4, 7813, 31250), (32, 8, 3907, 15625),     # sgemm, both over
])
def test_host_keeps_rows_within_a_regime(k, n, small, large):
    """Counts in one regime compute shared rows bit for bit on this
    host, wherever the smaller block sits inside the larger call.  (A
    pair across a switch is not guaranteed to differ, so none is
    asserted to.)"""
    lo, hi = regime.row_interval(small, k, n)
    assert lo <= large and (hi is None or large <= hi)
    rng = np.random.default_rng(k * 1000 + n)
    a = rng.standard_normal((large, k)).astype(np.float32)
    w = rng.standard_normal((k, n)).astype(np.float32)
    full = a @ w
    for offset in (0, large - small):
        block = a[offset:offset + small] @ w
        assert np.array_equal(block, full[offset:offset + small]), offset
