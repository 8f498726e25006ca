"""Regenerate the ``serve_replay`` artefact: deterministic traffic
replay through the serving scheduler (``repro.core.serve``) at several
concurrency levels plus a burst that overruns the queue limit — through
the experiment registry.  Every row is deterministic in the trace seed
and byte-identical at any worker width, so the ``report`` fixture
compares it byte for byte with the committed artefact, and the last
assertion here repeats that comparison."""

import os

from repro.core.registry import get_experiment

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def test_serve_replay(benchmark, report):
    experiment = get_experiment("serve_replay")
    result = benchmark.pedantic(experiment.run, rounds=1, iterations=1)
    report(experiment.artefact, result.text)
    rows = result.rows
    params = experiment.params

    # One row per open-loop level plus the burst stressor.
    assert len(rows) == len(params["levels"]) + 1
    open_rows = [row for row in rows if row["mode"] == "open"]
    burst_rows = [row for row in rows if row["mode"] == "burst"]
    assert [row["level"] for row in open_rows] == list(params["levels"])
    assert len(burst_rows) == 1

    for row in rows:
        # Accounting: every submitted request is answered exactly once.
        assert row["submitted_total"] \
            == row["completed"] + row["shed"] + row["failed"]
        assert row["failed"] == 0
        assert row["p99_latency_ticks"] >= row["p50_latency_ticks"]
        assert 0.0 < row["batch_occupancy"] <= 1.0
        assert row["rays_per_dispatch"] <= params["max_batch"]
        # The byte-stability witness is a committed 8-hex crc32.
        assert len(row["pixels_crc32"]) == 8
        int(row["pixels_crc32"], 16)

    # Open-loop levels inside the queue limit shed nothing.
    for row in open_rows:
        if row["level"] <= params["queue_limit"]:
            assert row["shed"] == 0

    # Coalescing really happens once there is concurrency to coalesce.
    assert open_rows[-1]["merged_rays"] > 0
    assert open_rows[-1]["rays_per_dispatch"] \
        > open_rows[0]["rays_per_dispatch"]

    # The burst overruns the queue: exactly the overflow is shed and
    # the survivors still complete.
    burst = burst_rows[0]
    assert burst["shed"] \
        == burst["submitted_total"] - params["queue_limit"]
    assert burst["completed"] == params["queue_limit"]

    # Regeneration gate: the run we just did matches the committed
    # artefact byte for byte (the ``report`` fixture never writes it).
    committed = open(os.path.join(
        RESULTS_DIR, f"{experiment.artefact}.txt")).read()
    assert result.text + "\n" == committed
