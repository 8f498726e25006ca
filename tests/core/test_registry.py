"""Experiment-registry round-trip suite.

Every registered experiment must list, declare a committed artefact,
and run at downscaled parameters.  The cheap experiments additionally
pin the registry's rendered text byte-identical to the committed
artefacts.
"""

import os

import pytest

from repro import core
from repro.core import frame_pool
from repro.core.context import RunContext
from repro.core.registry import (all_experiments, experiment_names,
                                 get_experiment)

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                         "..", ".."))
RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")

EXPECTED = ["table1", "fig2", "fig9", "table2", "table3", "fig10",
            "fig11", "table4", "fig12", "ablation_coarse_budget",
            "ablation_patch_candidates", "serve_replay",
            "occupancy_profile"]


def _read_cache_knob():
    import os

    from repro.core.scene_cache import ENV_KNOB

    return os.environ.get(ENV_KNOB)


class TestRegistryShape:
    def test_all_paper_experiments_registered(self):
        assert experiment_names() == EXPECTED

    def test_every_experiment_declares_a_committed_artefact(self):
        for experiment in all_experiments():
            path = os.path.join(RESULTS_DIR, f"{experiment.artefact}.txt")
            assert os.path.isfile(path), \
                f"{experiment.name}: missing artefact {path}"

    def test_lookup_and_error_path(self):
        assert get_experiment("table1").name == "table1"
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("nope")

    def test_unknown_override_rejected(self):
        with pytest.raises(KeyError, match="unknown parameter"):
            get_experiment("table1").run(not_a_param=1)

    def test_context_seed_overrides_seed_param(self):
        experiment = get_experiment("fig10")
        params = experiment.bind(RunContext(seed=7), {})
        assert params["seed"] == 7
        # Explicit overrides beat the context.
        params = experiment.bind(RunContext(seed=7), {"seed": 3})
        assert params["seed"] == 3

    def test_run_honours_context_cache_dir(self, tmp_path, monkeypatch):
        # ctx.cache_dir must reach the units (and pool workers) via the
        # exported env knob for the duration of the run — programmatic
        # callers get the disk cache without touching os.environ — and
        # the previous env value must be restored afterwards.
        import os

        from repro.core.registry import Experiment
        from repro.core.scene_cache import ENV_KNOB

        probe = Experiment(
            name="knob-probe", title="probe", kind="table",
            artefact="unused", description="reads the exported knob",
            params={},
            units=lambda ctx, params: [(_read_cache_knob, {})],
            reduce=lambda results, params: results[0],
            render=lambda rows, params: str(rows))
        monkeypatch.delenv(ENV_KNOB, raising=False)
        result = probe.run(RunContext(cache_dir=str(tmp_path)))
        assert result.rows == str(tmp_path)
        assert ENV_KNOB not in os.environ
        monkeypatch.setenv(ENV_KNOB, "previous")
        probe.run(RunContext(cache_dir=str(tmp_path)))
        assert os.environ[ENV_KNOB] == "previous"

    def test_scale_rules_clamp_at_floor(self):
        experiment = get_experiment("table2")
        params = experiment.bind(RunContext(scale=0.1), {})
        assert params["train_steps"] == 30       # 300 * 0.1
        params = experiment.bind(RunContext(scale=0.001), {})
        assert params["train_steps"] == 6        # the floor
        # scale=1 keeps the committed-artefact configuration.
        assert experiment.bind(RunContext(), {}) == dict(experiment.params)


class TestArtefactByteIdentity:
    """The registry's render path reproduces the committed artefacts
    byte for byte (the cheap ones here; training/figure-scale ones are
    covered by the ``benchmarks/`` harnesses regenerating with zero
    drift)."""

    @pytest.mark.parametrize("name", ["table1", "fig2"])
    def test_fast_artefacts_identical(self, name):
        experiment = get_experiment(name)
        committed = open(os.path.join(
            RESULTS_DIR, f"{experiment.artefact}.txt")).read()
        assert experiment.run().text + "\n" == committed

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ["ablation_patch_candidates",
                                      "table4", "fig10", "fig11",
                                      "fig12", "fig9",
                                      "ablation_coarse_budget"])
    def test_hardware_artefacts_identical(self, name):
        experiment = get_experiment(name)
        committed = open(os.path.join(
            RESULTS_DIR, f"{experiment.artefact}.txt")).read()
        assert experiment.run().text + "\n" == committed


class TestRegistryMatchesLegacy:
    """Registry runs at downscaled parameters: every override binds and
    the rows keep their structure."""

    def test_table1(self):
        get_experiment("table1").run()

    def test_fig2(self):
        get_experiment("fig2").run()

    def test_table4(self):
        get_experiment("table4").run()

    def test_fig9_tiny(self):
        overrides = dict(datasets=("nerf_synthetic",), step=16,
                         image_scale=1 / 16, pairs=((4, 8),),
                         uniform_points=(12,), reference_points=64)
        get_experiment("fig9").run(**overrides)

    def test_fig11_tiny(self):
        overrides = dict(view_counts=(6, 2), point_counts=(96,))
        via_registry = get_experiment("fig11").run(**overrides).rows
        assert [row["num_views"]
                for row in via_registry["views"]] == [6, 2]

    def test_fig12_tiny(self):
        overrides = dict(view_counts=(2,))
        via_registry = get_experiment("fig12").run(**overrides).rows
        assert set(via_registry[2]) == {"ours", "var1", "var2", "var3"}

    def test_coarse_budget_tiny(self):
        overrides = dict(image_scale=1 / 16, step=8, coarse_counts=(8,),
                         taus=(1e-3,), focused=16)
        get_experiment("ablation_coarse_budget").run(**overrides)

    def test_patch_candidates(self):
        get_experiment("ablation_patch_candidates").run()

    @pytest.mark.slow
    def test_table2_tiny(self):
        overrides = dict(train_steps=6, eval_step=16, image_scale=1 / 16,
                         num_points=10, scenes=("fortress",),
                         num_source_views=4)
        via_registry = get_experiment("table2").run(**overrides).rows
        assert len(via_registry) == 7

    @pytest.mark.slow
    def test_table3_tiny(self):
        overrides = dict(train_steps=5, finetune_steps=3, eval_step=16,
                         image_scale=1 / 16, num_points=10,
                         view_counts=(4,))
        via_registry = get_experiment("table3").run(**overrides).rows
        assert len(via_registry) == 2


class TestOneFrameExperimentsStayInProcess:
    """fig10 and table4 are one unit each, and the simulator runs each
    frame in one process: a wider context changes no row and opens no
    process pool."""

    @pytest.mark.parametrize("name", ["fig10", "table4"])
    def test_width_two_opens_no_pool(self, name, monkeypatch):
        sequential = get_experiment(name).run(RunContext(workers=1))

        def no_pool(*args, **kwargs):
            # Not OSError: the pooled loop turns that into a fallback.
            raise AssertionError(f"{name} opened a frame pool")

        monkeypatch.setattr(frame_pool, "get_pool", no_pool)
        wide = get_experiment(name).run(RunContext(workers=2))
        assert wide.rows == sequential.rows
        assert wide.text == sequential.text


class TestRenderAndRegenerate:
    def test_render_contains_title_and_rows(self):
        result = get_experiment("table1").run()
        assert "Table 1 — Gen-NeRF hardware module area/power" \
            in result.text
        assert "Workload Scheduler" in result.text

    def test_regenerate_writes_artefact_elsewhere(self, tmp_path):
        ctx = RunContext(results_dir=str(tmp_path))
        result, path = get_experiment("table1").regenerate(ctx)
        assert path == str(tmp_path / "table1_area_power.txt")
        assert open(path).read() == result.text + "\n"


class TestSweep:
    def test_parse_grid_defaults_and_overrides(self):
        from repro.core.registry import parse_sweep_grid

        grid = parse_sweep_grid(["views=2,6", "variant=ours,var1"])
        assert grid["views"] == (2, 6)
        assert grid["variant"] == ("ours", "var1")
        assert grid["dataset"] == ("nerf_synthetic",)
        assert grid["points"] == (64,)

    @pytest.mark.parametrize("token", ["bogus=1", "views=", "views=,",
                                       "views=x", "views=-2",
                                       "dataset=unknown", "variant=var9"])
    def test_parse_grid_rejects_bad_tokens(self, token):
        from repro.core.registry import parse_sweep_grid

        with pytest.raises(ValueError):
            parse_sweep_grid([token])

    def test_two_point_sweep_rows_and_text(self):
        rows, text = core.run_sweep(
            {"dataset": ("deepvoxels",), "views": (2,), "points": (8,),
             "variant": ("ours", "var1")},
            RunContext(workers=1))
        assert [row["variant"] for row in rows] == ["ours", "var1"]
        assert all(row["gen_nerf_fps"] > 0 for row in rows)
        assert "Registry sweep — 2 grid point(s)" in text
        assert "deepvoxels" in text
