# Developer entry points.  PYTHONPATH=src everywhere: the package is
# used in-tree, no editable install required.

PYTEST := PYTHONPATH=src python -m pytest
HARNESS := PYTHONPATH=src python -m benchmarks.harness
REPRO := PYTHONPATH=src python -m repro

.PHONY: test test-all bench bench-e2e bench-train bench-shard bench-serve bench-sparse bench-encode bench-smoke perf docs-check sweep-smoke batch-smoke serve-smoke check

BATCH_SMOKE_OUT := /tmp/repro-batch-smoke

test:      ## fast inner loop: unit/property tests, no figure harnesses
	$(PYTEST) -q -m "not slow"

test-all:  ## full tier-1 suite (tests + paper figure/table harnesses)
	$(PYTEST) -x -q

bench:     ## hot-path perf harness -> BENCH_hotpaths.json (fails on >25% regression)
	$(HARNESS)

bench-e2e: ## end-to-end benches only (render_rays + scheduler slab sweep)
	$(HARNESS) --only render_rays_e2e_r1024 scheduler_slab_sweep

bench-train: ## training benches only (fused-Adam/GT-cache fast path vs seed loop)
	$(HARNESS) --only training_step_e2e_gen_nerf training_step_e2e_ibrnet autograd_training_step_mlp

bench-shard: ## intra-frame render sharding bench (sharded vs sequential frame render)
	$(HARNESS) --only frame_sharded

bench-serve: ## serving bench only (coalesced replay vs sequential serving)
	$(HARNESS) --only serve_replay

bench-sparse: ## sparse fine-pass benches (packed vs padded at 10/50/90% occupancy)
	$(HARNESS) --only sparse_fine_pass_occ10 sparse_fine_pass_occ50 sparse_fine_pass_occ90

bench-encode: ## footprint-restricted training encode vs full encode (4/16-ray batches)
	$(HARNESS) --only train_encode_footprint_r4 train_encode_footprint_r16

bench-smoke: ## one quick round of every bench body (incl. sharding), no JSON write
	$(HARNESS) --smoke

perf:      ## pytest-benchmark microbenches (statistical timings)
	$(PYTEST) -q -m bench

docs-check: ## README/docs links and code references resolve
	$(PYTEST) -q tests/test_docs.py

sweep-smoke: ## tiny registry-driven sweep through the CLI (seconds)
	$(REPRO) sweep dataset=deepvoxels views=2 points=16 variant=ours,var1 --workers 1

serve-smoke: ## one JSON request through the real serve daemon (seconds)
	echo '{"scene": "fern", "quality": "draft"}' | $(REPRO) serve --source-points 16 | grep -q '"status": "ok"'

batch-smoke: ## 3-job batch ingestion demo: 2 artefacts + 1 quarantined (seconds)
	rm -rf $(BATCH_SMOKE_OUT)
	$(REPRO) batch examples/batch_jobs --out $(BATCH_SMOKE_OUT)
	test -f $(BATCH_SMOKE_OUT)/table1_from_batch.txt
	test -f $(BATCH_SMOKE_OUT)/b_patch_candidates.txt
	test -f $(BATCH_SMOKE_OUT)/batch_summary.txt
	test -f $(BATCH_SMOKE_OUT)/errors/c_broken_spec.json
	test -f $(BATCH_SMOKE_OUT)/errors/c_broken_spec.report.txt

check: test docs-check sweep-smoke batch-smoke serve-smoke bench-smoke  ## one command gates a PR: fast tests + docs links + sweep/batch/serve smokes + bench smoke
