GO ?= go
STATICCHECK_VERSION ?= 2025.1.1

# Minimum statement coverage for internal/ir (the scoring/compaction
# core), enforced by `make cover`. Measured across the whole module's
# tests (-coverpkg): the ir hot paths are deliberately exercised through
# the engine, server, and snapshot suites too.
COVER_MIN_IR ?= 90.0

# Minimum statement coverage for internal/eval (the relevance-gate
# machinery: golden sets, rank metrics, the offline/online harness) —
# the gate that judges quality must itself stay tested.
COVER_MIN_EVAL ?= 85.0

.PHONY: build test bench-module race vet fmt-check staticcheck smoke snapshot-smoke mmap-smoke compact-smoke cluster-smoke eval-smoke smoke-selftest soak bench bench-json bench-regression eval cover ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench-module vets and tests the benchmark driver, a Go module of its
# own that `go test ./...` never compiles: a removed or renamed symbol
# the driver calls fails here instead of at the next benchmark run.
bench-module:
	cd benchmark && GOTOOLCHAIN=local $(GO) vet ./... && GOTOOLCHAIN=local $(GO) test ./...

# Race-check the packages with concurrent hot paths: parallel engine
# build, sharded scoring, live instance mutation, online compaction,
# snapshot dump, the scatter-gather coordinator and WAL replication,
# and the HTTP serving layer.
race:
	$(GO) test -race ./internal/search/... ./internal/ir/... ./internal/cluster/... ./internal/server/... ./internal/snapshot/...

# soak runs the churn-soak compaction test — concurrent mutators,
# searchers, and a compactor looping epoch swaps under the race
# detector, with sequential-replay parity at the end — at the long
# QUNITS_SOAK scale. The same test runs at its short scale inside
# `make race`; this target is the deeper pass CI runs alongside it.
soak:
	QUNITS_SOAK=1 $(GO) test -race -run 'TestChurnSoakCompaction' -count=1 ./internal/search

# vet covers the whole module; the explicit ./examples/... invocation
# keeps the example programs covered even if they ever move behind a
# build tag or their own module. The GOOS=windows pass type-checks the
# files behind `!unix` build tags, such as the snapshot loader's
# no-mmap fallback, which a Linux build never compiles.
vet:
	$(GO) vet ./...
	$(GO) vet ./examples/...
	GOOS=windows $(GO) vet ./...

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

# staticcheck runs honnef.co/go/tools without adding a module
# dependency; it needs network access to fetch the tool, so it is a CI
# step rather than part of the offline `ci` target.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# smoke boots qunitsd and drives the HTTP surface (/healthz, /v1/search
# single+batch, /v1/feedback, /v1/instances, legacy /search, /stats
# counters and latency quantiles, graceful shutdown) with curl.
smoke:
	./scripts/smoke.sh basic

# snapshot-smoke drives the persistence cycle end to end: boot with
# -snapshot, add an instance over /v1, SIGTERM (writes the snapshot),
# restart from it, and assert the added instance is still searchable.
snapshot-smoke:
	./scripts/smoke.sh snapshot

# mmap-smoke drives the memory-mapped serving path end to end: snapshot
# a synth corpus, reboot with -mmap, and require the mapped path to
# engage, serve byte-identical /v1/search responses to a copying load
# of the same snapshot, accept live mutations, and boot well under the
# fresh-build time.
mmap-smoke:
	./scripts/smoke.sh mmap

# compact-smoke drives online compaction under live load: accumulate
# tombstones over /v1/instances, POST /v1/compact while a background
# search loop hammers the server, and assert /stats reclamation plus
# unchanged results.
compact-smoke:
	./scripts/smoke.sh compact

# cluster-smoke boots a coordinator over two partition nodes (a
# WAL-writing primary and a tailing follower) next to an
# identically-seeded single node, then drives searches, a live instance
# add, feedback, and a compaction through both stacks and diffs the
# scrubbed /v1 responses byte for byte.
cluster-smoke:
	./scripts/smoke.sh cluster

# smoke-selftest is the smoke harness's negative control: a passing
# basic run must exit 0 and one forced to fail (SMOKE_FORCE_FAIL=1) must
# exit 1, so every smoke target's exit code means what it says.
smoke-selftest:
	./scripts/smoke.sh selftest

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# bench-json runs the full benchmark suite once and writes the results
# as JSON to BENCH.json, so benchmark trajectories are reproducible and
# diffable across commits. The top-k scoring and compaction pairs
# additionally get a longer pass so the committed ratios — the
# machine-independent numbers bench-regression gates on — are measured
# with low noise (benchcheck prefers the higher-iteration entries).
bench-json:
	( $(GO) test -bench=. -benchtime=1x -run='^$$' . && \
	  $(GO) test -bench=BenchmarkTopKScoring -benchtime=50x -run='^$$' . && \
	  $(GO) test -bench=BenchmarkCompactedPruning -benchtime=200x -run='^$$' . && \
	  $(GO) test -bench=BenchmarkBatchAmortized -benchtime=30x -count=3 -run='^$$' . ) \
	  | $(GO) run ./cmd/benchjson > BENCH.json
	@echo "wrote BENCH.json"

# bench-regression gates the three scoring-path ratios, all
# machine-independent (ratios between benchmarks of the same run, never
# raw ns/op):
#   - pruned vs exhaustive top-k (>= 2x floor, <= 20% erosion vs the
#     committed BENCH.json baseline);
#   - compacted vs 50%-tombstoned pruning on a single-shard posting-walk
#     workload (>= 1.1x floor, wider erosion slack; the honest ratio is
#     ~1.3x), so the bound decay compaction reverses cannot silently
#     return;
#   - one-pass amortized batch vs serial per-item execution on a
#     64-query mixed batch (>= 1.8x floor; typical is ~2.0-2.3x — the
#     serial side runs the pooled zero-allocation search path now, so
#     the honest amortization ratio tightened from the original
#     ~2.3-2.4x). Run at -count=3 — benchcheck takes each side's
#     fastest repetition, so a noisy-neighbor blip during one
#     repetition cannot flip the ratio.
# Plus one absolute gate: the pruned-search allocation budget
# (benchcheck -allocs). Allocation counts are exact and
# machine-independent, so the committed ceiling needs no baseline; it
# pins the zero-allocation scrub of the query hot path.
bench-regression:
	$(GO) test -bench=BenchmarkTopKScoring -benchtime=50x -count=2 -run='^$$' . \
	  | $(GO) run ./cmd/benchjson > bench_topk.json
	$(GO) run ./cmd/benchcheck -current bench_topk.json -baseline BENCH.json
	$(GO) test -bench=BenchmarkCompactedPruning -benchtime=200x -count=2 -run='^$$' . \
	  | $(GO) run ./cmd/benchjson > bench_compact.json
	$(GO) run ./cmd/benchcheck -current bench_compact.json -baseline BENCH.json \
	  -fast 'BenchmarkCompactedPruning/compacted/k=1' \
	  -slow 'BenchmarkCompactedPruning/tombstoned/k=1' \
	  -min-speedup 1.1 -max-regress 0.35
	$(GO) test -bench=BenchmarkBatchAmortized -benchtime=30x -count=3 -run='^$$' . \
	  | $(GO) run ./cmd/benchjson > bench_batch.json
	$(GO) run ./cmd/benchcheck -current bench_batch.json -baseline BENCH.json \
	  -fast 'BenchmarkBatchAmortized/onepass' \
	  -slow 'BenchmarkBatchAmortized/serial' \
	  -min-speedup 1.8 -max-regress 0.35
	$(GO) test -bench=BenchmarkTopKAllocs -benchmem -benchtime=200x -count=2 -run='^$$' ./internal/ir \
	  | $(GO) run ./cmd/benchjson > bench_allocs.json
	$(GO) run ./cmd/benchcheck -allocs bench_allocs.json -alloc-bench BenchmarkTopKAllocs -max-allocs 12
	@rm -f bench_topk.json bench_compact.json bench_batch.json bench_allocs.json

# eval is the relevance gate: run both committed golden sets offline
# through cmd/eval, enforce each set's committed Precision@k/NDCG@k
# floors, and write the deterministic BENCH_EVAL.json report.
eval:
	$(GO) run ./cmd/eval -golden imdb -golden university -json BENCH_EVAL.json

# eval-smoke boots qunitsd on the IMDb golden corpus and runs the same
# gate online over POST /v1/search, asserting the report is
# byte-identical to the offline run — the serving stack cannot change
# what the gate measures.
eval-smoke:
	./scripts/smoke.sh eval

# cover runs the suite once with every package instrumented
# (-coverpkg=./...) and writes the profile CI uploads as an artifact. It
# then gates internal/ir — the scoring/compaction core — and
# internal/eval — the relevance-gate machinery — on minimum statement
# coverage, so new retrieval or evaluation code cannot land untested.
cover:
	$(GO) test -coverpkg=./... -coverprofile=coverage.out ./internal/... .
	$(call cover_floor,internal/ir,$(COVER_MIN_IR))
	$(call cover_floor,internal/eval,$(COVER_MIN_EVAL))

# cover_floor PKG,MIN fails when PKG's own statements in coverage.out are
# covered below MIN percent. The profile repeats each block once per test
# binary; a block counts once, as covered if any binary hit it.
define cover_floor
@awk -v pkg='qunits/$(1)' -v min='$(2)' ' \
	NR > 1 { dir = $$1; sub(/\/[^\/]*$$/, "", dir); if (dir != pkg) next; \
		n[$$1] = $$2; if ($$3 > 0) hit[$$1] = 1 } \
	END { for (b in n) { all += n[b]; if (b in hit) got += n[b] } \
		pct = all ? 100 * got / all : 0; \
		printf "%s coverage: %.1f%% (floor %s%%)\n", pkg, pct, min; \
		if (pct < min) { printf "cover: FAIL: %s coverage %.1f%% is below the %s%% floor\n", pkg, pct, min > "/dev/stderr"; exit 1 } }' \
	coverage.out
endef

ci: build fmt-check vet test bench-module race soak smoke smoke-selftest snapshot-smoke mmap-smoke compact-smoke cluster-smoke eval eval-smoke bench bench-regression cover
