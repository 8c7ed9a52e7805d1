GO ?= go

.PHONY: tier1 build vet test race race-repeat soak-short chaos byzantine perfbench-smoke bench bench-runner bench-short bench-all bench-diff fuzz fuzz-short trace-demo figures-diff

# tier1 is the merge gate: everything must pass before a change lands.
tier1: build vet test race byzantine soak-short perfbench-smoke bench-short fuzz-short bench-diff

build:
	$(GO) build ./...

# vet also fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

# race is the unified race pass over every package — the live peer and its
# journal, the fault injectors, the orchestrator, and the observability-
# instrumented layers included. It subsumes the former race-obs /
# race-runner focused targets.
race:
	$(GO) test -race ./...

# race-repeat is the focused -count=2 race pass over the packages with the
# most scheduling-dependent concurrency: incremental selection and coverage
# (session reuse, the shared footprint cache), the metadata cache (photo
# lists shared between a peer's state and its sessions' clones), the live
# peer and its session FSM (commit races, admission, the pipelined chunk-ack
# reader), the wire codec and reassembly store, and the guard's per-peer
# accounting. The second run gives each interleaving another chance to trip
# the detector. CI runs it as one job.
race-repeat:
	$(GO) test -race -count=2 ./internal/selection/ ./internal/coverage/ ./internal/metadata/ ./internal/peer/... ./internal/wire/ ./internal/transfer/ ./internal/guard/

# byzantine is the adversarial-peer property harness: every ByzantinePeer
# strategy (replay, flood, absurd claims, phase desync, poisoned metadata,
# oversized claims), clean and under 30% frame loss, against a guarded
# honest node — whose durable state must come out identical to an
# adversary-free run, with quarantines surviving restart via the journal.
byzantine:
	$(GO) test -race -count=1 -run 'Byzantine|Guard|Quarantine' ./internal/peer/
	$(GO) test -race -count=1 ./internal/guard/ ./internal/peer/session/

# soak-short is the concurrent-serving soak: one serving peer versus N
# simultaneous dialers under the race detector — admission limiting, no
# head-of-line blocking, digest convergence against a serialized reference,
# and the fault-injection invariants (no duplicate or lost deliveries).
soak-short:
	$(GO) test -race -count=1 -run '^TestSoak' ./internal/peer/

# perfbench-smoke runs the end-to-end benchmark's own tests (a short span of
# every workload, untraced and traced). perfbench is a separate Go module, so
# `go test ./...` never reaches it; its smoke test pins the live-mit outcome
# and state digests.
perfbench-smoke:
	$(GO) -C perfbench test ./...

# chaos is the crash-recovery harness: it sweeps a kill across every
# mutating disk operation of a durable peer's write sequence (clean and
# torn-write kills), restarts from disk each time, and requires bit-exact
# convergence with an uninterrupted reference run.
chaos:
	$(GO) test -race -count=1 -v ./internal/peer/ ./internal/journal/ ./internal/faults/

# bench-runner regenerates the committed orchestrator baseline
# BENCH_runner.json (worker-pool scaling, aggregation, seed derivation).
bench-runner:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=200ms ./internal/runner/ \
		| $(GO) run ./cmd/benchjson -o BENCH_runner.json
	@echo "wrote BENCH_runner.json"

# bench regenerates the committed performance baselines: the selection
# micro-benchmarks (construction / Gain / Commit / GreedyFill / stale
# recompute at several scales) into BENCH_selection.json, and the
# engine-level Table-I run and the slow-link transfer into BENCH_engine.json.
# Each document records the CPU and GOMAXPROCS it was measured with.
bench:
	$(GO) test -run='^$$' -bench=BenchmarkEvaluator -benchmem -benchtime=500ms ./internal/selection/ \
		| $(GO) run ./cmd/benchjson -o BENCH_selection.json
	@echo "wrote BENCH_selection.json"
	$(GO) test -run='^$$' -bench='BenchmarkEngineTable1|BenchmarkTransferSlowLink' -benchmem -benchtime=5x . \
		| $(GO) run ./cmd/benchjson -o BENCH_engine.json
	@echo "wrote BENCH_engine.json"

# bench-diff reruns the baseline benchmarks and compares them against the
# committed JSON documents; it fails when any ns/op or allocs/op ratio
# exceeds the threshold. The time threshold is generous because shared CI
# hardware is noisy; allocs/op is exact and is the real tripwire.
bench-diff:
	$(GO) test -run='^$$' -bench=BenchmarkEvaluator -benchmem -benchtime=300ms ./internal/selection/ \
		| $(GO) run ./cmd/benchjson -o .bench_selection_new.json
	$(GO) run ./cmd/benchjson -diff -threshold 1.6 BENCH_selection.json .bench_selection_new.json
	$(GO) test -run='^$$' -bench='BenchmarkEngineTable1|BenchmarkTransferSlowLink' -benchmem -benchtime=3x . \
		| $(GO) run ./cmd/benchjson -o .bench_engine_new.json
	$(GO) run ./cmd/benchjson -diff -threshold 1.6 BENCH_engine.json .bench_engine_new.json
	@rm -f .bench_selection_new.json .bench_engine_new.json
	@echo "bench-diff: no regressions"

# figures-diff builds photodtn-experiments at $(BASE) (any git revision)
# and from this checkout, regenerates every quick-mode report with both
# (-exp all at seeds 1-3; "all" includes the faults, extended and ablations
# figures), and fails on any byte difference: a speedup must leave the paper
# figures byte-identical. The base tree is a git archive in a temporary
# directory, so the repository's git state is never touched. About 2 min.
BASE ?= main
figures-diff:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base"; git archive "$(BASE)" | tar -x -C "$$tmp/base"; \
	$(GO) -C "$$tmp/base" build -o "$$tmp/base-exp" ./cmd/photodtn-experiments; \
	$(GO) build -o "$$tmp/head-exp" ./cmd/photodtn-experiments; \
	for seed in 1 2 3; do \
		"$$tmp/base-exp" -exp all -seed $$seed -quick -runs 2 > "$$tmp/base.txt"; \
		"$$tmp/head-exp" -exp all -seed $$seed -quick -runs 2 > "$$tmp/head.txt"; \
		if ! cmp -s "$$tmp/base.txt" "$$tmp/head.txt"; then \
			echo "figures-diff: seed $$seed reports differ from $(BASE):"; \
			diff "$$tmp/base.txt" "$$tmp/head.txt" | head -40; exit 1; \
		fi; \
		echo "figures-diff: -exp all -seed $$seed -quick -runs 2 identical to $(BASE)"; \
	done

# bench-short is the tier-1 smoke pass: every benchmark must run (a single
# iteration) without failing; timings are not meaningful.
bench-short:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench-all runs every benchmark in the repository with full timings.
bench-all:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

# Fuzz pass over the wire decoders (corruption hardening), the chunk
# reassembly store (bitmap/eviction/checksum invariants against a model
# oracle), and the arc-set geometry kernel every coverage computation
# bottoms out in. The Reassembly patterns are anchored: two targets share
# the prefix.
fuzz:
	$(GO) test -run=Fuzz -fuzz=FuzzRead -fuzztime=30s ./internal/wire/
	$(GO) test -run=Fuzz -fuzz=FuzzDecodeMessage -fuzztime=30s ./internal/wire/
	$(GO) test -run=Fuzz -fuzz='FuzzReassembly$$' -fuzztime=30s ./internal/transfer/
	$(GO) test -run=Fuzz -fuzz='FuzzReassemblyImport$$' -fuzztime=30s ./internal/transfer/
	$(GO) test -run=Fuzz -fuzz=FuzzArcSet -fuzztime=30s ./internal/geo/

# fuzz-short is the tier-1 smoke pass over all fuzz targets: a few seconds
# each, enough to replay the corpus plus a quick mutation burst.
fuzz-short:
	$(GO) test -run=Fuzz -fuzz=FuzzRead -fuzztime=5s ./internal/wire/
	$(GO) test -run=Fuzz -fuzz=FuzzDecodeMessage -fuzztime=5s ./internal/wire/
	$(GO) test -run=Fuzz -fuzz='FuzzReassembly$$' -fuzztime=5s ./internal/transfer/
	$(GO) test -run=Fuzz -fuzz='FuzzReassemblyImport$$' -fuzztime=5s ./internal/transfer/
	$(GO) test -run=Fuzz -fuzz=FuzzArcSet -fuzztime=5s ./internal/geo/

# trace-demo produces a sample observability bundle under trace-demo/: a
# JSONL event trace, the subsystem counters, and the run manifests.
trace-demo:
	mkdir -p trace-demo
	$(GO) run ./cmd/photodtn-sim -span 40 -sample 20 \
		-trace-out trace-demo/events.jsonl -metrics-out trace-demo/metrics.json
	@echo "wrote trace-demo/events.jsonl (+ metrics.json, manifests)"
