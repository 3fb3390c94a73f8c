# Convenience targets for the qsub reproduction.

GO ?= go

.PHONY: all build test vet race race-delivery bench bench-save bench-compare check cover experiments fuzz loadtest clean

# Coverage floor for the observability layer: the metrics registry is
# the contract every hot path leans on, so its package stays near-fully
# covered.
METRICS_COVER_FLOOR := 85.0

all: build test

# The full pre-merge gate: build, vet and the race-enabled test suite
# (the parallel solvers make -race load-bearing, not optional), plus a
# smoke run of the sharded planning pipeline through the simulator.
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) run ./cmd/qsubsim -exp sharding -shards 16 -aggregate

# Focused vet + race leg for the sharded planning pipeline plus the
# neighbor-pruned/anytime/incremental solver paths: fast enough for a
# pre-push hook, strict enough to catch data races in the per-shard
# worker pool and the budget's atomic step accounting.
vet:
	$(GO) vet ./...
	$(GO) test -race ./internal/shard
	$(GO) test -race -run 'Neighbor|Budget|Incremental|Replan' \
		./internal/core ./internal/chanalloc ./internal/server

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race leg for the delivery layer: the Publish/Cancel stress
# test, session-lifecycle and reconnect paths run multiple times so the
# scheduler explores more interleavings than one -race pass would.
race-delivery:
	$(GO) test -race -count=3 ./internal/multicast ./internal/fabric ./internal/daemon ./internal/relay ./internal/netclient ./internal/netfault ./internal/client

# Coverage report with a hard floor on internal/metrics (see
# METRICS_COVER_FLOOR above). The full-repo profile is informational;
# only the metrics package gates.
cover:
	$(GO) test -coverprofile=/tmp/qsub-cover.out ./...
	$(GO) tool cover -func=/tmp/qsub-cover.out | tail -1
	$(GO) test -coverprofile=/tmp/qsub-metrics-cover.out ./internal/metrics
	@total=$$($(GO) tool cover -func=/tmp/qsub-metrics-cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/metrics coverage: $$total% (floor $(METRICS_COVER_FLOOR)%)"; \
	awk -v t="$$total" -v floor="$(METRICS_COVER_FLOOR)" 'BEGIN { exit (t+0 < floor+0) ? 1 : 0 }' \
		|| { echo "FAIL: internal/metrics coverage below floor"; exit 1; }

bench:
	$(GO) test -bench=. -benchmem ./...

# Short-mode fan-out load harness: 500 real TCP sessions through the
# split-process driver, sanity-gating the delivery fabric on every CI
# run without the full
# 10k-session measurement (that lives in `make bench-save`). The second
# run gates end-to-end latency: publish→receive p99 must be nonzero
# (frames carried timestamps) and under a deliberately generous 2s
# ceiling — a sanity floor, not a performance target. The third run is
# the relay smoke leg: one root → 2 relays → 500 sessions, exercising
# the hierarchical tier's exact-delivery cross-checks end to end.
loadtest:
	$(GO) run ./cmd/qsubload -sessions 500 -channels 8 -cycles 2
	$(GO) run ./cmd/qsubload -sessions 500 -channels 8 -cycles 2 -latency -assert-p99 2s
	$(GO) run ./cmd/qsubload -sessions 500 -channels 8 -cycles 2 -relays 2

# Runs the solver-engine, channel-allocation and dissemination-engine
# benchmarks and records them as JSON for committing alongside the code
# (see DESIGN.md "Solver engine" and "Dissemination engine").
bench-save:
	$(GO) test -run - \
		-bench 'BenchmarkPairMerge$$|BenchmarkPairMergeHeap|BenchmarkPairMergeTable|BenchmarkPairMergeNaive|BenchmarkDirectedSearchParallel|BenchmarkClusteringParallel' \
		-benchmem -benchtime 2x . \
		| $(GO) run ./cmd/benchjson -o BENCH_solvers.json
	$(GO) test -run - \
		-bench 'BenchmarkInitialDistribution|BenchmarkHillClimb|BenchmarkHeuristic|BenchmarkMultiStart' \
		-benchmem -benchtime 1x ./internal/chanalloc \
		| $(GO) run ./cmd/benchjson -o BENCH_chanalloc.json
	{ $(GO) test -run - \
		-bench 'BenchmarkPublishFull|BenchmarkPublishDelta' \
		-benchmem -benchtime 2x ./internal/server; \
	  $(GO) test -run - \
		-bench 'BenchmarkClientHandle' \
		-benchmem -benchtime 200x ./internal/client; \
	  $(GO) test -run - \
		-bench 'BenchmarkMarshalMessage' \
		-benchmem -benchtime 500x ./internal/wire; } \
		| $(GO) run ./cmd/benchjson -o BENCH_publish.json
	$(GO) test -run - \
		-bench 'BenchmarkShardPlan|BenchmarkAggregate' \
		-benchmem -benchtime 1x ./internal/shard \
		| $(GO) run ./cmd/benchjson -o BENCH_sharding.json
	$(GO) test -run - \
		-bench 'BenchmarkSolverScaleFull|BenchmarkSolverScalePruned|BenchmarkSolverScaleBudget|BenchmarkReplanChurn' \
		-benchmem -benchtime 2x . \
		| $(GO) run ./cmd/benchjson -o BENCH_solvers_scale.json
	{ $(GO) run ./cmd/qsubload -sessions 2000 -channels 16 -cycles 3 -latency; \
	  $(GO) run ./cmd/qsubload -sessions 2000 -channels 16 -cycles 3 -relays 2 -latency; \
	  $(GO) run ./cmd/qsubload -sessions 10000 -channels 64 -cycles 3 -timeout 10m -latency; } \
		> /tmp/qsubload-fanout.txt
	grep '^BenchmarkFanout' /tmp/qsubload-fanout.txt \
		| $(GO) run ./cmd/benchjson -o BENCH_fanout.json
	grep '^BenchmarkLatency' /tmp/qsubload-fanout.txt \
		| $(GO) run ./cmd/benchjson -o BENCH_latency.json

# Diffs a fresh bench-save against the committed baselines, failing on
# >20% time/op or allocs/op regressions.
bench-compare:
	cp BENCH_solvers.json /tmp/BENCH_solvers.baseline.json
	cp BENCH_chanalloc.json /tmp/BENCH_chanalloc.baseline.json
	cp BENCH_publish.json /tmp/BENCH_publish.baseline.json
	cp BENCH_sharding.json /tmp/BENCH_sharding.baseline.json
	cp BENCH_solvers_scale.json /tmp/BENCH_solvers_scale.baseline.json
	cp BENCH_fanout.json /tmp/BENCH_fanout.baseline.json
	cp BENCH_latency.json /tmp/BENCH_latency.baseline.json
	$(MAKE) bench-save
	$(GO) run ./cmd/benchjson compare /tmp/BENCH_solvers.baseline.json BENCH_solvers.json
	$(GO) run ./cmd/benchjson compare /tmp/BENCH_chanalloc.baseline.json BENCH_chanalloc.json
	$(GO) run ./cmd/benchjson compare /tmp/BENCH_publish.baseline.json BENCH_publish.json
	$(GO) run ./cmd/benchjson compare /tmp/BENCH_sharding.baseline.json BENCH_sharding.json
	$(GO) run ./cmd/benchjson compare /tmp/BENCH_solvers_scale.baseline.json BENCH_solvers_scale.json
	$(GO) run ./cmd/benchjson compare /tmp/BENCH_fanout.baseline.json BENCH_fanout.json
	$(GO) run ./cmd/benchjson compare /tmp/BENCH_latency.baseline.json BENCH_latency.json

# Regenerates every table and figure (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/qsubsim -exp all -trials 200

fuzz:
	$(GO) test ./internal/wire -fuzz FuzzUnmarshalMessage -fuzztime 30s
	$(GO) test ./internal/wire -fuzz FuzzUnmarshalSubscribe -fuzztime 30s
	$(GO) test ./internal/wire -fuzz FuzzUnmarshalRelaySub -fuzztime 30s
	$(GO) test ./internal/wire -fuzz FuzzUnmarshalRelayAck -fuzztime 30s
	$(GO) test ./internal/wire -fuzz FuzzUnmarshalRelayCtl -fuzztime 30s
	$(GO) test ./internal/geom -fuzz FuzzDisjointCover -fuzztime 30s
	$(GO) test ./internal/geom -fuzz FuzzConvexHull -fuzztime 30s

clean:
	$(GO) clean ./...
