# qucloud-go — build, test, and experiment targets.

GO ?= go

.PHONY: all build vet lint lint-json test race chaos bench bench-json bench-parallel-json bench-compare fuzz-smoke cover experiments examples clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Domain-specific static checks: determinism (norandglobal,
# nowallclock, maporder, detflow), float safety (floateq), concurrency
# hygiene (guardedby, lockorder, atomicmix), cancellation plumbing
# (ctxflow), and output discipline (noprint); see internal/lint and
# `go run ./cmd/qulint -list`.
lint:
	$(GO) run ./cmd/qulint ./...

# Machine-readable lint artifact: the full check set over ./... as a
# JSON object (findings with per-check docs, the selected checks, and
# //lint:ignore suppression counts) written to LINT.json.
lint-json:
	$(GO) run ./cmd/qulint -json ./... > LINT.json

# The default test path runs vet and qulint first, then the full
# suite, then the race detector over the concurrent packages (the
# service, its scheduler dependencies, the daemon, and the sharded
# simulation/compile engines plus their worker pool).
test: vet lint
	$(GO) test ./...
	$(GO) test -race ./internal/service/... ./internal/fleet/... ./internal/sched/... ./internal/cloudsim/... ./cmd/qucloudd/... ./internal/sim/... ./internal/core/... ./internal/pool/... ./internal/ccache/...
	$(MAKE) chaos

# Fault-injection chaos suite: drives the full qucloudd HTTP service
# through injected panics, timeouts, and error bursts under the race
# detector (see internal/service/chaos_test.go and DESIGN.md §10).
chaos:
	$(GO) test -race -run 'TestChaos' ./internal/service/...

# Full race-detector sweep over every package (slow).
race:
	$(GO) test -race ./...

# Short test run (skips the large-chip stress cases).
test-short:
	$(GO) test -short ./...

# Full benchmark sweep: regenerates every table and figure. Slow (~10 min).
bench:
	$(GO) test -bench=. -benchmem ./...

# Short fuzz pass over the two untrusted-input parsers (QASM source and
# device-spec JSON). Go allows one -fuzz target per invocation, so each
# gets its own ~10s budget; the checked-in corpora under testdata/fuzz
# replay on every plain `go test` run as well.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseQASMString -fuzztime 10s ./internal/circuit
	$(GO) test -run '^$$' -fuzz FuzzDeviceSpec -fuzztime 10s ./internal/arch

# Machine-readable benchmark records: the sequential-vs-parallel
# Simulate micro-benches, the packed-vs-boolean tableau pair, the
# SABRE/X-SWAP routing benches, the Table 2 compile pipeline, the SRB
# estimate, and the CDAP partitioner plus the EPST scheduler go to
# BENCH_parallel.json; the cold-vs-warm compile-cache pair goes to
# BENCH_cache.json with a derived warm_speedup ratio; the 1-vs-4-chip
# fleet dispatch sweep (throughput and p99 wait per policy) goes to
# BENCH_fleet.json with a derived scale-out ratio. Every run in
# BENCH_parallel.json is pinned to -cpu 1: bench-compare matches entries
# by (group, name, procs), so an unpinned run on a multi-core host
# would match nothing against the committed baseline.
BENCH_PARALLEL ?= BENCH_parallel.json
bench-parallel-json:
	$(GO) test -run '^$$' -bench 'BenchmarkSimulate(Clifford)?(Sequential|Parallel)$$' -benchtime 3x -cpu 1 ./internal/sim \
		| $(GO) run ./cmd/benchjson -o $(BENCH_PARALLEL) -label simulate
	$(GO) test -run '^$$' -bench 'Benchmark(PackedVsBooleanTableau|TableauMeasureHeavy)/' -benchtime 10x -cpu 1 ./internal/sim \
		| $(GO) run ./cmd/benchjson -o $(BENCH_PARALLEL) -label tableau -append \
			-ratio packed_speedup=PackedVsBooleanTableau/boolean/PackedVsBooleanTableau/packed
	$(GO) test -run '^$$' -bench 'BenchmarkRoute(SABRE|XSWAP)$$' -benchtime 50x -cpu 1 . \
		| $(GO) run ./cmd/benchjson -o $(BENCH_PARALLEL) -label route -append
	$(GO) test -run '^$$' -bench 'BenchmarkTable2$$' -benchtime 1x -cpu 1 . \
		| $(GO) run ./cmd/benchjson -o $(BENCH_PARALLEL) -label table2 -append
	$(GO) test -run '^$$' -bench 'BenchmarkSRBEstimate$$' -benchtime 20x -cpu 1 ./internal/srb \
		| $(GO) run ./cmd/benchjson -o $(BENCH_PARALLEL) -label srb -append
	$(GO) test -run '^$$' -bench 'Benchmark(CDAPPartition|Scheduler)$$' -benchtime 20x -cpu 1 . \
		| $(GO) run ./cmd/benchjson -o $(BENCH_PARALLEL) -label partition -append

bench-json: bench-parallel-json
	$(GO) test -run '^$$' -bench 'BenchmarkCacheCompile(Cold|Warm)$$' -benchtime 20x . \
		| $(GO) run ./cmd/benchjson -o BENCH_cache.json -label cache \
			-ratio warm_speedup=CacheCompileCold/CacheCompileWarm
	$(GO) test -run '^$$' -bench 'BenchmarkFleet(1|4)Chip' -benchtime 3x ./internal/service \
		| $(GO) run ./cmd/benchjson -o BENCH_fleet.json -label fleet \
			-ratio scaleout_speedup=Fleet1ChipBalanced/Fleet4ChipBalanced
	$(MAKE) bench-service-json

# Multi-tenant fairness artifact: a 100k-job, four-tenant (4:2:1:1
# weights) Poisson loadgen through the WFQ front end; records Jain's
# fairness index over weight-normalized completions, the end-to-end
# p99 latency, and throughput in BENCH_service.json. Slow (~3 min).
bench-service-json:
	$(GO) test -run '^$$' -bench 'BenchmarkTenantLoadgen$$' -benchtime 1x ./internal/service \
		| $(GO) run ./cmd/benchjson -o BENCH_service.json -label service

# Benchmark-regression gate: regenerate the BENCH_parallel.json groups
# into a scratch file and compare them against the committed baseline.
# Fails (exit 1) when any benchmark slowed past the threshold, when a
# baseline benchmark is missing from the new run, or when nothing
# matched at all; the scratch file is kept on failure for inspection.
BENCH_THRESHOLD ?= 1.6
bench-compare:
	$(MAKE) bench-parallel-json BENCH_PARALLEL=BENCH_parallel.new.json
	$(GO) run ./cmd/benchjson -compare -threshold $(BENCH_THRESHOLD) BENCH_parallel.json BENCH_parallel.new.json
	rm -f BENCH_parallel.new.json

cover:
	$(GO) test -cover ./...

# Text-table reproduction of the paper's evaluation section.
experiments: build
	$(GO) run ./cmd/quexp -exp all

examples: build
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/multiprogramming
	$(GO) run ./examples/cloudscheduler
	$(GO) run ./examples/chipexplorer
	$(GO) run ./examples/cloudservice

clean:
	$(GO) clean ./...
