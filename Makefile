# Development entry points. Every check in `make ci` also runs in the
# GitHub Actions workflow (.github/workflows/ci.yml), which additionally
# runs staticcheck, govulncheck and bench-smoke.

GO ?= go

.PHONY: all build test race vet fmt fmt-check bench bench-json bench-smoke obs-smoke obs-agg-smoke faults-smoke dse-smoke ledger-smoke diag-smoke fuzz-smoke perfbench-check regress regress-update staticcheck vuln serve ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

# Fails (and lists the offenders) if any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

bench:
	$(GO) test -bench=. -benchmem ./...

# Hot-path micro-benchmarks recorded as a dated JSON report, so the perf
# trajectory of the analysis/simulation kernels stays trackable in-tree.
# Override BENCHTIME (e.g. BENCHTIME=1x) for a smoke run.
BENCHTIME ?= 2s
BENCH_PATTERN ?= ^(BenchmarkStateSpace|BenchmarkSimulate|BenchmarkMapping|BenchmarkHSDF|BenchmarkPlatform|BenchmarkDSE|BenchmarkSolver|BenchmarkEnergy|BenchmarkAnalyze)
BENCH_FILE ?= BENCH_$(shell date +%Y-%m-%d).json

bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime=$(BENCHTIME) -json . \
		| $(GO) run ./cmd/benchjson > $(BENCH_FILE)
	$(GO) run ./cmd/benchjson -verify $(BENCH_FILE)

# CI smoke run: one iteration of every benchmark (guards the benchmark
# code against bit-rot) plus a parseability check of the JSON report.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x -timeout 20m ./...
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(MAKE) bench-json BENCHTIME=1x BENCH_FILE=$$d/bench-smoke.json

# Telemetry-overhead gate: the kernel benchmarks run with obs disabled
# and must not allocate a single byte more per op than the recorded
# baseline (allocs/op is deterministic), and must not slow down by more
# than 20% in ns/op. Each benchmark runs 5 times at benchtime 5x and is
# gated on its median over the runs: a single 5x run reads anywhere from
# 0.7x to 1.3x its steady state on a small machine.
OBS_BASELINE ?= BENCH_2026-08-06.json
OBS_GATES ?= allocs/op:1,ns/op:1.2

obs-smoke:
	$(GO) test -run '^$$' \
		-bench '^(BenchmarkStateSpaceThroughputMJPEG|BenchmarkSimulateMJPEGIteration|BenchmarkSolverMJPEG|BenchmarkEnergyFold)$$' \
		-benchmem -benchtime=5x -count=5 -json . \
		| $(GO) run ./cmd/benchjson -compare $(OBS_BASELINE) -gate '$(OBS_GATES)'

# Run-lake determinism smoke: replay the quick corpus into two fresh
# registries and require the aggregated stats to be byte-identical —
# the fixed-bucket histograms, sorted groups and stable JSON rendering
# of internal/obs/agg leave no room for drift. `list` and `stats` must
# then select the same deadlocked runs, through the one run filter.
# This smoke and ledger-smoke work in a fresh `mktemp -d` directory,
# removed on exit, so two checkouts can run them at once.
obs-agg-smoke:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) run ./cmd/mamps-runs regress -quick -keep $$d/a; \
	$(GO) run ./cmd/mamps-runs regress -quick -keep $$d/b; \
	$(GO) run ./cmd/mamps-runs -dir $$d/a stats -group-by corpus -json > $$d/a.json; \
	$(GO) run ./cmd/mamps-runs -dir $$d/b stats -group-by corpus -json > $$d/b.json; \
	cmp $$d/a.json $$d/b.json; \
	listed=$$($(GO) run ./cmd/mamps-runs -dir $$d/a list -deadlocked -limit 0 | tail -n 1 | cut -d' ' -f3); \
	matched=$$($(GO) run ./cmd/mamps-runs -dir $$d/a stats -deadlocked -json | sed -n 's/^  "matched": \([0-9]*\),$$/\1/p'); \
	if [ -z "$$listed" ] || [ "$$listed" != "$$matched" ]; then \
		echo "obs-agg-smoke: list -deadlocked counts '$$listed' run(s), stats -deadlocked matched '$$matched'"; exit 1; \
	fi
	@echo "obs-agg-smoke: aggregated stats byte-identical across replays; list and stats select the same runs"

# Fault-injection smoke: the reduced seeded conservativeness sweep plus
# the degraded-mode recovery and resilience tests.
faults-smoke:
	$(GO) test ./internal/faults
	$(GO) test -short -run 'TestFault|TestInterrupt|TestDeadlock' ./internal/sim
	$(GO) test -short -run 'TestFlowDegraded|TestFlowFaults' ./internal/flow

# DSE smoke: the E10 solver-vs-greedy experiment doubles as an
# end-to-end assertion — it exits nonzero unless the branch-and-bound
# search matches or beats the greedy binder at every tile count while
# expanding fewer nodes than exhaustive enumeration.
dse-smoke:
	$(GO) run ./cmd/experiments -run dse

# Ledger-integrity smoke: two deterministic replays of the quick corpus
# must produce identical Merkle roots (and byte-identical indexes); a
# single flipped byte in the index must make fsck fail naming the exact
# record; `fsck -repair` must quarantine the damage and leave a clean
# chain behind.
ledger-smoke:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) run ./cmd/mamps-runs regress -quick -deterministic -keep $$d/a; \
	$(GO) run ./cmd/mamps-runs regress -quick -deterministic -keep $$d/b; \
	cmp $$d/a/index.jsonl $$d/b/index.jsonl; \
	$(GO) run ./cmd/mamps-runs -dir $$d/a root > $$d/a.root; \
	$(GO) run ./cmd/mamps-runs -dir $$d/b root > $$d/b.root; \
	cmp $$d/a.root $$d/b.root; \
	$(GO) run ./cmd/mamps-runs -dir $$d/a fsck; \
	size=$$(wc -c < $$d/a/index.jsonl); \
	printf 'X' | dd of=$$d/a/index.jsonl bs=1 seek=$$((size-20)) conv=notrunc status=none; \
	if $(GO) run ./cmd/mamps-runs -dir $$d/a fsck; then \
		echo "ledger-smoke: fsck missed a corrupted byte"; exit 1; \
	fi; \
	$(GO) run ./cmd/mamps-runs -dir $$d/a fsck -repair; \
	$(GO) run ./cmd/mamps-runs -dir $$d/a fsck
	@echo "ledger-smoke: replays identical, corruption detected, repair clean"

# Adaptive-diagnostics smoke: an induced deadlock (and a manual dump)
# must produce a diagnostic bundle carrying the deadlock report and
# blob-addressed profiles, byte-identical across deterministic replays —
# the race detector rides along over the flight recorder. A perturbed
# replay is caught by the zero-tolerance baseline gate (`make regress`).
diag-smoke:
	$(GO) test -race -run 'TestRecorder|TestBundle' ./internal/obs/diag
	$(GO) test -race -run 'TestDebugDumpEndpoint|TestDeadlockDump' ./internal/service
	$(GO) test -run 'TestDeadlockBundleDeterministic' ./internal/corpus
	@echo "diag-smoke: bundles deterministic, dumps carry the deadlock report and profiles"

# Short fuzz runs of the two wire-facing parsers (the index recovery
# scanner and the inclusion-proof decoder), of the Perfetto exporter
# against its encoding/json oracle, and of the exact throughput
# comparison (sdf.Rate's Cmp and Meets) against math/big. Ten seconds
# each is enough to guard against panics/regressions without stalling CI.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseIndex$$' -fuzztime 10s ./internal/runlog
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeProof$$' -fuzztime 10s ./internal/runlog/ledger
	$(GO) test -run '^$$' -fuzz '^FuzzWritePerfetto$$' -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzRateCmp$$' -fuzztime 10s ./internal/sdf

# The end-to-end benchmark program is its own module (perfbench/go.mod,
# replacing mamps with this checkout), so `go test ./...` above never
# compiles it. Its probe calls internal packages directly; vet and test
# it here so an API change that breaks the benchmark fails fast.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Throughput-regression gate: replay the example-graph corpus (small
# analysis graphs + the full MJPEG flow on FSL and NoC) and compare every
# deterministic quantity — throughput bound, measured throughput,
# simulated cycles, states explored, simulator steps — against the
# checked-in baselines with zero tolerance. `make regress-update`
# refreshes the baselines after an intentional change.
regress:
	$(GO) run ./cmd/mamps-runs regress -baselines regress/baselines.json

regress-update:
	$(GO) run ./cmd/mamps-runs regress -update -baselines regress/baselines.json

# Static analysis beyond go vet (requires network to fetch the tool;
# CI runs it as its own job).
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@latest ./...

# Vulnerability scan (requires network for the vuln DB; CI runs it as
# its own job).
vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

serve:
	$(GO) run ./cmd/mamps-serve

ci: build vet fmt-check race obs-smoke obs-agg-smoke faults-smoke dse-smoke ledger-smoke diag-smoke fuzz-smoke perfbench-check regress
