# Same targets CI runs (.github/workflows/ci.yml), so local dev and CI
# execute identical commands.

GO ?= go

# Coverage floor (%) enforced on each package in COVER_PKGS.
COVER_FLOOR ?= 70
COVER_PKGS  ?= internal/cache internal/loader internal/server internal/query internal/wal internal/memo internal/obs

# Scratch directory for generated build artifacts (coverage profiles, smoke
# binaries); git-ignored, removed by clean.
BUILD_DIR ?= build

.PHONY: all build test cover lint bench benchcheck allocguard profile suite speccheck querycheck servesmoke distsmoke crashsmoke memosmoke tracesmoke experiments-md clean

all: lint build test

build:
	$(GO) build ./...

# -count=2 reruns every test with a warm cache bypassed: the second run of
# the race battery gets different goroutine interleavings for free.
test:
	$(GO) test -race -count=2 ./...

# Per-package coverage floor on the caches and fetchers the simulator
# drives and on the job service's packages; a refactor that strands their
# tests fails here, not in review. Profiles land in $(BUILD_DIR), not the
# repo root.
cover:
	@mkdir -p $(BUILD_DIR)
	@set -e; for pkg in $(COVER_PKGS); do \
		out=$(BUILD_DIR)/cover-$$(basename $$pkg).out; \
		$(GO) test -coverprofile=$$out ./$$pkg; \
		pct=$$($(GO) tool cover -func=$$out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
		echo "$$pkg coverage: $$pct% (floor $(COVER_FLOOR)%)"; \
		awk -v p=$$pct -v f=$(COVER_FLOOR) 'BEGIN{exit !(p>=f)}' || \
			{ echo "FAIL: $$pkg below coverage floor"; exit 1; }; \
	done

lint:
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi
	$(GO) vet ./...

# One iteration of every benchmark, no unit tests: a compile-and-run smoke
# of the full reproduction harness.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# The repository benchmark (bench/, run by bash bench/run.sh) is its own Go
# module, so root `go test ./...` never builds it: vet and test it here, so
# an API change in the packages it drives (experiments, server, memo)
# cannot break it silently.
benchcheck:
	cd bench && $(GO) vet ./... && $(GO) test -count=1 ./...

# Allocation guards on the hot paths: zero on steady-state cache Lookup,
# page-cache churn, sim event dispatch, every fetcher's Plan and a kept
# sampler's epoch orders, plus ceilings on the object count and heap bytes
# of one whole simulated case and of its later epochs, and no per-case
# objects in a query's scan or in the job service's query-store gather.
# Run WITHOUT -race: the detector allocates shadow state on paths that are
# allocation-free in normal builds, so the guards skip themselves under
# instrumentation.
allocguard:
	$(GO) test -count=1 -run 'TestAllocs' ./internal/sim ./internal/cache ./internal/pagecache ./internal/obs ./internal/core ./internal/dataset ./internal/trainer ./internal/query ./internal/server

# CPU + allocation profiles of one serial full-suite run -> cpu.pprof,
# mem.pprof. Inspect with `go tool pprof -top cpu.pprof` (or mem.pprof
# with -sample_index=alloc_space for bytes, alloc_objects for counts).
# GODEBUG=asyncpreemptoff=1 turns off asynchronous preemption, so CPU
# samples land on their real callers instead of runtime.asyncPreempt.
profile:
	GODEBUG=asyncpreemptoff=1 $(GO) run ./cmd/runsuite -parallel 1 -q -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof mem.pprof"

# Full experiment suite, fanned across all CPUs; one run emits both the
# JSON report (for artifacts) and EXPERIMENTS.md.
suite:
	$(GO) run ./cmd/runsuite -parallel 0 -json -md EXPERIMENTS.md > suite-report.json
	@echo "wrote suite-report.json"

# Declarative-spec gate: every registry experiment expressible as a Spec is
# round-tripped through JSON marshal -> unmarshal -> run and byte-compared
# against the direct registry run, and the committed example scenario
# (testdata/specs/cache-sweep.json — a sweep that exists nowhere in compiled
# code) must load and run clean. A spec that sets the deleted "backend"
# job field, a negative threads_per_gpu, or a scale outside (0, 1] must
# make runsuite exit non-zero with an error naming the field (the scale
# one without a panic's goroutine trace).
speccheck:
	$(GO) test -count=1 -run 'TestSpec|TestLoadSpec' ./internal/experiments
	$(GO) run ./cmd/runsuite -spec testdata/specs/cache-sweep.json > /dev/null
	@mkdir -p $(BUILD_DIR)
	@echo '{"name":"b","base":{"model":"resnet18","scale":0.01,"backend":"concurrent"},"rows":{"cases":[{"label":"r","set":{}}]},"row_header":["model"],"columns":[{"label":"s","metric":"epoch_s"}]}' > $(BUILD_DIR)/backend-spec.json
	! $(GO) run ./cmd/runsuite -spec $(BUILD_DIR)/backend-spec.json > /dev/null 2> $(BUILD_DIR)/backend-spec.err
	grep -q '"backend"' $(BUILD_DIR)/backend-spec.err
	@echo '{"name":"t","base":{"model":"resnet18","scale":0.01,"threads_per_gpu":-2},"rows":{"cases":[{"label":"r","set":{}}]},"row_header":["model"],"columns":[{"label":"s","metric":"epoch_s"}]}' > $(BUILD_DIR)/threads-spec.json
	! $(GO) run ./cmd/runsuite -spec $(BUILD_DIR)/threads-spec.json > /dev/null 2> $(BUILD_DIR)/threads-spec.err
	grep -q 'ThreadsPerGPU' $(BUILD_DIR)/threads-spec.err
	@echo '{"name":"s","base":{"model":"resnet18","scale":1.5},"rows":{"cases":[{"label":"r","set":{}}]},"row_header":["model"],"columns":[{"label":"s","metric":"epoch_s"}]}' > $(BUILD_DIR)/scale-spec.json
	! $(GO) run ./cmd/runsuite -spec $(BUILD_DIR)/scale-spec.json > /dev/null 2> $(BUILD_DIR)/scale-spec.err
	grep -q 'scale' $(BUILD_DIR)/scale-spec.err
	! grep -q 'goroutine' $(BUILD_DIR)/scale-spec.err

# Query gate: the committed example queries run against the committed
# fig18-style scenario (testdata/specs/fig18-query.json) and their NDJSON
# must be byte-identical to the goldens — same no-reblessing discipline as
# the suite goldens. Catches drift anywhere in the chain: simulation,
# case capture, report round-trip, query operators, NDJSON rendering.
# all-cases (every "cases" column) and epochs-join (every "epochs" column
# plus the join) pin the bytes of each column getter.
QUERIES = best-cache epoch-stalls all-cases epochs-join
querycheck:
	@mkdir -p $(BUILD_DIR)
	@set -e; for q in $(QUERIES); do \
		echo "querycheck: $$q"; \
		$(GO) run ./cmd/runsuite -spec testdata/specs/fig18-query.json -query testdata/queries/$$q.json > $(BUILD_DIR)/$$q.ndjson; \
		cmp testdata/queries/$$q.golden $(BUILD_DIR)/$$q.ndjson; \
	done
	@echo "querycheck: example query output matches goldens"

# End-to-end smoke of the HTTP job service: boot stallserved, submit the
# committed example scenario, stream its events to completion, cancel a
# second job mid-run, reconcile /metrics, and SIGTERM-drain cleanly.
servesmoke:
	BUILD_DIR=$(BUILD_DIR) ./scripts/servesmoke.sh

# Distributed-mode smoke: a coordinator plus two real stallserved worker
# processes run the same sweep as a single node; the scattered report —
# including one gathered while a worker is kill -9'd mid-sweep — must
# byte-match the single-node golden.
distsmoke:
	BUILD_DIR=$(BUILD_DIR) ./scripts/distsmoke.sh

# Crash-safety smoke: the same sweep uninterrupted, killed at a
# deterministic WAL append (STALLWAL_CRASH self-SIGKILL), and killed -9
# untimed mid-sweep; both restarts must resume from the WAL and serve
# /v1/query bytes identical to the uninterrupted golden.
crashsmoke:
	BUILD_DIR=$(BUILD_DIR) ./scripts/crashsmoke.sh

# Memoization smoke: runsuite runs three experiments cold then warm against
# one cache directory (warm must simulate nothing, report byte-identical),
# a stallserved on the CLI-warmed directory must serve the same spec purely
# from disk (shared on-disk format), a corrupted entry must degrade to
# a counted miss with unchanged output, and a run killed -9 mid-write must
# leave only loadable entries and no temp file behind its rerun.
memosmoke:
	BUILD_DIR=$(BUILD_DIR) ./scripts/memosmoke.sh

# Tracing smoke: boot stallserved with -trace-dir, run fig5 twice, and
# require the served Chrome trace to validate strictly, agree with the
# on-disk dump, and — timestamps stripped — byte-match itself across reruns
# and the committed golden (testdata/traces/fig5-topology.golden).
tracesmoke:
	BUILD_DIR=$(BUILD_DIR) ./scripts/tracesmoke.sh

experiments-md:
	$(GO) run ./cmd/runsuite -md EXPERIMENTS.md

clean:
	rm -f suite-report.json cover-*.out cpu.pprof mem.pprof
	rm -rf $(BUILD_DIR)
