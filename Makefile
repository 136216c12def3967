# FractOS-Go build targets (stdlib only; no external deps).

GO ?= go

.PHONY: all build vet lint test race chaos determinism bench bench-json eval trace examples clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	gofmt -l . | (! grep .) || (echo "gofmt needed"; exit 1)

# lint runs the repository's custom analyzers — the per-function
# checks (capcheck, epochguard, panicfree, regcheck, sendcheck,
# simdet, statuscheck) plus the interprocedural pair built on the shared call
# graph: poolcheck (pooled-resource lifecycle) and allocfree
# (//fractos:hotpath zero-alloc enforcement); see
# docs/STATIC_ANALYSIS.md.
lint:
	$(GO) run ./cmd/fractos-vet

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# chaos runs the fault-injection suites (docs/FAULTS.md) under the
# race detector: the soak matrix and crash/partition tests in core,
# the heartbeat detector, the client retry policies, and the
# chaos testbed/experiment wiring.
chaos:
	$(GO) test -race -run 'Chaos|Crash|Heartbeat|Retry|Breaker|Backoff|Fault|Watch' \
		./internal/core/ ./internal/fabric/ ./internal/proc/ \
		./internal/services/ ./internal/testbed/ ./internal/exp/

# determinism runs the determinism tests under the race detector at 1
# and 4 CPUs: byte-identical traces, tables and event counts across
# runs and GOMAXPROCS (the kernel's seeded-workload property test and
# the full-stack experiment matrix).
determinism:
	$(GO) test -race -cpu 1,4 -count=1 -run 'Determinism' \
		./internal/sim/ ./internal/exp/

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-json runs the wall-clock perf suite (internal/perf) and writes
# the machine-readable report tracked across PRs; see
# docs/PERFORMANCE.md for the methodology and how to compare runs.
# Override the output file per PR: make bench-json BENCH_OUT=BENCH_PR10.json
BENCH_OUT ?= BENCH_PR10.json

bench-json:
	$(GO) run ./cmd/fractos-bench -json > $(BENCH_OUT)

# Regenerate every table and figure of the paper's evaluation.
eval:
	$(GO) run ./cmd/fractos-bench

trace:
	$(GO) run ./cmd/fractos-trace

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/pipeline
	$(GO) run ./examples/storage
	$(GO) run ./examples/dataflow
	$(GO) run ./examples/failover
	$(GO) run ./examples/faceverify
	$(GO) run ./examples/chaos

clean:
	$(GO) clean ./...
