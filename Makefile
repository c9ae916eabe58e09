GO ?= go

.PHONY: all build test vet race check no-unsafe bench bench-serve bench-ingest bench-infer loadgen-smoke obs-smoke cluster-smoke cluster-obs-smoke clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# The compute kernels stay pure Go: no unsafe may enter the linalg or nn
# packages.
no-unsafe:
	@if grep -rn '"unsafe"' internal/linalg internal/nn --include='*.go'; then \
		echo 'unsafe import found in kernel packages' >&2; exit 1; \
	fi
	@echo "no-unsafe: kernel packages clean"

# The full gate: everything CI runs.
check: build vet no-unsafe test race

# Runs the kernel + throughput benchmarks and refreshes BENCH_PR2.json,
# then the concurrent-serving gate (BENCH_PR5.json).
bench:
	bash scripts/bench.sh

# Concurrent-serving gate: session-manager shards=1 vs shards=8 at
# GOMAXPROCS=8 plus a closed-loop loadgen run; refreshes BENCH_PR5.json and
# fails if the striped map regresses against the single-lock baseline (or,
# on a >= 4-CPU host, wins by less than 3x on the churn workload).
bench-serve:
	bash scripts/bench_serve.sh

# Ingest gate: wire decode microbenchmarks (binary vs JSON, with the
# zero-alloc warm-decode gate) plus three closed-loop loadgen runs (JSON,
# per-request binary, coalesced binary); refreshes BENCH_PR7.json and fails
# if a warm binary decode allocates or coalesced ingest misses its
# host-adaptive throughput gate (>= 3x JSON on >= 4 CPUs, else >= 0.85x).
bench-ingest:
	bash scripts/bench_ingest.sh

# Inference-plane gate: two closed-loop loadgen runs with a 90%-read mix
# (label-less binary /infer frames), unfused vs cross-stream fused;
# refreshes BENCH_PR9.json and fails if fused inference misses its
# host-adaptive gate (>= 3x unfused on >= 4 CPUs, else >= 0.85x).
bench-infer:
	bash scripts/bench_infer.sh

# Short closed-loop load smoke: boots freeway-serve, drives 2 streams for
# ~2s, and fails on any request error.
loadgen-smoke:
	$(GO) build -o bin/freeway-serve ./cmd/freeway-serve
	$(GO) run ./cmd/freeway-loadgen -serve bin/freeway-serve \
		-streams 2 -concurrency 2 -batch 16 -duration 2s

# Distributed failover smoke: boots a router + 2 workers sharing a
# checkpoint directory, drives load through the router, SIGKILLs one worker
# 3s in and restarts it at 6s. The loadgen exits nonzero on ANY
# client-visible error — the router's retry/backoff budget must absorb the
# entire eject → failover → rejoin cycle.
cluster-smoke:
	$(GO) build -o bin/freeway-serve ./cmd/freeway-serve
	$(GO) build -o bin/freeway-router ./cmd/freeway-router
	$(GO) run ./cmd/freeway-loadgen -cluster 2 -streams 6 -concurrency 4 \
		-batch 16 -duration 9s -kill-after 3s -restart-after 6s -out -

# Cluster observability smoke: boots a router + 2 workers, drives JSON and
# binary batches with client-minted trace contexts, and asserts trace-id
# continuity across the router and worker spans (/v1/cluster/trace), a
# non-empty federated scrape labeling both workers (/v1/cluster/metrics),
# and well-shaped timeline/exemplar endpoints.
cluster-obs-smoke:
	$(GO) build -o bin/freeway-serve ./cmd/freeway-serve
	$(GO) build -o bin/freeway-router ./cmd/freeway-router
	$(GO) run ./cmd/cluster-obs-smoke -serve bin/freeway-serve -router bin/freeway-router

# End-to-end observability check: boots freeway-serve, streams a synthetic
# drifting stream, and asserts /v1/metrics and /v1/trace saw all three shift
# patterns (A, B, C).
obs-smoke:
	$(GO) build -o bin/freeway-serve ./cmd/freeway-serve
	$(GO) run ./cmd/obs-smoke -serve bin/freeway-serve

clean:
	$(GO) clean ./...
