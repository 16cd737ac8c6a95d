# SprintCon reproduction — common targets.

GO ?= go

.PHONY: all build vet test race chaos chaos-service soak fuzz bench bench-check gobench report experiments docs-check clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	gofmt -l .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

chaos:
	$(GO) test -run TestChaos -v ./internal/core/ ./internal/cluster/

# Service chaos: submission storms with abusive stream clients against a
# live sprintd, then kill -9 + restart of a real sprintd process on a
# shared state dir. Zero lost records, zero stuck runs, a live /healthz
# throughout. Set SPRINTD_CHAOS_STATE to keep the journal for inspection.
chaos-service:
	$(GO) test -run TestChaosService -v ./cmd/sprintd/

# Soak: randomized fault storms — rack-local storms with controller crashes
# (core), and network storms over the control link (cluster), alternating
# restore-from-checkpoint and fail-safe restarts. Every run must stay trip-,
# outage- and SoC-breach-free. SOAK_RUNS scales it.
soak:
	SOAK_RUNS=40 $(GO) test -run TestSoak -v ./internal/core/ ./internal/cluster/

# Fuzz smoke: the checkpoint decoder, the scenario loader, the structured
# QP solver (differential against the dense oracle), the P-state quantizer,
# the CSV trace loader, the batch-job progress model, the exact repeated-add
# kernel (differential against the naive loop) and the tick ≡ event /
# resumed ≡ uninterrupted equivalences on generated runs, a few seconds each
# (CI runs the same budget; leave the fuzzers running longer locally with
# go test -fuzz=... -fuzztime=10m).
fuzz:
	$(GO) test -fuzz='^FuzzDecode$$' -fuzztime=10s -run='^$$' ./internal/checkpoint/
	$(GO) test -fuzz='^FuzzScenarioJSON$$' -fuzztime=10s -run='^$$' ./internal/sim/
	$(GO) test -fuzz='^FuzzQP$$' -fuzztime=10s -run='^$$' ./internal/qp/
	$(GO) test -fuzz='^FuzzQuantize$$' -fuzztime=10s -run='^$$' ./internal/cpu/
	$(GO) test -fuzz='^FuzzTraceFromCSV$$' -fuzztime=10s -run='^$$' ./internal/workload/
	$(GO) test -fuzz='^FuzzBatchAdvance$$' -fuzztime=10s -run='^$$' ./internal/workload/
	$(GO) test -fuzz='^FuzzRepeatedAdd$$' -fuzztime=10s -run='^$$' ./internal/engine/
	$(GO) test -fuzz='^FuzzEngineEquivalence$$' -fuzztime=10s -run='^$$' ./internal/core/

# Full pinned-scenario benchmark: writes BENCH_<date>.json and compares
# against the committed baseline (skipped when the baseline's -quick flag
# differs from the run's).
bench:
	$(GO) run ./cmd/bench -o BENCH_$$(date +%F).json

# CI regression gate: quick scenarios vs the committed quick-mode baseline;
# fails on >20% regression (see cmd/bench for the per-metric rules).
bench-check:
	$(GO) run ./cmd/bench -quick -o bench_check.json

# Raw go-test micro-benchmarks (per-function, -benchmem).
gobench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

report:
	$(GO) run ./cmd/report -o REPORT.md -figdir figs

experiments:
	$(GO) run ./cmd/experiments -exp all

# Documentation gate: vet, every relative link and #anchor in the
# operator-facing documents must resolve (cmd/docscheck), and the core
# packages' godoc must render (a missing package or broken example fails
# `go doc`).
docs-check:
	$(GO) vet ./...
	$(GO) run ./cmd/docscheck README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/OPERATING.md
	$(GO) doc sprintcon/internal/hier >/dev/null
	$(GO) doc sprintcon/internal/cluster >/dev/null
	$(GO) doc sprintcon/internal/link >/dev/null
	$(GO) doc sprintcon/internal/core >/dev/null

# Keep figs/hierarchy.svg: it is the committed architecture diagram
# (DESIGN.md §14), not a cmd/report artifact.
clean:
	rm -f REPORT.md bench_output.txt bench_check.json test_output.txt
	rm -f figs/sgct*.svg figs/sprintcon*.svg
