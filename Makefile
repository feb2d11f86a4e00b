GO ?= go

.PHONY: build vet test race lint lint-fix lint-sarif bench-smoke serve-smoke serve-bench families-smoke registry-smoke ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint builds and runs hslint, the repo's own static analyzer (cmd/hslint):
# lock ordering, snapshot immutability, search determinism, sentinel-error
# matching, float comparison discipline, context propagation, goroutine
# lifecycle, atomic publication, and bounded container growth. Any
# diagnostic exits non-zero. Suppressions use
# //hslint:ignore <check> <reason>. The stamp file makes repeated `make lint`
# free when no Go source changed.
GO_SOURCES := $(shell find . -name '*.go' -not -path './.git/*')

lint: .hslint.stamp

.hslint.stamp: $(GO_SOURCES)
	$(GO) build -o hslint ./cmd/hslint
	./hslint ./...
	touch $@

# lint-fix applies every suggested fix (errors.Is rewrites, %w wraps, stale
# ignore-directive deletion) in place; run lint afterwards to verify.
lint-fix:
	$(GO) build -o hslint ./cmd/hslint
	./hslint -fix ./...

# lint-sarif writes SARIF 2.1.0 to hslint.sarif for CI code-scanning
# annotations, preserving hslint's exit status.
lint-sarif:
	$(GO) build -o hslint ./cmd/hslint
	./hslint -format sarif ./... > hslint.sarif

# bench-smoke runs every benchmark exactly once: it proves the full
# experiment suite (all figures and ablations) still executes end to end
# without paying for statistically meaningful timings.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x ./...

# serve-smoke boots the hsserve HTTP service on a random loopback port,
# drives one predict, one coalescing batch, a samples POST, and a metrics
# scrape through a real client, and exits non-zero on any mismatch. It then
# replays a scripted drift episode through the continuous-learning loop
# (faultinject schedule, fixed seeds) and fails unless exactly one promotion
# and one rollback occur.
serve-smoke:
	$(GO) run ./cmd/hsserve -selfcheck
	$(GO) run ./cmd/hsserve -driftcheck

# serve-bench measures the serving path: it boots a bootstrap-trained hsserve
# on a loopback port, drives it with cmd/hsload (concurrent single predicts —
# the unbatched seed wire shape — then multi-item batch posts answered in
# one batcher flush), and writes BENCH_pr8.json with throughput,
# p50/p99/p999 latency, and the batch-vs-single speedup. The server is always
# torn down, even when the load run fails.
serve-bench:
	$(GO) build -o hsserve-bench ./cmd/hsserve
	$(GO) build -o hsload ./cmd/hsload
	./hsserve-bench -addr 127.0.0.1:18808 -bootstrap -apps 3 -samples 40 -pop 8 -gens 2 -seed 7 -shardlen 20000 & \
	SRV=$$!; \
	for i in $$(seq 1 120); do curl -sf http://127.0.0.1:18808/healthz >/dev/null 2>&1 && break; sleep 1; done; \
	./hsload -addr http://127.0.0.1:18808 -duration 3s -conc 8 -out BENCH_pr8.json; RC=$$?; \
	kill $$SRV; wait $$SRV 2>/dev/null; exit $$RC

# registry-smoke boots hsserve with a three-entry model manifest (two
# application-scoped entries plus a wildcard) next to the default, fans one
# sample stream through /v1/samples verifying each entry's store advances by
# exactly its matching share, trains every manifest entry through its
# model-addressed /v2 samples route, pins v1<->v2 predict bit-identity on the
# default, exercises register/unregister with manifest persistence, and
# checks the per-model metrics series. Exits non-zero on any mismatch.
registry-smoke:
	$(GO) run ./cmd/hsserve -registrycheck

# families-smoke runs the model-family selection harness end to end on the
# spmv domain corpus: all three built-in families (spline, residual, dal)
# must fit, selection must complete with a full scoreboard, and the chosen
# family's CV MedAPE must not be worse than the reference spline baseline.
families-smoke:
	$(GO) test -run TestFamiliesSmoke -v ./internal/core

# ci is the gate: compile, static analysis (go vet plus the repo's own
# hslint invariant checks), plain tests, then the race detector over the
# whole tree (the parallel fitness pool, the lock-free snapshot swaps, and
# the fault-injection schedules are the usual suspects), and finally the
# end-to-end serving, registry, and family-selection smoke tests.
ci: build vet lint test race serve-smoke registry-smoke families-smoke
