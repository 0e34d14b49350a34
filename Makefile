# Convenience targets for the reproduction. Everything is plain `go`;
# nothing here is required — see README.md for the underlying commands.

GO ?= go

.PHONY: all build vet test race race-hot cover cover-check bench bench-capture bench-diff bench-gate doc-check fuzz fuzz-sim fuzz-broker results examples clean verify lint fmt-check serve-smoke stream-smoke slo

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fast race pass over the two packages with worker-pool concurrency
# (the suite runner and its observer plumbing) plus the meta-broker every
# suite replication runs through — the inner loop of verify when the full
# -race run is too slow for the edit cycle.
race-hot:
	$(GO) test -race ./internal/experiment ./internal/obs ./internal/broker

# Fail if any tracked Go file is not gofmt-clean. Fixtures under testdata
# are real Go source and are held to the same standard.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The determinism & correctness analyzer suite (see docs/architecture.md).
# -tests includes _test.go files: test nondeterminism corrupts goldens and
# flakes the shuffled pass just as surely as production nondeterminism.
lint:
	$(GO) run ./cmd/repolint -tests ./...

# Documentation gate: every relative link in docs/*.md (and the top-level
# markdown) must resolve, and every internal/* package must carry a doc.go
# with a package comment. See cmd/doccheck.
doc-check:
	$(GO) run ./cmd/doccheck

# CI gate: formatting, vet, repolint, documentation invariants, the full
# test suite under the race detector, and a shuffled pass to catch
# inter-test order dependence.
verify: fmt-check vet lint doc-check
	$(GO) test -race ./...
	$(GO) test -shuffle=on ./...

cover:
	$(GO) test -cover ./...

# Coverage floors: the fault injector is new, heavily-relied-on code and
# must stay >= 90%; the cluster models must not regress below their
# pre-fault-injection baseline; the federation meta-broker routes every
# federated job and must stay >= 90%; the analyzer suite guards every
# other invariant and must itself stay well-covered; the service plane
# (worker API, control plane, placement ring, load generator) carries the
# migration determinism contract and floors at 85%; the streaming risk
# engine carries the live-vs-offline bit-identity contract and floors at
# 90%.
cover-check:
	@$(GO) test -cover ./internal/faults ./internal/cluster ./internal/broker ./internal/lint \
		./internal/serve ./internal/serve/control ./internal/serve/ring ./internal/load \
		./internal/streamrisk | awk ' \
		{ print } \
		$$2 ~ /internal\/faults$$/        && $$5+0 < 90 { print "FAIL: internal/faults coverage " $$5 " below 90% floor"; bad=1 } \
		$$2 ~ /internal\/cluster$$/       && $$5+0 < 95 { print "FAIL: internal/cluster coverage " $$5 " below 95% floor"; bad=1 } \
		$$2 ~ /internal\/broker$$/        && $$5+0 < 90 { print "FAIL: internal/broker coverage " $$5 " below 90% floor"; bad=1 } \
		$$2 ~ /internal\/lint$$/          && $$5+0 < 85 { print "FAIL: internal/lint coverage " $$5 " below 85% floor"; bad=1 } \
		$$2 ~ /internal\/serve$$/         && $$5+0 < 85 { print "FAIL: internal/serve coverage " $$5 " below 85% floor"; bad=1 } \
		$$2 ~ /internal\/serve\/control$$/ && $$5+0 < 85 { print "FAIL: internal/serve/control coverage " $$5 " below 85% floor"; bad=1 } \
		$$2 ~ /internal\/serve\/ring$$/   && $$5+0 < 85 { print "FAIL: internal/serve/ring coverage " $$5 " below 85% floor"; bad=1 } \
		$$2 ~ /internal\/load$$/          && $$5+0 < 85 { print "FAIL: internal/load coverage " $$5 " below 85% floor"; bad=1 } \
		$$2 ~ /internal\/streamrisk$$/    && $$5+0 < 90 { print "FAIL: internal/streamrisk coverage " $$5 " below 90% floor"; bad=1 } \
		END { exit bad }'

# One benchmark iteration per table/figure/ablation: fast sanity pass,
# then the full capture (per-layer benches at Go's default benchtime,
# bench_test.go at one iteration) as JSON on stdout via cmd/benchjson.
bench:
	$(GO) test -bench=. -benchmem -benchtime 1x ./...
	$(GO) run ./cmd/benchjson

# Capture every benchmark to OUT, and diff two captures against the
# committed trajectory. See EXPERIMENTS.md.
OUT ?= BENCH_local.json
bench-capture:
	$(GO) run ./cmd/benchjson -out $(OUT)

OLD ?= BENCH_PR14.json
NEW ?= BENCH_local.json
bench-diff:
	$(GO) run ./cmd/benchjson -diff $(OLD) $(NEW)

# Enforced regression gate against the committed baseline, with the
# thresholds CI uses: allocs/op is deterministic for a fixed workload so it
# gates tight (2%); ns/op is noisy on shared runners so it gates loose
# (40%). Absolute significance floors (10 ms/op timing, ½ alloc/op) are
# built into benchjson so micro-bench jitter never flakes the gate. Set
# BENCH_GATE=off to skip on known-noisy machines; see docs/performance.md
# ("The bench gate").
bench-gate:
	@if [ "$(BENCH_GATE)" = "off" ]; then \
		echo "bench-gate: BENCH_GATE=off, running informational diff only"; \
		$(GO) run ./cmd/benchjson -diff $(OLD) $(NEW); \
	else \
		$(GO) run ./cmd/benchjson -diff -gate -threshold 0.40 -alloc-threshold 0.02 $(OLD) $(NEW); \
	fi

# Service-layer smoke: boot riskserved on a loopback port, replay the
# scripted session, and compare the journal byte-for-byte against the
# committed golden (cmd/riskserved/testdata/smoke_journal.golden) — plus
# the multi-worker half: the real riskctl daemon fronting a four-worker
# fleet, the same script routed through it, and the worker-mode
# registration lifecycle; plus the serve and control packages'
# determinism-bridge, migration, and concurrent-session tests, all under
# the race detector. Regenerate the golden with
# `go test ./cmd/riskserved -run TestServeSmoke -update`.
serve-smoke:
	$(GO) test -race -count=1 -run 'TestServe' ./cmd/riskserved ./cmd/riskctl ./internal/serve
	$(GO) test -race -count=1 ./internal/serve/control

# Streaming-risk smoke: boot the real riskserved daemon, subscribe to
# /v1/risk/stream over real HTTP, drive a seeded faulted session, and
# require the streamed cumulative scores to byte-match the offline
# streamrisk recomputation of the journal the daemon wrote — plus the
# riskwatch dashboard's follow/threshold paths and the serve-layer
# stream tests (stalled-subscriber admission safety, migration
# equivalence), all under the race detector.
stream-smoke:
	$(GO) test -race -count=1 -run 'TestStreamSmoke' ./cmd/riskserved
	$(GO) test -race -count=1 ./cmd/riskwatch
	$(GO) test -race -count=1 -run 'TestRiskStream|TestRiskEndpoint|TestFleetRisk' ./internal/serve ./internal/serve/control

# Informational SLO probe: riskload against a self-hosted four-worker
# topology with a fixed seed, gated on p99 latency over all operations.
# Latency SLOs are machine-dependent, so the gate ships permissive
# (250ms p99 on a loopback fleet is an order of magnitude of headroom)
# and SLO_GATE=off downgrades violations to warnings the same way
# BENCH_GATE=off defuses the bench gate. See docs/performance.md.
slo:
	SLO_GATE=$(SLO_GATE) $(GO) run ./cmd/riskload -workers 4 -rate 50 -sessions 32 -jobs 10 -seed 1 -slo-p99 250ms -risk-stream

fuzz:
	$(GO) test ./internal/workload/ -run FuzzReadSWF -fuzz FuzzReadSWF -fuzztime 30s

# Short fuzz of the event kernel's pool/heap invariants.
fuzz-sim:
	$(GO) test ./internal/sim/ -run FuzzEngine -fuzz FuzzEngine -fuzztime 30s

# Short fuzz of the meta-broker's routing tie-break against its reference
# reimplementation (adversarial quotes: NaN, ±Inf, subnormals).
fuzz-broker:
	$(GO) test ./internal/broker/ -run FuzzBrokerRoute -fuzz FuzzBrokerRoute -fuzztime 30s

# The paper-scale evaluation: 2880 simulations, a few minutes.
results:
	$(GO) run ./cmd/riskbench -jobs 5000 -out results

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/ranking
	$(GO) run ./examples/commodity
	$(GO) run ./examples/bidbased
	$(GO) run ./examples/apriori
	$(GO) run ./examples/swfimport
	$(GO) run ./examples/capacity

clean:
	rm -rf results
