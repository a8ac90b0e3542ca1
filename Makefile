# Local targets mirroring the CI jobs, so `make lint test` before pushing
# means the blocking jobs will pass.

GO ?= go
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: all build test race shuffle lint vet staticcheck optolint lint-mutation simdebug ci bench-snapshot dse-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...
	$(GO) test -race ./internal/network -run Parallel -netshards 4 -count=1
	$(GO) test -race ./internal/network -run ShardedCreditAudit -netshards 2 -count=3

# CI runs the suite shuffled; reproduce an ordering failure locally with
# `go test -shuffle=<seed> <pkg>` using the seed the failing run printed.
shuffle:
	$(GO) test -shuffle=on ./...

# lint is the blocking static-analysis bundle: vet, staticcheck (skipped
# with a warning when the binary is absent — the toolchain cannot fetch it
# offline), the project's own optolint analyzers over both build flavours,
# and the mutation harness proving each completeness analyzer fires.
lint: vet staticcheck optolint lint-mutation

vet:
	$(GO) vet ./...

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# optolint runs the suite over the default build and the simdebug build:
# debug-only sources carry sim-core obligations too.
optolint:
	$(GO) run ./cmd/optolint ./...
	$(GO) run ./cmd/optolint -tags simdebug ./...

# lint-mutation re-proves the completeness analyzers can still fire: each
# case mutates a clean fixture (dropped export field, unregistered handler
# kind, unmerged counter, unstaged cross-shard write) and requires a report.
lint-mutation:
	$(GO) test ./internal/lint -run TestMutations -count=1

# simdebug builds and tests with the runtime assertion layer compiled in:
# wheel monotonicity and skip legality, router credit conservation, the
# periodic network audit, and the core warmup/measure bracket audits.
simdebug:
	$(GO) build -tags simdebug ./...
	$(GO) test -tags simdebug ./internal/sim ./internal/router ./internal/core -count=1
	$(GO) test -tags simdebug ./internal/network -run 'Chaos|Fault|Audit|Recovery' -count=1
	$(GO) test -tags simdebug ./internal/network -run 'Parallel|Policy|Golden' -netshards 4 -count=1

ci: build shuffle lint simdebug race

# bench-snapshot records the hot-path benchmarks into a benchstat-compatible
# JSON snapshot. Set BENCH_LABEL to distinguish runs (e.g. pre-parallel /
# post-parallel) within the same snapshot file:
#   make bench-snapshot BENCH_OUT=BENCH_6.json BENCH_LABEL=post-parallel
BENCH_OUT ?= BENCH.json
BENCH_LABEL ?= local
BENCH_PATTERN ?= Step|Build|LevelHistogram

bench-snapshot:
	$(GO) test -run NONE -bench '$(BENCH_PATTERN)' -benchmem ./internal/network | \
		$(GO) run ./cmd/benchsnap -out $(BENCH_OUT) -label $(BENCH_LABEL)

# dse-smoke mirrors the CI job: the committed 8-trial grid study must
# reproduce the committed golden frontier byte for byte, and a rerun over
# the finished study directory must re-evaluate nothing.
DSE_SMOKE_DIR ?= /tmp/optodse-smoke

dse-smoke:
	rm -rf $(DSE_SMOKE_DIR)
	$(GO) run ./cmd/optodse -space internal/dse/testdata/smoke-space.json -out $(DSE_SMOKE_DIR)
	cmp $(DSE_SMOKE_DIR)/frontier.json internal/dse/testdata/smoke-frontier.json
	$(GO) run ./cmd/optodse -space internal/dse/testdata/smoke-space.json -out $(DSE_SMOKE_DIR) | \
		grep -q '8 trials (0 fresh, 8 cached)'
	cmp $(DSE_SMOKE_DIR)/frontier.json internal/dse/testdata/smoke-frontier.json
