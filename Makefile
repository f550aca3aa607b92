GO ?= go

.PHONY: all ci vet lint build test short race race-stress perfbench fuzz

# The default target runs the full local gate: lint (go vet + divlint),
# build, the plain test suite, and the nested benchmark module's vet + tests.
all: lint build test perfbench

# ci is what .github/workflows/ci.yml runs: lint, build, the race-enabled
# test suite — the race detector is the correctness backstop for the
# internal/runner worker pool — and the benchmark module.
ci: lint build race perfbench

vet:
	$(GO) vet ./...

# lint runs go vet, gofmt (any file it would rewrite is a finding) and the
# project's per-package analyzers (determinism, specstring, sinkerr,
# lineaddr). Tests, not analyzers, hold run isolation
# (runner.TestParallelMatchesSerial under race-stress), hot-path
# allocations (the internal/sim alloc tests), lifecycle conservation and
# concurrency.
# The tree must stay at zero findings; suppress a justified exception with
# //lint:allow <analyzer> -- <reason>; `divlint -audit` reports stale ones.
lint: vet
	test -z "$$(gofmt -l . | tee /dev/stderr)"
	$(GO) run ./cmd/divlint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# short skips the simulation-heavy tests (cross-worker equivalence sweep,
# full matrix smoke) for a fast edit-compile loop.
short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# race-stress repeats the concurrent-layer tests under the race detector at
# two scheduler widths. With the store's cross-process lease test, which
# runs several processes against one store directory, it is the
# concurrency backstop. CI runs the same matrix.
race-stress:
	GOMAXPROCS=2 $(GO) test -race -count=3 ./internal/runner/... ./internal/store/... ./internal/sweep/... ./internal/obs/...
	GOMAXPROCS=8 $(GO) test -race -count=3 ./internal/runner/... ./internal/store/... ./internal/sweep/... ./internal/obs/...

# perfbench vets and tests the repository benchmark under perfbench/. It is a
# nested module, so ./... from the root never compiles it: this target is
# what catches an internal API change that breaks the benchmark. The
# benchmark builds offline against this checkout (GOWORK=off GOPROXY=off).
perfbench:
	GOWORK=off GOPROXY=off $(GO) -C perfbench vet ./...
	GOWORK=off GOPROXY=off $(GO) -C perfbench test ./...

# fuzz smoke-tests the spec-string grammar (no panics, normalized names are
# fixed points) and the store's two readers: the record decoder and the
# result decoder, each held to encoding/json. Each target gets a short
# budget; CI runs the same.
fuzz:
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzByName -fuzztime 10s
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzSpecNormalize -fuzztime 10s
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzDecodeResults -fuzztime 10s
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzDecode -fuzztime 10s
