# Standard checks. `make check` is the tier-1 gate: everything a change
# must pass before merging.

GO ?= go

.PHONY: check build test race vet bench-vet bench bench-serve bench-active bench-diff bench-e2e bench-figures e2e gateway chaos soak coverage

check: build vet test race bench-vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The engine and everything scheduled on it must be clean under the race
# detector; the internal tree is where all the concurrency lives.
race:
	$(GO) test -race ./internal/...

vet:
	$(GO) vet ./...

# The benchmark under bench/ is its own module, so the root build never
# compiles it; vetting it here catches a change to an internal API it
# uses before the benchmark run does.
bench-vet:
	cd bench && $(GO) vet ./...

# Model kernel benchmarks (neural, tree and LR-B fits) → BENCH_6.json: the
# committed perf snapshot of the kernels, raw numbers only.
# Staged through a file (not a pipe) so benchjson's compilation does not
# run concurrently with — and perturb — the measurement.
bench:
	$(GO) test -run xxx -bench 'Train|PredictAll|FitBackward' -benchmem -count=2 ./internal/neural ./internal/tree ./internal/linreg > bench.out.tmp
	$(GO) run ./cmd/benchjson -o BENCH_6.json < bench.out.tmp
	@rm -f bench.out.tmp

# Serving benchmarks → BENCH_8.json: cached (hot-row, 0 allocs) vs
# uncached single-row prediction through the full serving path, and the
# metrics histogram's Observe (serial and parallel, 0 allocs) that serve
# and gateway call on every request. No baseline file — the uncached
# bench in the same snapshot IS the baseline the cache's latency win is
# judged against.
bench-serve:
	$(GO) test -run xxx -bench 'CachedPredict|UncachedPredict|HistogramObserve' -benchmem -count=2 ./internal/serve ./internal/obs > bench.out.tmp
	$(GO) run ./cmd/benchjson -o BENCH_8.json < bench.out.tmp
	@rm -f bench.out.tmp

# Active-learning acquisition benchmarks → BENCH_10.json: the chunked
# pool-scoring hot path (which must report 0 allocs/op — the scratch is
# worker-local and growth-only) and one end-to-end expected-improvement
# batch acquisition over a 2048-point pool, at GOMAXPROCS=1 (its
# allocation count depends on the CPU count). No external
# baseline; the committed snapshot is the regression reference bench-diff
# judges by.
bench-active:
	$(GO) test -run xxx -bench 'Acquire|ScoreChunk' -benchmem -count=2 -cpu 1 ./internal/active > bench.out.tmp
	$(GO) run ./cmd/benchjson -o BENCH_10.json < bench.out.tmp
	@rm -f bench.out.tmp

# Perf-regression gate: re-run the serving-cache and acquisition
# benchmarks and diff them against the committed BENCH_8.json /
# BENCH_10.json. ns/op gets a 4x tolerance (CI hardware varies);
# allocs/op gets none, so the cached-predict, histogram-observe and
# score-chunk paths' 0 allocs/op are exact pins; the acquisition half
# runs at -cpu 1, the CPU count BENCH_10.json was recorded at. benchdiff
# fails only on an increase, so the EI batch's 80 allocs/op in
# BENCH_10.json is a ceiling: its exact pin, 49, is the tier-1 test
# TestAcquireEIAllocs. An
# intended regression is waived by
# regenerating the baseline (`make bench-serve` / `make bench-active`)
# and committing it.
bench-diff:
	$(GO) test -run xxx -bench 'CachedPredict|UncachedPredict|HistogramObserve' -benchmem -count=2 ./internal/serve ./internal/obs > bench.out.tmp
	$(GO) run ./cmd/benchdiff -baseline BENCH_8.json < bench.out.tmp
	@rm -f bench.out.tmp
	$(GO) test -run xxx -bench 'Acquire|ScoreChunk' -benchmem -count=2 -cpu 1 ./internal/active > bench.out.tmp
	$(GO) run ./cmd/benchdiff -baseline BENCH_10.json < bench.out.tmp
	@rm -f bench.out.tmp

# End-to-end smoke of the serving daemon: train → serve → curl → drain,
# asserting daemon predictions are bit-identical to offline scoring.
e2e:
	./scripts/e2e_serve.sh

# End-to-end smoke of the replicated tier: two perfpredd replicas
# behind perfpredgw, cache affinity proven, one replica killed
# mid-stream with zero client-visible failures, ordered drain.
gateway:
	./scripts/e2e_gateway.sh

# Chaos/soak run against one bare in-process daemon with fault injection
# armed: deterministic seed-derived schedule with a duplicate-heavy
# hot-row class, every 200 bit-compared to offline scoring, cache
# accounting checked post-drain, and a generation-boundary epilogue
# proving no cache hit survives a reload. Invariant report written to
# chaos-report.json; any failure reproduces from the printed seed.
chaos:
	$(GO) run ./cmd/perfpredload -seed 7 -duration 30s -report chaos-report.json

# Gateway soak: the same chaos run over three daemons behind the
# cache-affine gateway, fault plans armed, one replica killed and
# restarted mid-schedule, ending with the same epilogue across every
# replica. The nightly workflow runs this for 5 minutes per seed;
# locally 60s is a solid smoke.
soak:
	$(GO) run ./cmd/perfpredload -seed 7 -duration 60s -replicas 3 -replica-kill -report soak-report.json

# End-to-end benchmark (bench/, its own module): every BENCHMARK.json
# workload — sampled DSE and the served prediction path — at seed 1.
bench-e2e:
	bash bench/run.sh --workload all --seed 1 --seconds 10

# Coverage summary for the core and serving packages (same profile the
# CI coverage job uploads as an artifact).
coverage:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./internal/serve ./internal/core
	$(GO) tool cover -func=coverage.out

# Substrate micro-benchmarks only (full-fidelity figure regeneration is
# expensive; run those by name when needed).
bench-figures:
	$(GO) test -run xxx -bench 'PredictDataset|NeuralQuick|EstimateError|SimulateConfig' -benchmem .
