GO ?= go

.PHONY: all build test test-v3 ci bench bench-al bench-scale bench-scale-full bench-scale-smoke fmt vet vet-arm64 fuzz-smoke race chaos chaos-remote obs-check sweep-smoke serve-smoke bench-serve docs-check fidelity-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# vet also keeps every generator on stats.Source: outside internal/stats, no
# non-test Go file under internal/ or cmd/ may build a math/rand source
# (use stats.NewRand, or stats.SeededRand and PutRand for one call's draws;
# the streams are the same, the seeding O(1)).
vet:
	$(GO) vet ./...
	@out=$$(grep -rl --include='*.go' --exclude='*_test.go' 'rand\.NewSource' internal cmd | grep -v '^internal/stats/'); \
	if [ -n "$$out" ]; then echo "rand.NewSource outside internal/stats (use stats.NewRand or stats.SeededRand):"; echo "$$out"; exit 1; fi

# vet-arm64 cross-compiles and vets the tree for arm64, so the portable
# (!amd64) fallbacks of the assembly kernels build; nothing runs.
vet-arm64:
	GOARCH=arm64 $(GO) vet ./...

# test-v3 re-runs the lane-replay pins with the compiler targeting x86-64-v3
# (AVX2, FMA, BMI). The vector kernels replay the scalar Go code's unfused
# multiply-adds; a toolchain that starts fusing `s += a*b` under v3 would
# change the scalar bits, and these tests would fail here first. The lane
# pow's pins (TestPowLanes*) run here too: it replays math.Pow's Go code,
# compiled under the same flags.
test-v3:
	GOAMD64=v3 $(GO) test -count=1 -run 'Bitwise|PositionIndependent|Lanes' \
		./internal/mat ./internal/kernel ./internal/gp

# fuzz-smoke runs each fuzz target briefly: the four-lane exponential on
# arbitrary bit patterns, the lane pow on an arbitrary base and exponents,
# the strided dot and flat solve of the scoring cache on arbitrary bit
# patterns (compared with DotBlocked and ForwardSolveFlatTo; a NaN need
# only be NaN on both paths), the fused RBF kernel row, its candidate-major
# eight-candidate form and its pool-column form on arbitrary small designs
# and pools, all compared bitwise with the scalar code (NaN for NaN), the
# LML workspace on arbitrary small designs and log-hyperparameters,
# compared bitwise with the fresh-allocation evaluation it replaced, and
# the checkpoint journal
# decoder on arbitrary bytes: no panic, and every rejection wraps exactly
# one ErrCheckpoint* sentinel. Its seeds are kilobytes long, so new inputs
# are minimized for at most a second each, leaving the rest of the 5 s to
# fuzzing. The next target compares stats.Source's stream, re-seeded at an
# arbitrary draw, with math/rand's for an arbitrary seed and length. The
# last feeds arbitrary bytes to the campaign-spec decoder behind al-serve's
# submit: no panic, and an accepted spec's canonical form re-parses to the
# same spec and the same bytes.
# A crasher is saved under the package's testdata/fuzz and
# replays as a regression test.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzExpLanes$$' -fuzztime 5s ./internal/mat
	$(GO) test -run '^$$' -fuzz '^FuzzPowLanes$$' -fuzztime 5s ./internal/mat
	$(GO) test -run '^$$' -fuzz '^FuzzStridedLanes$$' -fuzztime 5s ./internal/mat
	$(GO) test -run '^$$' -fuzz '^FuzzRBFRow$$' -fuzztime 5s ./internal/kernel
	$(GO) test -run '^$$' -fuzz '^FuzzRBFLanes$$' -fuzztime 5s ./internal/kernel
	$(GO) test -run '^$$' -fuzz '^FuzzRBFColumn$$' -fuzztime 5s ./internal/kernel
	$(GO) test -run '^$$' -fuzz '^FuzzLMLWorkspace$$' -fuzztime 5s ./internal/gp
	$(GO) test -run '^$$' -fuzz '^FuzzReadCheckpoint$$' -fuzztime 5s -fuzzminimizetime 1s ./internal/online
	$(GO) test -run '^$$' -fuzz '^FuzzSource$$' -fuzztime 5s ./internal/stats
	$(GO) test -run '^$$' -fuzz '^FuzzParseCampaignSpec$$' -fuzztime 5s ./internal/engine

# Race runs use -short: the equivalence tests scale their sizes down so the
# instrumented binary stays within CI time budgets. faults and online carry
# the concurrency-sensitive fault-injection and checkpoint paths, and online
# the process-wide reference cache; engine carries the sweep worker pool
# and the policy, loop and golden tests; experiments carries the RunBatch
# study driver; amr and dataset carry the reference snapshots that
# concurrent campaigns and Generate's workers share; stats carries the
# generator pool, drawn from by eight goroutines against fresh math/rand
# sources. The second line re-runs
# the streamed-pool engine tests, the concurrent PredictInto pins, the
# concurrent surrogate-fit tests, the scoring-cache tests, the checkpoint
# journal tests and the sim lab's emulation-cache tests explicitly
# (-count=1, no -short): the shard-parallel Select lanes, the side-by-side
# cost and memory fits of replay and online campaigns, their worker-count
# invariance pins, the scoring cache's parallel column sweeps and
# eight-lane rebuilds over its shared slabs, the journal's resume from a
# torn tail at every byte offset, and eight goroutines emulating the grid
# through two labs over one shared cache must face the race detector at
# full size on every CI pass, never satisfied from the test cache.
race:
	$(GO) test -race -short ./internal/mat ./internal/kernel ./internal/gp \
		./internal/engine ./internal/experiments ./internal/faults ./internal/online \
		./internal/remotelab ./internal/report ./internal/amr ./internal/dataset ./internal/stats
	$(GO) test -race -count=1 -run 'TestStream|TestGridSource|TestScaleSmoke|TestPredictInto|TestFitPair|TestOnlineFitPair|TestScoringCache|TestCheckpointJournal|TestSimLabEmulationCache|TestEmulationCacheBudget' \
		./internal/engine ./internal/gp ./internal/online

# sweep-smoke drives a tiny 2x2 policy-by-seed grid through the unified
# campaign engine under the race detector: concurrent workers sharing the
# obs registry, per-campaign labeled series, deterministic results.
sweep-smoke:
	$(GO) test -race -count=1 -run 'TestSweepSmoke|TestCampaignObsNoInterleave' \
		./internal/engine

# chaos stress-tests the fault-tolerant campaign runtime: high fault rates
# across 10 seeds (CHAOS=1 widens TestOnlineChaos from 3 to 10 seeds), plus
# every fault-injection, retry, and checkpoint/resume test, under -race —
# the checkpoint journal's torn-tail, corrupt-line and version-1 tests and
# the subprocess SIGKILLed before and after its journal's first appends
# among them.
chaos:
	CHAOS=1 $(GO) test -race -count=1 \
		-run 'Chaos|Fault|Retry|Censor|Checkpoint|Resume|Backoff' \
		./internal/faults ./internal/online

# chaos-remote is the distributed-execution gate: a four-process worker
# fleet (the test binary re-exec'ing itself as al-worker bodies) with one
# worker SIGKILLed mid-job must finish the campaign bitwise identical to an
# unkilled fleet, and a campaign killed mid-flight must resume through a
# brand-new dispatcher to the identical Result — both under -race.
chaos-remote:
	$(GO) test -race -count=1 -run 'TestChaosWorkerKill|TestDispatcherCampaignKillResume' \
		./internal/remotelab

# obs-check gates the observability layer: vet over the instrumented
# packages, the metric-name lint (unique names, alamr_ prefix, every name
# bound at Enable), the <2% disabled-overhead bound on the scoring hot path,
# and the bitwise kill-and-resume contract with tracing enabled, under -race.
obs-check:
	$(GO) vet ./internal/obs ./cmd/...
	$(GO) test -run 'TestMetricNamesUnique|TestAllMetricNamesBound' ./internal/obs
	$(GO) test -run 'TestObsOverheadGate' ./internal/gp
	$(GO) test -race -count=1 -run 'TracingEnabled|ObsSummary' \
		./internal/online ./internal/report

# serve-smoke gates the campaign daemon (internal/serve + cmd/al-serve):
# the whole package under -race — concurrent multi-tenant campaigns bitwise
# identical to direct engine runs, fair-share/priority scheduling, queue
# backpressure, the HTTP validation table, and the SIGKILL-mid-flight
# subprocess test that must resume every campaign from its checkpoint to
# byte-identical results — then the load tester against an embedded daemon,
# gating p99 submit/poll latency. Its report goes to a temporary file, so a
# CI pass leaves the committed ledger alone.
serve-smoke:
	$(GO) test -race -count=1 ./internal/serve
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		$(GO) run ./cmd/al-loadtest -data dataset.csv -campaigns 24 -out "$$tmp/BENCH_serve.json"

# bench-serve regenerates the committed BENCH_serve.json ledger: the same
# load and gates as serve-smoke, written over the tracked file on purpose.
bench-serve:
	$(GO) run ./cmd/al-loadtest -data dataset.csv -campaigns 24 -out BENCH_serve.json

# fidelity-smoke gates the multi-fidelity layer under the race detector:
# the 2-level replay grid (co-kriging surrogate + cost-per-information
# acquisition through the concurrent sweep engine), the one-level/rho=0
# equivalence pins against the exact GP, and the online fidelity campaign
# end to end — never satisfied from the test cache.
fidelity-smoke:
	$(GO) test -race -count=1 \
		-run 'TestFidelitySmoke|TestFidelityStudy|TestReplayFidelity|TestMultiFidOneLevelBitwiseExactGP|TestMultiFidRhoZeroMatchesIndependentGPs|TestOnlineFidelityEndToEnd|TestFidelityCampaignOverFleet' \
		./internal/engine ./internal/gp ./internal/online ./internal/remotelab

# docs-check keeps the documentation honest: every examples/specs file is
# canonical-form, every flag README.md/API.md shows exists in the binary it
# is shown on, and every alamr_* metric the docs mention is cataloged in
# internal/obs/names.go.
docs-check:
	$(GO) run ./cmd/docs-check

# ci is the gate for every change: formatting, vet (native and arm64), full
# build, full test suite, the lane-replay pins under GOAMD64=v3, a short
# fuzz pass, then the race detector over the
# parallel-heavy packages, then the observability, sweep, serving, docs,
# fault-tolerance (kill-and-resume, SIGKILL mid-journal), distributed and
# pool-scaling gates. The race target already covers ./internal/gp and
# ./internal/engine, so the cache-equivalence and streamed-pool tests run
# under the race detector here too.
ci: fmt vet vet-arm64 build test test-v3 fuzz-smoke race obs-check sweep-smoke fidelity-smoke serve-smoke docs-check chaos chaos-remote bench-scale-smoke

# bench runs the linear-algebra / GP hot-path benchmarks and emits the raw
# `go test -json` event stream to BENCH_gp.json (one JSON object per line;
# benchmark results are in the "output" fields of Action=="output" events).
# Compare runs with `benchstat old.txt new.txt` if available, or grep
# "Benchmark.*ns/op". GOMAXPROCS governs the worker pool size; pin it for
# stable numbers, e.g. `GOMAXPROCS=4 make bench`.
bench:
	$(GO) test -run '^$$' -bench 'Chol|Mul|KernelMatrix|Fit' -benchmem -json \
		./internal/mat ./internal/kernel ./internal/gp > BENCH_gp.json
	@grep -o '"Output":".*ns/op[^"]*"' BENCH_gp.json | sed 's/"Output":"//; s/\\t/\t/g; s/\\n"//' || true

# bench-al measures the active-learning scoring engine: per-iteration pool
# re-scoring (both surrogates, direct Predict vs the incremental
# ScoringCache) across training sizes n and pool sizes m, one online
# campaign's cache over the 1,920-configuration grid, plus the
# allocation-free Predict hot path. Raw `go test -json` events go to
# BENCH_scoring.json, same format as BENCH_gp.json; BENCH_al.json holds the
# scale ledger bench-scale writes.
bench-al:
	$(GO) test -run '^$$' -bench 'TrajectoryScoring|Predict' -benchmem -json \
		./internal/gp > BENCH_scoring.json
	@grep -o '"Output":".*ns/op[^"]*"' BENCH_scoring.json | sed 's/"Output":"//; s/\\t/\t/g; s/\\n"//' || true

# bench-scale measures the million-candidate selection step: one full
# pool-scoring pass per op across surrogate families, n in {2e3, 1e4}, m in
# {1e5, 1e6}, pool layouts (materialized, the streamed full pass with the
# prune bounds reset, and the streamed pruned pass, tagged streamed-approx),
# and mat worker counts {1, 2, 4, GOMAXPROCS}. The B/op
# column is the pool-scoring working set: materialized pools allocate O(m),
# streamed pools O(workers·shard + k). Exact-model cases are skipped by
# default (the O(m·n²) pass is tens of minutes); run bench-scale-full to
# include them. bench-summary renders the table with a provenance header
# and a speedup-vs-workers column.
bench-scale:
	$(GO) test -run '^$$' -bench 'ScaleScoring' -benchtime 1x -benchmem -json \
		-timeout 60m ./internal/engine > BENCH_al.json
	$(GO) run ./cmd/bench-summary BENCH_al.json

# bench-scale-full is bench-scale with the exact-model cases included
# (-args -full); budget well over an hour at m=1e5.
bench-scale-full:
	$(GO) test -run '^$$' -bench 'ScaleScoring' -benchtime 1x -benchmem -json \
		-timeout 180m ./internal/engine -args -full > BENCH_al.json
	$(GO) run ./cmd/bench-summary BENCH_al.json

# bench-scale-smoke is the CI-sized correctness twin of bench-scale
# (n=500, m=1e4): every surrogate family's streamed winner (Select returns
# the σ argmax alone) must equal the materialized argmax on the full first
# pass and on the pruned passes after it, the parallel Select must
# reproduce the serial winner bit for bit at 1, 2, 4, and GOMAXPROCS
# worker lanes (the worker-invariance pins), the per-candidate prune
# bounds must match the full scan bitwise across appends, removals,
# refits, and treed re-splits, and the memory surrogate must be predicted
# for the winner's row only, its refits leaving the cost-σ bounds in force.
bench-scale-smoke:
	$(GO) test -count=1 -run 'TestScaleSmoke|TestStreamSelectWorkerCountInvariant|TestStreamedReplayWorkerCountInvariant|TestStreamPerCandidateBoundsExact|TestStreamTreedResplitResetsBounds|TestStreamRefitResetsBounds|TestStreamMemoryWinnerOnly|TestStreamMemoryRefitKeepsBounds' \
		./internal/engine
