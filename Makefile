# Build/test entry points. `make check` is the PR gate: it builds and
# vets every package (vet runs over ./..., so new packages are covered
# automatically), then runs the short test suite under the race
# detector, which exercises the internal/runner worker pool, the
# concurrent metrics sinks, and the suite-level order-independence
# tests concurrently. Budget 2 GB of memory for it: the largest race
# test binaries peak at 1.3 GB (root package) and 1.5 GB
# (internal/workloads), and on a 2-core host, where two packages run at
# a time, the summed peak was 1.6 GB over a 2.5-minute run.
#
# Every check is a Go test and runs once per mode: the fault-injection
# suite and the cross-policy differential run race-enabled under
# `make check`; the export round trips (TestObservabilityExports,
# TestRecordReplayCLI), the window differential over the whole corpus
# and the other suite-scale and subprocess tests run without -short in
# `make test`.

GO ?= go

.PHONY: all build vet check racestress test conform fuzzsmoke benchsmoke abpairs benchprof figures clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

check: build vet
	$(GO) test -race -short ./...

# The concurrency fences, ten times each under the race detector: the
# fan-out and the file set-ups' block hand-off (internal/trace), a
# runner batch on trace.FanOut (one-job batches, fail-fast, cancel,
# single flight, leak checks), the job server's drain, DELETE and
# disconnect paths, and eager generation's fan-out. A leak check that
# read its baseline too early failed here about once in ten runs and
# never in a single run, hence -count=10. About 40 s on a 2-vCPU host
# once the test binaries are built (trace 17 s, workloads 13 s, runner
# 4 s, serve 3 s).
racestress:
	$(GO) test -race -count=10 -run 'WriteFileStops|FillPanic|SumBeforeTheIndex|HashWhile|FirstBadWarp|Concurrently' ./internal/trace/
	$(GO) test -race -count=10 -run 'OneJobBatch|FailFast|BatchLeaves|EventsPanic|Cancellation|ConcurrentRuns|SingleFlight|StreamedRunsJoin' ./internal/runner/
	$(GO) test -race -count=10 -run 'GracefulShutdown|ShutdownReleases|DrainDeadline|DeleteCancels|DeleteOfAClaimed|ClientDisconnect' ./internal/serve/
	$(GO) test -race -count=10 -run 'FannedOut|FreshStream|SmallKernels|WorkerPanic' ./internal/workloads/

# Replay the committed conformance corpus: every case re-simulates its
# reference engine, plus a fast-forward-disabled and a streamed variant
# where the case asks for them, and the normalized stats must match
# expected_stats.json byte for byte. After an intentional behavior
# change, regenerate with `go run ./cmd/conform -update` and commit the
# diff. The window differential over the same corpus
# (TestQuantumDifferential, TestBudgetOffTheWindowGrid in internal/sim)
# is part of `make test`.
conform: build
	$(GO) run ./cmd/conform -j 8

# Fixed-seed differential fuzz smoke under the race detector: 200
# random (config, policy, workload) triples run reference vs ff-off vs
# streamed with the invariant sweeps on. Deterministic, so a failure in
# CI reproduces locally with the same seed; findings are shrunk and
# written to /tmp/conffuzz-findings as ready-to-commit corpus cases.
fuzzsmoke: build
	$(GO) run -race ./cmd/conffuzz -seed 1 -n 200 -out /tmp/conffuzz-findings

# Full suite, including the ~2 min headline reproduction tests.
test: build vet
	$(GO) test ./...

# Benchmark-module smoke: bench/ is a module of its own that the root
# `go build ./...` cannot see, so an engine change can break its imports
# without any other target noticing. Run the harness unit tests, then
# four short real runs — a single round of suite_batch (the eager
# frontend), of big_stream (generator- and file-backed refills), of
# serve_cold (the server's eager synth builds) and of serve_hot (warm
# hits, coalesced pairs and DELETEs, whose client parses every response
# shape the server sends) — whose result lines must report every result
# digest correct. The vet
# comes first, so an engine change that breaks the API the benchmark
# compiles against fails with a vet message, not a build log.
benchsmoke:
	cd bench && $(GO) vet ./...
	cd bench && $(GO) test -short ./...
	bash bench/run.sh --workload suite_batch --seed 1 --seconds 5 --trace 0 | tail -1 | grep '"correct":true'
	bash bench/run.sh --workload big_stream --seed 1 --seconds 5 --trace 0 | tail -1 | grep '"correct":true'
	bash bench/run.sh --workload serve_cold --seed 1 --seconds 5 --trace 0 | tail -1 | grep '"correct":true'
	bash bench/run.sh --workload serve_hot --seed 1 --seconds 5 --trace 0 | tail -1 | grep '"correct":true'

# A/B pairs against a parent revision, the protocol every performance PR
# follows: `make abpairs PARENT=<rev> WORKLOAD=serve_hot SEED=2 N=10`
# exports PARENT and copies the working tree's files side by side under
# .bench_build/ab/, alternates each side's own `bench/run.sh` (the side
# that goes first flips every pair) and prints, per end-to-end metric,
# both medians with quartiles, the change and the pairs won; with a clean
# tree, PARENT=HEAD is an A/A run. Run nothing else meanwhile: both cores
# get used.
WORKLOAD ?= suite_batch
SEED ?= 2
N ?= 10
abpairs:
	@test -n "$(PARENT)" || { echo "usage: make abpairs PARENT=<rev> [WORKLOAD=$(WORKLOAD)] [SEED=$(SEED)] [N=$(N)]"; exit 2; }
	bash scripts/abpairs.sh $(PARENT) $(WORKLOAD) $(SEED) $(N)

# CPU profile of one benchmark workload, built and run as the driver
# does: `make benchprof WORKLOAD=big_stream [SEED=1] [PROFILE_S=6]`
# copies bench/ beside itself, adds a pprof init() to the copy (bench/
# itself is never touched), builds it into .bench_build/, runs the
# workload once and prints `go tool pprof -top`, flat and cumulative,
# then the -inuse_space and alloc_space tops of the heap profile written
# when the CPU profile stops.
# Seed 1 unless SEED is given: seed 2 is for claims, not for looking.
PROFILE_S ?= 6
benchprof:
	bash scripts/benchprof.sh $(WORKLOAD) $(if $(filter file,$(origin SEED)),1,$(SEED)) $(PROFILE_S)

# Regenerate the committed reference outputs.
figures:
	$(GO) run ./cmd/paperfigs > paperfigs_output.txt
	$(GO) run ./cmd/paperfigs -exp ablations -quiet > ablate_output.txt

clean:
	$(GO) clean ./...
