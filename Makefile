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
# `make faultcheck` runs just the fault-injection suite — panic
# isolation, deadlines, cache quarantine, KeepGoing determinism —
# under the race detector.

GO ?= go

.PHONY: all build vet check test faultcheck conform fuzzsmoke obssmoke streamsmoke benchsmoke abpairs benchprof figures clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

check: build vet
	$(GO) test -race -short ./...

faultcheck: build
	$(GO) test -race ./internal/faultinject/
	$(GO) test -race -run 'TestFaultTolerantSuiteAcceptance|TestSelfCheckOutputIdentical' .

# Replay the committed conformance corpus: every case re-simulates its
# reference engine, plus a fast-forward-disabled and a streamed variant
# where the case asks for them, and the normalized stats must match
# expected_stats.json byte for byte. After an intentional behavior
# change, regenerate with `go run ./cmd/conform -update` and commit the
# diff. Then the window differential over the same corpus: the engine's
# ICNTLatency+1-cycle windows against one-cycle windows (the per-cycle
# schedule), stats and sampled series, fast-forward on and off — and the
# budget sweep that ends a run off the window grid.
conform: build
	$(GO) run ./cmd/conform -j 8
	$(GO) test -count=1 -run 'TestQuantumDifferential|TestBudgetOffTheWindowGrid' ./internal/sim/

# Fixed-seed differential fuzz smoke under the race detector: 200
# random (config, policy, workload) triples run reference vs ff-off vs
# streamed with the invariant sweeps on. Deterministic, so a failure in
# CI reproduces locally with the same seed; findings are shrunk and
# written to /tmp/conffuzz-findings as ready-to-commit corpus cases.
fuzzsmoke: build
	$(GO) run -race ./cmd/conffuzz -seed 1 -n 200 -out /tmp/conffuzz-findings

# Observability smoke, the end-to-end fence of the shared run harness
# (internal/cli): one tiny suite with -metrics and -trace enabled, then
# prove both exported files re-parse — the JSONL stream with the schema
# and arity checks, the Chrome trace with the phase validation Perfetto
# relies on. BFS keeps a cache-insufficient app in the subset so the
# headline geomeans are defined. An ablation sweep runs through the same
# harness, so its job labels ("BP under pd-bits=4") are linted metric
# series too. A last point runs a registry-extension policy through
# dlpsim so the non-paper schemes' metric namespaces stay linted too.
obssmoke: build
	$(GO) run ./cmd/paperfigs -exp fig10 -apps BP,HS,BFS -quiet \
		-metrics /tmp/smoke_metrics.jsonl -trace /tmp/smoke_trace.json
	$(GO) run ./cmd/metriclint -metrics /tmp/smoke_metrics.jsonl -trace /tmp/smoke_trace.json
	$(GO) run ./cmd/paperfigs -exp pd-bits -apps BP -quiet \
		-metrics /tmp/smoke_sweep.jsonl -trace /tmp/smoke_sweep_trace.json
	$(GO) run ./cmd/metriclint -metrics /tmp/smoke_sweep.jsonl -trace /tmp/smoke_sweep_trace.json
	$(GO) run ./cmd/dlpsim -app HS -policy ata \
		-metrics /tmp/smoke_ata.jsonl -trace /tmp/smoke_ata_trace.json
	$(GO) run ./cmd/metriclint -metrics /tmp/smoke_ata.jsonl -trace /tmp/smoke_ata_trace.json

# Full suite, including the ~2 min headline reproduction tests.
test: build vet
	$(GO) test ./...

# Streamed-frontend smoke: record a 10x-scaled trace with dlptrace,
# verify its digest and replayability, replay it through dlpsim with
# the observability exports on, lint those exports, check that the
# replay's counters equal those of dlpsim streaming the same app at the
# same scale (the one CLI record/replay round trip), and re-run the
# streamed conformance cases (streamed variants must match the eager
# serial reference byte for byte).
streamsmoke: build
	$(GO) run ./cmd/dlptrace record -app SC -scale 10 -o /tmp/streamsmoke.dlpstrm
	$(GO) run ./cmd/dlptrace verify /tmp/streamsmoke.dlpstrm
	$(GO) run ./cmd/dlpsim -stream-file /tmp/streamsmoke.dlpstrm -policy dlp \
		-metrics /tmp/streamsmoke_metrics.jsonl -trace /tmp/streamsmoke_trace.json
	$(GO) run ./cmd/metriclint -metrics /tmp/streamsmoke_metrics.jsonl -trace /tmp/streamsmoke_trace.json
	$(GO) run ./cmd/dlpsim -app SC -scale 10 -policy dlp -json | jq -e .counters > /tmp/streamsmoke_app.json
	$(GO) run ./cmd/dlpsim -stream-file /tmp/streamsmoke.dlpstrm -policy dlp -json | jq -e .counters > /tmp/streamsmoke_file.json
	cmp /tmp/streamsmoke_app.json /tmp/streamsmoke_file.json
	$(GO) run ./cmd/conform -run 'stream-*'

# Benchmark-module smoke: bench/ is a module of its own that the root
# `go build ./...` cannot see, so an engine change can break its imports
# without any other target noticing. Run the harness unit tests, then
# two short real runs — a single round of suite_batch (the eager
# frontend) and of big_stream (generator- and file-backed refills) —
# whose result lines must report every result digest correct. The vet
# comes first, so an engine change that breaks the API the benchmark
# compiles against fails with a vet message, not a build log.
benchsmoke:
	cd bench && $(GO) vet ./...
	cd bench && $(GO) test -short ./...
	bash bench/run.sh --workload suite_batch --seed 1 --seconds 5 --trace 0 | tail -1 | grep '"correct":true'
	bash bench/run.sh --workload big_stream --seed 1 --seconds 5 --trace 0 | tail -1 | grep '"correct":true'

# A/B pairs against a parent revision, the protocol every performance PR
# follows: `make abpairs PARENT=<rev> WORKLOAD=serve_hot SEED=2 N=10`
# exports PARENT into .bench_build/ab/, alternates `bench/run.sh` between
# it and the working tree (the side that goes first flips every pair) and
# prints, per end-to-end metric, both medians with quartiles, the change
# and the pairs won. Run nothing else meanwhile: both cores get used.
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
