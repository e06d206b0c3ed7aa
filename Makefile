# Build/test entry points. `make check` is the PR gate: it builds and
# vets every package (vet runs over ./..., so new packages are covered
# automatically), then runs the short test suite under the race
# detector, which exercises the internal/runner worker pool, the
# concurrent metrics sinks, and the suite-level order-independence
# tests concurrently.
#
# `make faultcheck` runs just the fault-injection suite — panic
# isolation, retries, deadlines, cache quarantine, KeepGoing
# determinism — under the race detector.

GO ?= go

.PHONY: all build vet check test faultcheck conform fuzzsmoke obssmoke streamsmoke scalesmoke servesmoke benchsmoke abpairs benchprof figures clean

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

# Replay the committed conformance corpus: every case re-simulates
# serially, with phase shards, with fast-forward disabled, and at extra
# odd core counts (3/5/7 leave the steal spans uneven), and the
# normalized stats must match expected_stats.json byte for byte. After
# an intentional behavior change, regenerate with
# `go run ./cmd/conform -update` and commit the diff. Then the window
# differential over the same corpus: the engine's ICNTLatency+1-cycle
# windows against one-cycle windows (the per-cycle schedule), stats and
# sampled series, fast-forward on and off, 1/2/3 cores — and the budget
# sweep that ends a run off the window grid.
conform: build
	$(GO) run ./cmd/conform -j 8 -extra-cores 3,5,7
	$(GO) test -count=1 -run 'TestQuantumDifferential|TestBudgetOffTheWindowGrid' ./internal/sim/

# Fixed-seed differential fuzz smoke under the race detector: 200
# random (config, policy, workload) triples run serial vs sharded vs
# ff-off with the invariant sweeps on. Deterministic, so a failure in
# CI reproduces locally with the same seed; findings are shrunk and
# written to /tmp/conffuzz-findings as ready-to-commit corpus cases.
fuzzsmoke: build
	$(GO) run -race ./cmd/conffuzz -seed 1 -n 200 -out /tmp/conffuzz-findings

# Observability smoke, the end-to-end fence of the shared run harness
# (internal/cli): one tiny suite with -metrics and -trace enabled, then
# prove both exported files re-parse — the JSONL stream with the schema
# and arity checks, the Chrome trace with the phase validation Perfetto
# relies on. BFS keeps a cache-insufficient app in the subset so the
# headline geomeans are defined. A second point runs a
# registry-extension policy through dlpsim so the non-paper schemes'
# metric namespaces stay linted too.
obssmoke: build
	$(GO) run ./cmd/paperfigs -exp fig10 -apps BP,HS,BFS -quiet \
		-metrics /tmp/smoke_metrics.jsonl -trace /tmp/smoke_trace.json
	$(GO) run ./cmd/metriclint -metrics /tmp/smoke_metrics.jsonl -trace /tmp/smoke_trace.json
	$(GO) run ./cmd/dlpsim -app HS -policy ata \
		-metrics /tmp/smoke_ata.jsonl -trace /tmp/smoke_ata_trace.json
	$(GO) run ./cmd/metriclint -metrics /tmp/smoke_ata.jsonl -trace /tmp/smoke_ata_trace.json

# Full suite, including the ~2 min headline reproduction tests.
test: build vet
	$(GO) test ./...

# Streamed-frontend smoke: record a 10x-scaled trace with dlptrace,
# verify its digest and replayability, replay it through dlpsim with
# the observability exports on, lint those exports, and re-run the
# streamed conformance cases (streamed variants must match the eager
# serial reference byte for byte).
streamsmoke: build
	$(GO) run ./cmd/dlptrace record -app SC -scale 10 -o /tmp/streamsmoke.dlpstrm
	$(GO) run ./cmd/dlptrace verify /tmp/streamsmoke.dlpstrm
	$(GO) run ./cmd/dlpsim -stream-file /tmp/streamsmoke.dlpstrm -policy dlp \
		-metrics /tmp/streamsmoke_metrics.jsonl -trace /tmp/streamsmoke_trace.json
	$(GO) run ./cmd/metriclint -metrics /tmp/streamsmoke_metrics.jsonl -trace /tmp/streamsmoke_trace.json
	$(GO) run ./cmd/conform -run 'stream-*'

# Multi-core determinism smoke under the race detector: the same
# dlpsim run serially and at -cores 0 (auto: all host CPUs) with the
# invariant sweeps on, printed stats diffed byte for byte. Both runs
# ride two different workloads so a core-count-dependent divergence in
# either the baseline or the DLP machinery would surface.
scalesmoke: build
	$(GO) run -race ./cmd/dlpsim -app HS -policy dlp -selfcheck -cores 1 > /tmp/scalesmoke_c1.txt
	$(GO) run -race ./cmd/dlpsim -app HS -policy dlp -selfcheck -cores 0 > /tmp/scalesmoke_cN.txt
	cmp /tmp/scalesmoke_c1.txt /tmp/scalesmoke_cN.txt
	$(GO) run -race ./cmd/dlpsim -app BFS -policy baseline -selfcheck -cores 1 > /tmp/scalesmoke_b1.txt
	$(GO) run -race ./cmd/dlpsim -app BFS -policy baseline -selfcheck -cores 0 > /tmp/scalesmoke_bN.txt
	cmp /tmp/scalesmoke_b1.txt /tmp/scalesmoke_bN.txt
	@echo "scalesmoke: serial and all-core runs are byte-identical"

# Job-server smoke: start dlpserved on an ephemeral port, replay three
# committed conformance cases through the HTTP API with dlpload (the
# server's normalized stats must byte-match expected_stats.json), drain
# it with POST /shutdown, then run the reduced-scale concurrency soak —
# dedup storms, cancellation mix, graceful drain — under the race
# detector.
servesmoke: build
	$(GO) build -o /tmp/dlpserved ./cmd/dlpserved
	$(GO) build -o /tmp/dlpload ./cmd/dlpload
	rm -f /tmp/dlpserved.addr; \
	/tmp/dlpserved -addr 127.0.0.1:0 -addr-file /tmp/dlpserved.addr & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 100); do [ -s /tmp/dlpserved.addr ] && break; sleep 0.1; done; \
	/tmp/dlpload -addr-file /tmp/dlpserved.addr -replay testdata/conform -run 'app-*' && \
	/tmp/dlpload -addr-file /tmp/dlpserved.addr -shutdown && \
	wait $$pid
	$(GO) test -race -short -run 'TestServeSoak|TestDedupStormSingleSimulation' ./internal/serve/

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
# workload once and prints `go tool pprof -top`, flat and cumulative.
# Seed 1 unless SEED is given: seed 2 is for claims, not for looking.
PROFILE_S ?= 6
benchprof:
	bash scripts/benchprof.sh $(WORKLOAD) $(if $(filter file,$(origin SEED)),1,$(SEED)) $(PROFILE_S)

# Regenerate the committed reference outputs.
figures:
	$(GO) run ./cmd/paperfigs > paperfigs_output.txt
	$(GO) run ./cmd/ablate -quiet > ablate_output.txt

clean:
	$(GO) clean ./...
