# Convenience targets; CI runs the same commands.

GO ?= go

.PHONY: all test vet run-patterns networks placements serve loadtest docker profile alloc-check fuzz-smoke trace-smoke

all: test

test:
	$(GO) build ./... && $(GO) test ./...

vet:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

# run-patterns fails when an alternation term of a `go test -run`
# pattern in the CI workflow names no Test or Fuzz function in that
# command's packages: after a rename, such a step would pass on nothing.
run-patterns:
	$(GO) test -count=1 -run 'CIRunPatternsNameTests' ./internal/cicheck

# profile runs the -networks sweep under the std runtime/pprof
# collectors and prints the top CPU and allocation sinks. The raw
# profiles land in ./prof/ for interactive `go tool pprof` sessions —
# this is how every before/after claim in DESIGN.md §11 is reproduced.
profile:
	mkdir -p prof
	$(GO) build -o prof/dsmbench ./cmd/dsmbench
	./prof/dsmbench -networks -cpuprofile prof/cpu.prof -memprofile prof/mem.prof > prof/networks.txt
	$(GO) tool pprof -top -nodecount 15 prof/dsmbench prof/cpu.prof
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_space prof/dsmbench prof/mem.prof

# alloc-check runs only the allocation-budget tests: steady-state
# allocs/op in the lrc interval path (and a reset interval store records
# intervals without allocating, a fresh one allocates per arena chunk,
# not per list), mem diff path, vc operations,
# the homeless jacobi inner loop, and the MemSink capture path (plain,
# capture-enabled, instrumented and dynamically aggregated engine runs:
# with the §5.3 collector on, a trial allocates nothing per exchange or
# per fault, and no trial allocates per interval, per first fault on a
# unit or per page-group rebuild, and a trial whose barriers switch
# protocols or move homes nothing per barrier or per written unit) must
# stay under the pinned budgets;
# §4's tracker and page groups must allocate nothing in steady state;
# a second identical harness cell must allocate well under what it did
# before cells recycled each other's pages; a steady-state barrier
# episode at 64 processors must allocate its epoch and nothing else —
# nothing per processor — in finishEpisode + applyBarrierGrant;
# a fresh MemSink must allocate one object per block of events and
# barely more bytes than it ends up holding; a reservation on a warmed
# netmodel timeline, and Reset followed by re-pricing the same stream,
# must allocate nothing; NewSystem may cost a processor at most 16 bytes
# a page and must leave the fetch scratch unallocated (it is sized by
# the faults a processor takes), and a reset stamp arena must carve its
# blocks again without allocating; a registry Lookup or ReplaySafe must
# allocate nothing, expsvc.Resolve at most its result, and a cache-hit
# POST /v1/run with logging off at most 26 objects beyond what a no-op
# handler makes with the same httptest request and recorder.
alloc-check:
	$(GO) test ./internal/lrc/ ./internal/aggregate/ ./internal/mem/ ./internal/vc/ ./internal/netmodel/ ./internal/simnet/ ./internal/tmk/ ./internal/trace/ ./internal/harness/ ./internal/apps/ ./internal/expsvc/ -run 'Alloc|Budget|StoreRecord' -v

# fuzz-smoke runs the fuzz targets for ten seconds each: the sparse
# vector-time register (ticks, stamp and dense merges, snapshots,
# rebases) against a plain dense vector, the occupancy
# timeline's block structure against the flat reference list, the
# chunked, slab-carving diff encoder against the word-by-word,
# exact-size one, the same encoder under a write mask (the stretches
# left out must never be read) against it too, the scratch-carving diff
# coalescer against the allocating last-write-wins one, trace decoding and
# derivation onto every network over arbitrary bytes (no panic,
# allocation bounded by the input, real captures derive onto their own
# network to their recorded totals), and spec resolution (idempotent,
# and the engine configuration it yields is already canonical).
# Minimizing each new interesting input can spend most of the ten
# seconds (the trace target's seeds are real captures of some 25 KB,
# and the timeline target was seen stalling about 2,000 executions in),
# so every target caps it at one try.
fuzz-smoke:
	$(GO) test ./internal/vc -run '^$$' -fuzz FuzzTrackedMatchesDense -fuzztime 10s -fuzzminimizetime 1x
	$(GO) test ./internal/netmodel -run '^$$' -fuzz FuzzTimelineReserve -fuzztime 10s -fuzzminimizetime 1x
	$(GO) test ./internal/mem -run '^$$' -fuzz FuzzEncodeDiff -fuzztime 10s -fuzzminimizetime 1x
	$(GO) test ./internal/mem -run '^$$' -fuzz FuzzEncodeStretches -fuzztime 10s -fuzzminimizetime 1x
	$(GO) test ./internal/mem -run '^$$' -fuzz FuzzCoalesce -fuzztime 10s -fuzzminimizetime 1x
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzReadRuns -fuzztime 10s -fuzzminimizetime 1x
	$(GO) test ./internal/expsvc -run '^$$' -fuzz FuzzResolve -fuzztime 10s -fuzzminimizetime 1x

# trace-smoke captures traced runs — Jacobi on bus, lock-based TSP on
# switch under the home protocol, and Jacobi on bus through the tree
# barrier — and derives each onto every interconnect: the capture's own
# model must reproduce its recorded time and totals bit-identically
# (dsmtrace exits 1 if not). Then it renders the first capture's
# summary, and requires the summary of that capture cut before its
# run_end to say the run is incomplete.
trace-smoke:
	$(GO) run ./cmd/dsmrun -app jacobi -dataset small -network bus -trace /tmp/dsm-trace-smoke.jsonl -json > /dev/null
	$(GO) run ./cmd/dsmrun -app tsp -dataset small -protocol home -network switch -trace /tmp/dsm-trace-smoke-tsp.jsonl -json > /dev/null
	$(GO) run ./cmd/dsmrun -app jacobi -dataset small -network bus -barrier tree -trace /tmp/dsm-trace-smoke-tree.jsonl -json > /dev/null
	$(GO) run ./cmd/dsmtrace -replay /tmp/dsm-trace-smoke.jsonl
	$(GO) run ./cmd/dsmtrace -replay -network all /tmp/dsm-trace-smoke.jsonl
	$(GO) run ./cmd/dsmtrace -replay -network all /tmp/dsm-trace-smoke-tsp.jsonl
	$(GO) run ./cmd/dsmtrace -replay -network all /tmp/dsm-trace-smoke-tree.jsonl
	$(GO) run ./cmd/dsmtrace /tmp/dsm-trace-smoke.jsonl | head -20
	sed '$$d' /tmp/dsm-trace-smoke.jsonl > /tmp/dsm-trace-smoke-cut.jsonl
	$(GO) run ./cmd/dsmtrace -json /tmp/dsm-trace-smoke-cut.jsonl | grep -q '"complete": false'

# networks prints the interconnect sensitivity sweep.
networks:
	$(GO) run ./cmd/dsmbench -networks

# placements prints the home-placement comparison (home & adaptive on
# ideal and bus, every registered policy).
placements:
	$(GO) run ./cmd/dsmbench -placements

# serve starts the experiment service on DSMD_ADDR (default :8080).
# Configure with DSMD_ADDR / DSMD_CACHE_ENTRIES / DSMD_MAX_CONCURRENT_RUNS.
serve:
	$(GO) run ./cmd/dsmd

# loadtest fires concurrent mixed hit/miss spec traffic at an in-process
# experiment service backed by the real engine and reports requests/sec,
# engine-run count, and cache hit rate.
loadtest:
	$(GO) test ./internal/expsvc/ -run NoTestsJustBench -bench BenchmarkServerMixed -benchtime 2s

# docker builds the dsmd container image (static binary, FROM scratch).
docker:
	docker build -t dsmd .
