GO ?= go

.PHONY: all build test race vet loc bench bench-baseline benchcmp cover crash-smoke cluster-smoke fuzz-crash

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Code budget (ROADMAP aim 2): non-test Go lines in the service packages and
# kat.go must equal LOC_BUDGET. Over it fails; under it fails too, so a PR
# that shrinks them has to lower the constant to the new total and the
# budget can neither grow nor lag.
LOC_BUDGET := 8772
LOC_SET := internal/trace internal/core internal/online internal/serve internal/cluster internal/checkpoint
loc:
	@find $(LOC_SET) -name '*.go' ! -name '*_test.go' | xargs wc -l kat.go | awk -v budget=$(LOC_BUDGET) '{ print } END { if ($$1 > budget) { print "loc: " $$1 " non-test lines, over LOC_BUDGET " budget; exit 1 } if ($$1 < budget) { print "loc: budget is stale, lower LOC_BUDGET to " $$1; exit 1 } print "loc: " $$1 " of LOC_BUDGET " budget }'

# Coverage gate: total statement coverage across every package must stay
# above COVER_MIN, so test-only packages (internal/refcheck and its
# differential/metamorphic suites) and the per-property checkers
# (internal/delta, internal/regularity — both in the ./... profile) cannot
# silently rot. The current total is ~83%; the gate sits below it with
# margin for incidental churn.
COVER_MIN ?= 75
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./...
	$(GO) run ./scripts/covercheck -min $(COVER_MIN) cover.out

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Record the hot-path benchmark families so future PRs can track the perf
# trajectory: BENCH_baseline.txt is benchstat-ready, BENCH_baseline.json
# wraps the same run with environment metadata.
#
# BenchmarkOnlineIngest records in a second pass at the exact -benchtime
# the benchcmp gate uses (its unit is one ingested operation, and the
# gate's normalization median spans every row, so baseline and gate must
# sample the family at the same iteration scale or the ingest rows skew
# the machine-speed factor for everything else).
BASELINE_CORE := BenchmarkFZF|BenchmarkFZFScratch|BenchmarkVerifierReuse|BenchmarkPrepare|BenchmarkTraceParse|BenchmarkTraceCheckParallel|BenchmarkStreamCheck$$|BenchmarkHotKey|BenchmarkStreamCheckZipf
#
# BenchmarkMultiProperty likewise records in its own pass at the gate's
# -benchtime: one iteration is a full 16k-op streaming pass, so the default
# benchtime would oversample it; -short skips its 1M-op replay rows.
#
# BenchmarkChurningKeyspace records at the gate's -benchtime too: one
# iteration is a full churn-trace replay, so the default benchtime would
# oversample it, and the gate's normalization needs matching scales.
#
# BenchmarkSmallestDelta records alone and at the gate's -benchtime as well: a
# one-shot call allocates ~100 KB of buffers, and a 500-iteration run that
# follows other families in one process spends its whole window touching
# fresh pages (60 → 100 µs/op), which a 1 s run amortizes — baseline and gate
# must see the same thing.
#
# BenchmarkSmallestK/segment=32, segment=k3 and segment=k3open (the streaming
# engine's per-segment ladder on a warm Verifier: settled by zones and FZF, by
# a closed staleness bracket, and by one exact-oracle probe) are named alone: -bench splits its pattern at '/', so a
# sub-benchmark cannot join the alternation above, and the rest of the family
# must stay out of the gate — its depth rows are one-shot SmallestK calls that
# prepare a private copy and allocate every buffer per call. They record
# at the gate's -benchtime: at 1–4 µs an iteration, 20 000 of them read 10–60 %
# above a one-second run, so a baseline sampled the other way fails the gate.
#
# BenchmarkColdKeyIngest records alone at 2 000 000 operations: its unit is one
# operation over 4 096 keys, so only a run of a few hundred operations a key
# closes windows and holds segments. It is recorded, not gated — a two-million
# operation pass four times over would double the gate's run time.
bench-baseline:
	$(GO) test -run '^$$' -bench '$(BASELINE_CORE)' -benchmem -count 6 -timeout 60m . | tee BENCH_baseline.txt
	$(GO) test -run '^$$' -bench 'BenchmarkSmallestK/segment=(32|k3|k3open)$$' -benchtime 20000x -benchmem -count 6 . | tee -a BENCH_baseline.txt
	$(GO) test -run '^$$' -bench 'BenchmarkSmallestDelta' -benchtime 500x -benchmem -count 6 . | tee -a BENCH_baseline.txt
	$(GO) test -run '^$$' -bench 'BenchmarkOnlineIngest' -benchtime 20000x -benchmem -count 6 -timeout 30m . | tee -a BENCH_baseline.txt
	$(GO) test -short -run '^$$' -bench 'BenchmarkMultiProperty' -benchtime 20x -benchmem -count 6 -timeout 30m . | tee -a BENCH_baseline.txt
	$(GO) test -run '^$$' -bench 'BenchmarkChurningKeyspace' -benchtime 200x -benchmem -count 6 -timeout 30m . | tee -a BENCH_baseline.txt
	$(GO) test -run '^$$' -bench 'BenchmarkColdKeyIngest' -benchtime 2000000x -benchmem -count 6 . | tee -a BENCH_baseline.txt
	$(GO) run ./scripts/benchjson BENCH_baseline.txt > BENCH_baseline.json

# End-to-end crash-recovery smoke: SIGKILL a durable kavserve, restart from
# its -data-dir, verify recovered verdicts against the offline checker.
crash-smoke:
	./scripts/crash_smoke.sh

# End-to-end cluster smoke: 3 member nodes + kavchaos fault proxy +
# kavserve -route, merged cluster verdicts diffed against the offline
# checker on the same trace.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Crash-point fuzzer: byte-granular kill points and injected I/O faults over
# the WAL + checkpoint recovery path (see internal/checkpoint). The CI smoke
# replays the committed corpus; this target digs for new counterexamples.
fuzz-crash:
	$(GO) test -fuzz '^FuzzCrashPointRecovery$$' -fuzztime 60s ./internal/checkpoint/

# Regression gate: rerun the pinned hot-path families (the fast scratch
# ones — the one-shot FZF sweep is too slow to repeat 1000x) and compare
# against the committed baseline. Repeated samples (-count) let the gate
# compare medians with an IQR-based noise floor (scripts/benchcmp), so
# scheduler jitter outliers don't fail CI while real regressions still do.
# BenchmarkOnlineIngest runs in a second pass with a higher -benchtime:
# its unit is one ingested operation, so 500 iterations would not even
# fill one 512-op batch. BenchmarkMultiProperty runs in a third pass at a
# LOWER -benchtime: one iteration is a full 16k-op streaming pass, so 500
# iterations would take minutes per count (-short also skips its 1M rows).
# BenchmarkStreamCheckZipf (a 128k-op pass an iteration) rides in that pass:
# it gates the reader-driven driver's single-producer pipelining — workers=1
# is the row a too-large read chunk starves (trace.streamChunk).
#
# The ROADMAP's ratio target rides along as a same-run pair (-pair): props=all
# at most 2.0x props=k, medians of this run only — machine-independent, and
# not satisfiable by merely beating an old props=all baseline row. So does
# "prepare costs no more than the check it prepares for" (ROADMAP D(a)):
# BenchmarkPrepare/n=4000 at most 1.0x BenchmarkVerifierReuse, the k=2 check
# of the same 4000 operations.
GATE_BENCHES := BenchmarkFZFScratch|BenchmarkVerifierReuse|BenchmarkPrepare|BenchmarkTraceParse|BenchmarkTraceCheckParallel|BenchmarkStreamCheck$$

benchcmp:
	$(GO) test -short -run '^$$' -bench '$(GATE_BENCHES)' -benchtime 500x -benchmem -count 4 . > bench_current.txt || (cat bench_current.txt; exit 1)
	$(GO) test -short -run '^$$' -bench 'BenchmarkSmallestK/segment=(32|k3|k3open)$$' -benchtime 20000x -benchmem -count 4 . >> bench_current.txt || (cat bench_current.txt; exit 1)
	$(GO) test -short -run '^$$' -bench 'BenchmarkSmallestDelta' -benchtime 500x -benchmem -count 4 . >> bench_current.txt || (cat bench_current.txt; exit 1)
	$(GO) test -short -run '^$$' -bench 'BenchmarkOnlineIngest' -benchtime 20000x -benchmem -count 4 . >> bench_current.txt || (cat bench_current.txt; exit 1)
	$(GO) test -short -run '^$$' -bench 'BenchmarkMultiProperty|BenchmarkStreamCheckZipf' -benchtime 20x -benchmem -count 4 . >> bench_current.txt || (cat bench_current.txt; exit 1)
	$(GO) test -short -run '^$$' -bench 'BenchmarkChurningKeyspace' -benchtime 200x -benchmem -count 4 . >> bench_current.txt || (cat bench_current.txt; exit 1)
	cat bench_current.txt
	$(GO) run ./scripts/benchcmp -baseline BENCH_baseline.json -pair 'BenchmarkMultiProperty/props=all,BenchmarkMultiProperty/props=k,2.0' -pair 'BenchmarkPrepare/n=4000,BenchmarkVerifierReuse,1.0' bench_current.txt
