GO ?= go

.PHONY: all build test race vet bench bench-baseline bench-pr2 bench-pr3 bench-pr5 bench-pr6 bench-pr7 bench-pr9 bench-pr10 benchcmp cover crash-smoke cluster-smoke fuzz-crash

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

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
BASELINE_CORE := BenchmarkFZF|BenchmarkFZFScratch|BenchmarkVerifierReuse|BenchmarkTraceParse|BenchmarkTraceCheckParallel|BenchmarkStreamCheck$$|BenchmarkHotKey|BenchmarkStreamCheckZipf|BenchmarkSmallestDelta
BASELINE_BENCHES := $(BASELINE_CORE)|BenchmarkOnlineIngest

#
# BenchmarkMultiProperty likewise records in its own pass at the gate's
# -benchtime: one iteration is a full 16k-op streaming pass, so the default
# benchtime would oversample it; -short skips its 1M-op replay rows, which
# are recorded by bench-pr9 instead.
#
# BenchmarkChurningKeyspace records at the gate's -benchtime too: one
# iteration is a full churn-trace replay, so the default benchtime would
# oversample it, and the gate's normalization needs matching scales.
bench-baseline:
	$(GO) test -run '^$$' -bench '$(BASELINE_CORE)' -benchmem -count 6 -timeout 60m . | tee BENCH_baseline.txt
	$(GO) test -run '^$$' -bench 'BenchmarkOnlineIngest' -benchtime 20000x -benchmem -count 6 -timeout 30m . | tee -a BENCH_baseline.txt
	$(GO) test -short -run '^$$' -bench 'BenchmarkMultiProperty' -benchtime 20x -benchmem -count 6 -timeout 30m . | tee -a BENCH_baseline.txt
	$(GO) test -run '^$$' -bench 'BenchmarkChurningKeyspace' -benchtime 200x -benchmem -count 6 -timeout 30m . | tee -a BENCH_baseline.txt
	$(GO) run ./scripts/benchjson BENCH_baseline.txt > BENCH_baseline.json

# PR 2 trajectory record: the pinned families plus the 1M-op streaming vs
# monolithic comparison (throughput, allocs, sampled peak heap, live-op
# peak).
bench-pr2:
	$(GO) test -run '^$$' -bench '$(BASELINE_BENCHES)|BenchmarkStream1M' -benchmem -count 3 -timeout 30m . | tee BENCH_pr2.txt
	$(GO) run ./scripts/benchjson BENCH_pr2.txt > BENCH_pr2.json

# PR 3 trajectory record: the pinned families plus the hot-key chunk
# parallelism rows (single register, 64k ops, sequential vs 4 workers vs
# memoized) and the Zipf-skewed streaming workload.
bench-pr3:
	$(GO) test -run '^$$' -bench '$(BASELINE_BENCHES)|BenchmarkStream1M' -benchmem -count 3 -timeout 30m . | tee BENCH_pr3.txt
	$(GO) run ./scripts/benchjson BENCH_pr3.txt > BENCH_pr3.json

# PR 5 trajectory record: the pinned families plus the online batch-ingest
# matrix (1/4/8 producers × op-granular vs batched, with the locks/op
# custom metric) and the 1M-op streaming row.
bench-pr5:
	$(GO) test -run '^$$' -bench '$(BASELINE_BENCHES)|BenchmarkStream1M' -benchmem -count 3 -timeout 30m . | tee BENCH_pr5.txt
	$(GO) run ./scripts/benchjson BENCH_pr5.txt > BENCH_pr5.json

# PR 6 trajectory record: the pinned families plus the durable-ingest rows
# (BenchmarkOnlineIngest fsync=never/batch/always against real disk, with
# fsyncs/op and WAL bytes/op custom metrics). Run WITHOUT -short so the
# durability rows execute.
bench-pr6:
	$(GO) test -run '^$$' -bench '$(BASELINE_BENCHES)|BenchmarkStream1M' -benchmem -count 3 -timeout 30m . | tee BENCH_pr6.txt
	$(GO) run ./scripts/benchjson BENCH_pr6.txt > BENCH_pr6.json

# PR 7 trajectory record: the pinned families plus the wire-codec rows in
# BenchmarkOnlineIngest (decode=text|wire pure-codec comparison and
# codec=text|wire full session-ingest comparison, both at batch=512 with
# the bodyB/op payload-size metric). The ingest family reruns in a second
# pass at a higher -benchtime because its unit is one ingested operation.
bench-pr7:
	$(GO) test -run '^$$' -bench '$(BASELINE_CORE)|BenchmarkStream1M' -benchmem -count 3 -timeout 30m . | tee BENCH_pr7.txt
	$(GO) test -run '^$$' -bench 'BenchmarkOnlineIngest' -benchtime 20000x -benchmem -count 4 -timeout 30m . | tee -a BENCH_pr7.txt
	$(GO) run ./scripts/benchjson BENCH_pr7.txt > BENCH_pr7.json

# PR 9 trajectory record: the pinned families plus the multi-property rows
# — k-only vs k+Δ+regularity in the same streaming pass, including the
# 1M-op replay (run WITHOUT -short so the 1M rows execute; MultiProperty
# gets its own low -benchtime pass, one iteration being a full replay).
bench-pr9:
	$(GO) test -run '^$$' -bench '$(BASELINE_CORE)' -benchmem -count 3 -timeout 30m . | tee BENCH_pr9.txt
	$(GO) test -run '^$$' -bench 'BenchmarkOnlineIngest' -benchtime 20000x -benchmem -count 3 -timeout 30m . | tee -a BENCH_pr9.txt
	$(GO) test -run '^$$' -bench 'BenchmarkMultiProperty' -benchtime 3x -benchmem -count 3 -timeout 60m . | tee -a BENCH_pr9.txt
	$(GO) run ./scripts/benchjson BENCH_pr9.txt > BENCH_pr9.json

# PR 10 trajectory record: the churning-keyspace lifecycle rows (settled
# live-heap bytes per op and retire-rate, retirement off vs on) plus the
# pinned gate families for context.
bench-pr10:
	$(GO) test -run '^$$' -bench 'BenchmarkChurningKeyspace' -benchtime 200x -benchmem -count 3 -timeout 30m . | tee BENCH_pr10.txt
	$(GO) test -short -run '^$$' -bench '$(GATE_BENCHES)' -benchtime 500x -benchmem -count 3 -timeout 30m . | tee -a BENCH_pr10.txt
	$(GO) run ./scripts/benchjson BENCH_pr10.txt > BENCH_pr10.json

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
#
# The ROADMAP's ratio target rides along as a same-run pair (-pair): props=all
# at most 2.0x props=k, medians of this run only — machine-independent, and
# not satisfiable by merely beating an old props=all baseline row.
GATE_BENCHES := BenchmarkFZFScratch|BenchmarkVerifierReuse|BenchmarkTraceParse|BenchmarkTraceCheckParallel|BenchmarkStreamCheck$$|BenchmarkSmallestDelta

benchcmp:
	$(GO) test -short -run '^$$' -bench '$(GATE_BENCHES)' -benchtime 500x -benchmem -count 4 . > bench_current.txt || (cat bench_current.txt; exit 1)
	$(GO) test -short -run '^$$' -bench 'BenchmarkOnlineIngest' -benchtime 20000x -benchmem -count 4 . >> bench_current.txt || (cat bench_current.txt; exit 1)
	$(GO) test -short -run '^$$' -bench 'BenchmarkMultiProperty' -benchtime 20x -benchmem -count 4 . >> bench_current.txt || (cat bench_current.txt; exit 1)
	$(GO) test -short -run '^$$' -bench 'BenchmarkChurningKeyspace' -benchtime 200x -benchmem -count 4 . >> bench_current.txt || (cat bench_current.txt; exit 1)
	cat bench_current.txt
	$(GO) run ./scripts/benchcmp -baseline BENCH_baseline.json -pair 'BenchmarkMultiProperty/props=all,BenchmarkMultiProperty/props=k,2.0' bench_current.txt
