GO ?= go

.PHONY: all build test vet race check bench bench-smoke bench-json benchgate \
	coverage coverage-check figures telemetry-smoke durability journalcheck \
	shardcheck remotecheck scalecheck loadcheck fuzzcheck profile-cluster \
	perfbench-check fmtcheck

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmtcheck fails when any Go file in the tree (perfbench included) is
# not gofmt-clean, printing the offenders.
fmtcheck:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

race:
	$(GO) test -race ./...

# telemetry-smoke drives the observability endpoint end to end: real
# harness activity, a live /metrics scrape, and assertions on the
# advertised metric names and trace span hierarchy.
telemetry-smoke:
	$(GO) test -run TestTelemetrySmoke -count=1 ./internal/telemetry

# durability runs the crash-simulation tests for the campaign journal's
# write-ahead manifest protocol (fsync ordering, failed-seal refusal)
# and the durable publish sequence the CLI's config.json and
# merged.json go through.
durability:
	$(GO) test -run 'TestCreateManifest|TestPublishFile' -count=1 ./internal/campaign

# journalcheck drives the journal's crash story: torn-tail and bit-flip
# recovery at every offset (v2, and the read-only v1 reader), failed-
# append rewind, v1 refusal on open and v1→v2 conversion with replay
# verification, in-process and real-process (SIGKILL) resumes, and the
# committed v1 fixtures a v1-writing binary left behind. (Fuzzing of
# the decoders lives in `fuzzcheck`.)
journalcheck:
	$(GO) test -run 'TestJournal|TestOpenJournal|TestConvertJournal|TestRunResumeBitIdenticalAcrossFormats|TestReplay' \
		-count=1 ./internal/campaign
	$(GO) test -run 'TestCampaignWritesV2Journal|TestCampaignV2SIGKILLResumeByteIdentity|TestShardedCampaignV2ByteIdentity|TestV1CampaignFixtureCompat' \
		-count=1 ./cmd/scibench

# shardcheck drives the distributed-execution stack with real executor
# processes: one SIGKILLed mid-shard (resume from journal on
# reassignment), one wedged without heartbeats (stall-killed), and the
# CLI sharded campaign — every merged report byte-identical to its
# single-process reference.
shardcheck:
	$(GO) test -run 'TestProcess' -count=1 ./internal/shard
	$(GO) test -run 'TestShardedCampaignSIGKILLByteIdentity' -count=1 ./cmd/scibench

# remotecheck drives the cross-machine transport: two loopback workers
# under injected loss/delay/duplication, a mid-shard partition forcing a
# fenced reassignment with resume-from-shipped-journal, a ship pass cut
# after each file (the mirror never holds a journal without its
# manifest), and the CLI worker-loss campaign — every merged report
# byte-identical to its single-process reference.
remotecheck:
	$(GO) test -run 'TestLoopbackTwoWorkersFaultyByteIdentity|TestPartitionReassignmentByteIdentity|TestAllWorkersUnreachableDegrades|TestZombieFencing|TestShipPassManifestBeforeJournal' -count=1 ./internal/remote
	$(GO) test -run 'TestRemoteCampaignWorkerLossByteIdentity' -count=1 ./cmd/scibench

# loadcheck drives the open-loop service workload's guarantees: arrival
# and simulation determinism, the service-draw order-independence the
# bit-identity contract rests on, the coordinated-omission golden test
# against its analytic M/D/1 value, per-epoch allocations independent of
# the request count, the sweep's worker-count byte-identity at both the
# library and CLI (merged.json) layers, and the sweep bytes pinned
# across commits.
loadcheck:
	$(GO) test -run 'TestSchedule|TestRunDeterministic|TestServiceDrawIsPerRequest|TestCoordinatedOmission|TestOmissionRatio|TestRunAllocsIndependentOfArrivals' \
		-count=1 ./internal/serve
	$(GO) test -run 'TestRunServeWorkerInvariance|TestRunServeKneeDetection|TestQuantileCIHist' \
		-count=1 ./internal/suite ./internal/ci
	$(GO) test -run 'TestServeMergedJSONWorkerInvariance' -count=1 ./cmd/scibench
	$(GO) test -run 'TestServeSweepJSONGolden' -count=1 .

# Every fuzz target in the repo with its package, one per line:
# "<package-dir> <FuzzTarget>". CI's fuzz matrix and the local fuzzcheck
# loop both consume this list, so a new target added here is fuzzed
# everywhere without touching the workflow.
FUZZ_TARGETS = \
	./internal/campaign FuzzReplay \
	./internal/campaign FuzzJournalV2 \
	./internal/campaign FuzzManifest \
	./internal/campaign FuzzReplayTruncation \
	./internal/shard FuzzLoadSweep \
	./internal/shard FuzzLoadManifest \
	./internal/remote FuzzChunkFrame \
	./internal/remote FuzzRegister \
	./internal/remote FuzzValidChunkPath \
	./internal/regress FuzzParseReport \
	./internal/regress FuzzParseBench \
	./internal/desim FuzzEventOrder \
	./internal/serve FuzzArrivalSchedule \
	./internal/stats FuzzHistogramMerge

FUZZTIME ?= 10s

# fuzzcheck runs every fuzz target for FUZZTIME each — the local
# equivalent of CI's matrix fuzz job (which runs 30s per target with a
# persistent corpus cache).
fuzzcheck:
	@set -e; \
	set -- $(FUZZ_TARGETS); \
	while [ $$# -gt 0 ]; do \
		pkg=$$1; tgt=$$2; shift 2; \
		echo "fuzz $$tgt ($$pkg)"; \
		$(GO) test -run '^$$' -fuzz "^$$tgt\$$" -fuzztime $(FUZZTIME) $$pkg; \
	done

# check is the CI gate: static analysis, the plain suite first (clean
# line numbers for pure-Go failures), then the race pass and the
# telemetry + durability + distributed-execution + load-generation
# drives.
check: fmtcheck vet test race telemetry-smoke durability journalcheck shardcheck remotecheck loadcheck

bench:
	$(GO) test -bench=. -benchmem ./...

# BENCH_PKGS is every package that actually defines a benchmark, so the
# smoke pass doesn't recompile and run empty test binaries for the rest.
BENCH_PKGS = $(shell grep -rl --include='*_test.go' 'func Benchmark' . | xargs -n1 dirname | sort -u)

# bench-smoke compiles and runs every benchmark once: catches
# benchmarks that no longer build or crash, without being a perf gate.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x $(BENCH_PKGS)

# The harness benchmarks the committed baseline tracks (suite engine,
# bootstrap, analysis fast path, collective scaling at P=1k/64k/1M,
# machine construction).
HARNESS_BENCH = BenchmarkSuiteRun|BenchmarkBootstrapCI|BenchmarkAnalyze|BenchmarkSampleReset|BenchmarkSummarize$$|BenchmarkMedianCI|BenchmarkCollective|BenchmarkJournal|BenchmarkServe|BenchmarkHistogramRecord|BenchmarkMachineNew
BENCH_COUNT ?= 5

# bench-json records the harness benchmarks as a schema v2 sample set
# (BENCH_COUNT runs per benchmark, raw per-run samples + Rule 9 env +
# provenance) — the committed baseline cmd/benchgate gates against.
bench-json:
	$(GO) run ./cmd/benchjson -count $(BENCH_COUNT) -bench '$(HARNESS_BENCH)' \
		-o BENCH_harness.json .
	@echo wrote BENCH_harness.json

# benchgate collects a fresh candidate sample set and gates it against
# the committed baseline with median CIs and rank tests (Rules 5-8
# applied to our own perf trajectory). ARGS passes extra benchgate
# flags, e.g. make benchgate ARGS=-advisory.
benchgate:
	$(GO) run ./cmd/benchjson -count $(BENCH_COUNT) -bench '$(HARNESS_BENCH)' \
		-o BENCH_candidate.json .
	$(GO) run ./cmd/benchgate -baseline BENCH_harness.json \
		-candidate BENCH_candidate.json $(ARGS)

# scalecheck is the million-rank smoke: the 2^20-rank summary-mode
# Allreduce must complete as a single sweep with allocations independent
# of P, and the batch/worker-invariance goldens must hold. Machine
# construction must cost the same at any node count and match its full
# per-node reference draw for draw. No race detector — at this scale it
# would multiply memory and run time without adding coverage beyond the
# dedicated race pass in `check`.
scalecheck:
	$(GO) test -run 'TestMillionRankSummarySmoke|TestSummaryAllocsFlat|TestCollectiveBatchWorkerInvariance|TestNewMatchesReference|TestNewAllocsIndependentOfNodes' \
		-count=1 ./internal/cluster
	$(GO) test -run '^$$' -bench 'BenchmarkCollective.*/p=1048576' -benchtime 1x -benchmem .

# profile-cluster captures CPU + allocation profiles of the collective
# hot loop (million-rank Allreduce). Inspect with:
#   go tool pprof cluster.cpu.pprof
profile-cluster:
	$(GO) test -run '^$$' -bench 'BenchmarkCollectiveAllreduce/p=1048576' -benchtime 3x \
		-cpuprofile cluster.cpu.pprof -memprofile cluster.mem.pprof .
	@echo "wrote cluster.cpu.pprof and cluster.mem.pprof"

coverage:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# coverage-check fails when total coverage drops more than 2 points
# below the committed COVERAGE watermark (and prints a nudge to raise
# the watermark when coverage grew).
coverage-check: coverage
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	floor=$$(cat COVERAGE); \
	echo "coverage: $${total}% (watermark $${floor}%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit !(t >= f - 2.0) }' || \
		{ echo "FAIL: coverage $${total}% is more than 2 points below watermark $${floor}%"; exit 1; }; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit !(t > f + 0.5) }' && \
		echo "note: coverage rose above the watermark; consider updating COVERAGE to $${total}" || true

figures:
	$(GO) run ./cmd/figures all -quick

# perfbench-check builds, vets and short-tests the end-to-end benchmark
# harness, a separate module under perfbench/ that imports the internal
# packages: an API change that breaks the benchmark fails here.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...
