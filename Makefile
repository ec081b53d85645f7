# The verify target is the full correctness gate: compile, gofmt,
# go vet, the repo's own static checker (cmd/apvet), and the test
# suite under the Go race detector, plus two guards that only mean
# anything without -race: the zero-allocation PUT issue paths
# (single, batched and stride; sync.Pool drops items under the race
# detector) and the deterministic goldens: the paper's tables and
# MLSim's bit-identical replays. The exact-count gates
# (hot counter, >256-cell ring, coalesced command stream) rerun on one
# core so their verdict does not depend on the host's. The PGAS
# overflow-order gate reruns under -race on one core and on four: the
# aggregator reuses its outgoing regions on the strength of the send
# flag wait, and the gate's verdict must not depend on the host's core
# count. The MSC+ front tests (one CPU producer on the SPSC send
# rings, several reply producers, one consumer) run the same way, for
# the same reason. Every line pinned to a GOMAXPROCS passes -count=1:
# go test's cache does not key on GOMAXPROCS, so the second line of a
# pair would otherwise replay the first. BenchmarkAggregator and
# BenchmarkAppKernels run once so their tables cannot rot. The bench
# module is vetted and tested on its own lines: it compiles against
# internal/ APIs but the root ./... does not see it.
# CI and pre-commit should run `make verify`.

GO ?= go

.PHONY: all build test verify apvet apvet-baseline bench fuzz chaos

# STAGING_TESTS pin the link matrix's staged outboxes: what Transmit,
# Flush and DrainInbox charge, wake and deliver, and the batched
# RingLink against a per-packet test oracle and under a racing
# producer. verify runs them and the wire differential at GOMAXPROCS 1
# and 4, because staged flushes interact with parking and a gate's
# verdict must not depend on the host's core count.
STAGING_TESTS = TestTransmitStagesUntilFlush|TestReplyStagedDuringDrain|TestDrainInboxMax|TestLinkImplsEquivalent|TestRingLinkConcurrentFIFO|TestRingWireOrderAndDrain|TestFaultFatesRideTheLink

# COMBINING_TESTS pin the delivery workers' combining folds: combined
# equals uncombined, folds never cross a partition, and no command
# overtakes an earlier atomic of its cell. verify runs them under -race
# at GOMAXPROCS 1 and 4, because a fold's hold window depends on
# scheduling and a gate's verdict must not depend on the host's core
# count.
COMBINING_TESTS = TestAtomicCombinedEqualsUncombined|TestAtomicCombiningAcrossPartitions|TestCombiningKeepsIssueOrder

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# apvet enforces the simulator's communication discipline: no raw
# DRAM writes behind the MSC+, every PUT/GET flag waited on and
# balanced against its wait threshold, no blocking calls in delivery
# handlers (direct or through helpers), no microsecond/nanosecond unit
# mixing. Test files are scanned too. apvet.json is the machine-
# readable report of the latest run. See cmd/apvet and the "Typed
# static analysis" section of DESIGN.md.
apvet:
	$(GO) run ./cmd/apvet -json ./... > apvet.json

# apvet-baseline diffs the current report against the committed
# apvet.baseline.json, so a PR that introduces a new finding (or a new
# suppression) shows up as a diff even when the finding is suppressed.
apvet-baseline: apvet
	diff -u apvet.baseline.json apvet.json

verify:
	$(GO) build ./...
	test -z "$$(gofmt -l $$(git ls-files '*.go' | grep -v testdata))"
	$(GO) vet ./...
	$(GO) vet -C bench . && $(GO) test -C bench .
	$(GO) run ./cmd/apvet -json ./... > apvet.json
	diff -u apvet.baseline.json apvet.json
	$(GO) test -race ./...
	$(GO) test -race -run 'TestConcurrentFIFOProperty|TestOverflowConcurrentFIFO' ./internal/ring/
	GOMAXPROCS=1 $(GO) test -race -count=1 -run TestWireDifferential .
	GOMAXPROCS=4 $(GO) test -race -count=1 -run TestWireDifferential .
	GOMAXPROCS=1 $(GO) test -race -count=1 -run '$(STAGING_TESTS)' ./internal/tnet/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run '$(STAGING_TESTS)' ./internal/tnet/
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'TestRingFront|TestMSC' ./internal/msc/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestRingFront|TestMSC' ./internal/msc/
	$(GO) test -run 'TestPutIssueZeroAllocUnobserved|TestBatchIssueZeroAllocUnobserved|TestStridePutZeroAllocUnobserved' .
	$(GO) test -run TestDSMCacheHitZeroAlloc ./internal/dsm/
	$(GO) test -run TestPGASAggregatedZeroAlloc ./internal/pgas/
	GOMAXPROCS=1 $(GO) test -race -count=1 -run TestAggOverflowOrder ./internal/pgas/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run TestAggOverflowOrder ./internal/pgas/
	GOMAXPROCS=1 $(GO) test -race -count=1 -run '$(COMBINING_TESTS)' .
	GOMAXPROCS=4 $(GO) test -race -count=1 -run '$(COMBINING_TESTS)' .
	$(GO) test -run '^$$' -bench BenchmarkAggregator -benchtime=1x ./internal/pgas/
	$(GO) test -run '^$$' -bench BenchmarkAppKernels -benchtime=1x ./internal/apps/
	$(GO) test -run 'TestTablesDeterministicOrder|TestReplayGolden' ./internal/stats/ ./internal/mlsim/
	GOMAXPROCS=1 $(GO) test -count=3 -run 'TestAtomicHotCounterMessages|TestNeighborRingAtScale|TestCoalesceCommandCounts' . ./internal/machine/
	$(MAKE) chaos

# chaos is the fault-injection gate: the seeded chaos kernels and the
# random-workload property tests under the race detector (retransmit,
# dedup and limbo-release paths are concurrency-heavy), plus short
# fuzz passes over the fault-plan parser, the trace codec's
# corrupted-wire seeds, the stride DMA engine against its
# byte-at-a-time oracle and the batched link against its per-packet
# oracle.
chaos:
	$(GO) test -race -run 'TestChaos|TestFaultProperty|TestBatchMatchesSingleIssue|TestPGASProperty|TestAtomicHotCounterMessages' .
	$(GO) test -fuzz FuzzPlan -fuzztime 5s ./internal/fault/
	$(GO) test -fuzz FuzzRead -fuzztime 5s ./internal/trace/
	$(GO) test -fuzz FuzzCopyStride -fuzztime 5s ./internal/mem/
	$(GO) test -fuzz FuzzLinkEquivalent -fuzztime 5s ./internal/tnet/

# The ring-buffer property tests and the wire differential gate run
# inside `go test -race ./...` too; the explicit lines above pin them
# as named gates — the SPSC and spill-queue FIFO properties under the
# race detector, and the seeded chaos workload at several delivery-
# worker counts, with combining, and under fault plans, asserting the
# memory its closed form predicts and equal flag counts, on one core
# and on four.

# bench runs the go test -bench tables and regenerates BENCH_obs.json,
# the Table 2 functional runs' full machine counter report (per-app,
# per-cell). Host wall-clock numbers come from the bench module:
# go run -C bench . (see bench/README.md).
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...
	$(GO) run ./cmd/apbench -experiment table2 -metrics-json BENCH_obs.json > /dev/null

# Short fuzz pass over the trace codec (corpus seeds under
# internal/trace/testdata/fuzz are always exercised by plain go test).
fuzz:
	$(GO) test -fuzz FuzzRead -fuzztime 30s ./internal/trace/
