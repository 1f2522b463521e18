# Convenience targets for the APGAS reproduction.

GO ?= go

.PHONY: all build test race bench bench-smoke bench-module profile-smoke trace dtrace telemetry wire chaos chaos-kill litmus collectives fuzz-short experiments examples clean

all: build test race telemetry wire chaos chaos-kill litmus collectives dtrace bench-smoke bench-module profile-smoke fuzz-short

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Performance gates as go test assertions: ≥3x msgs/s from batching and
# ≥3x from the codec on the small-control-frame microbenchmark, one-sided
# puts at ≥50% of memcpy bandwidth, and the disabled tracing, profiling
# and wire-ledger hooks at <2% of a finish message with no allocation.
# The collectives pins assert that a steady-state all-to-all and
# all-reduce allocate nothing payload-sized. End-to-end numbers come
# from the benchmark in bench/ (bench/README.md).
bench-smoke:
	$(GO) test -run 'TestTransportBatchSpeedup|TestCodecSpeedup|TestOneSidedBandwidth|TestTracingDisabledOverhead|TestProfilingDisabledOverhead|TestWireLedgerDisabledOverhead' -count=1 -v ./internal/harness
	$(GO) test -run 'TestSteadyStateAllocations' -count=1 -v ./internal/collectives

# The benchmark's own tests. bench/ is a nested module, so the root's
# go test ./... never builds it.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# Continuous-profiling smoke: run the dense workload with pprof labels
# and enough spin per phase to land real CPU samples, capture a profile,
# and have tracecheck's label-aware summarizer assert that the samples
# partition by (place, pattern, kind) — at least two distinct finish
# patterns and two places must appear, i.e. attribution survives every
# activity boundary, not just the root body.
profile-smoke:
	$(GO) run ./cmd/apgas-bench -exp dense -prof -prof-cpu /tmp/apgas-profile-smoke.pb.gz -dense-burn 30000000
	$(GO) run ./cmd/tracecheck -profile -min-samples 5 -min-labeled 0.8 \
		-min-distinct pattern=2 -min-distinct place=2 /tmp/apgas-profile-smoke.pb.gz

# Record a Chrome trace of a small UTS run and sanity-check the JSON.
trace:
	$(GO) run ./cmd/uts -places 4 -depth 8 -trace /tmp/apgas-uts-trace.json
	$(GO) run ./cmd/tracecheck /tmp/apgas-uts-trace.json

# Distributed tracing end to end: a 4-place FINISH_DENSE run records
# one trace per place, merges them on the HLC-aligned timeline (every
# cross-place message becomes a flow arrow), prints the cross-place
# critical-path attribution, and tracecheck validates the merged file —
# flow begin/end pairing, no backwards arrows, monotone tracks.
dtrace:
	$(GO) run ./cmd/apgas-bench -exp dense -places 4 -trace-dist /tmp/apgas-dtrace
	$(GO) run ./cmd/tracecheck /tmp/apgas-dtrace-merged.json

# Cross-place telemetry smoke: a 4-place run under the Power 775 latency
# model whose aggregated message counts must equal the sum of the four
# per-place transport stats (the binary exits nonzero on mismatch), plus
# a flight-recorder dump validated by tracecheck. The second run repeats
# the check over the batching wire path with compression enabled: the
# sum equality — wire bytes included — must survive coalescing.
telemetry:
	$(GO) run ./cmd/apgas-bench -exp telemetry -places 4 -netsim -metrics-all \
		-flight-dump /tmp/apgas-flight.jsonl
	$(GO) run ./cmd/tracecheck /tmp/apgas-flight.jsonl
	$(GO) run ./cmd/apgas-bench -exp telemetry -places 4 -batch -compress-min 128

# Wire observatory end to end: a 4-place batched FINISH_DENSE run with
# the cost-attribution ledger enabled writes the /wire-format dump and
# asserts the sum-equality invariant in-process (Σ per-handler payload
# bytes == transport bytes sent, Σ per-link wire bytes == bytes on the
# wire — the binary exits nonzero on mismatch); tracecheck then
# revalidates the serialized dump (row ordering, compression sanity,
# the same sums). The second run repeats the in-process check on the
# telemetry workload with compression enabled.
wire:
	$(GO) run ./cmd/apgas-bench -exp dense -places 4 -batch -wire-dump /tmp/apgas-wire.json
	$(GO) run ./cmd/tracecheck -wire /tmp/apgas-wire.json
	$(GO) run ./cmd/apgas-bench -exp telemetry -places 4 -batch -compress-min 128 -wire

# Deterministic chaos: a short race-enabled seed sweep of every finish
# pattern (plus lifeline GLB) under fault injection, checking the finish
# quiescence, activity conservation, and telemetry sum invariants after
# every run, followed by the exhaustive SPMD credit-order permutations.
# The full 64-seed acceptance sweep is `go test ./internal/chaos -run
# Explore` (without -short); cmd/chaos adds replay of a failing seed.
chaos:
	$(GO) test -race -short -run 'TestExplore|TestReplay' ./internal/chaos
	$(GO) run ./cmd/apgas-bench -exp chaos -chaos-seeds 4

# Resilience acceptance: every chaos workload x 32 seeds with one
# seed-chosen mid-run place death, plain and batched, plus the
# byte-identical kill-replay check, then the same sweep from the CLI
# (which also proves the cmd/chaos -kill path).
chaos-kill:
	$(GO) test -race -run 'TestKillSweep|TestKillReplay' ./internal/chaos
	$(GO) run ./cmd/chaos -kill -seeds 32

# Litmus-style ordering fence: MP/SB/IRIW analogues at the transport
# layer (chan, TCP, batching wires) and at the runtime layer
# (at/async/AtDirect/dense ctl), plus the cross-transport death
# battery. Resilience changes that weaken delivery guarantees fail
# here first.
litmus:
	$(GO) test -race -run 'TestLitmus' ./internal/core
	$(GO) test -race -run 'TestDeath' ./internal/x10rt/transporttest

# Team collectives: the package under the race detector — the differential
# test against ModeNative over team sizes 1-9 and sub-teams, the member-death
# cases, and the 32-seed reuse sweep that holds one member back behind a
# delaying, reordering transport — then the allocation pins without the
# detector, whose bookkeeping would count.
collectives:
	$(GO) vet ./internal/collectives/...
	$(GO) test -race -count=1 ./internal/collectives/...
	$(GO) test -run 'TestSteadyStateAllocations' -count=1 -v ./internal/collectives

# 30 seconds of coverage-guided fuzzing per target: the x10rt TCP frame
# and batch-frame codecs, the binary wire codec and its type-table
# handshake, and the tracecheck flight-dump, merged-trace, kill-record
# and wire-dump validators. -fuzzminimizetime is
# bounded because the default 60s-per-input minimization budget would
# otherwise consume the entire run.
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzFrameRoundTrip -fuzztime 30s -fuzzminimizetime=10x ./internal/x10rt
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 30s -fuzzminimizetime=10x ./internal/x10rt
	$(GO) test -run '^$$' -fuzz FuzzDecodeBatch -fuzztime 30s -fuzzminimizetime=10x ./internal/x10rt
	$(GO) test -run '^$$' -fuzz FuzzBatchFrameRoundTrip -fuzztime 30s -fuzzminimizetime=10x ./internal/x10rt
	$(GO) test -run '^$$' -fuzz FuzzCodecDecode -fuzztime 30s -fuzzminimizetime=10x ./internal/x10rt
	$(GO) test -run '^$$' -fuzz FuzzTypeTableHandshake -fuzztime 30s -fuzzminimizetime=10x ./internal/x10rt
	$(GO) test -run '^$$' -fuzz FuzzCheckFlightDump -fuzztime 30s -fuzzminimizetime=10x ./cmd/tracecheck
	$(GO) test -run '^$$' -fuzz FuzzCheckMergedTrace -fuzztime 30s -fuzzminimizetime=10x ./cmd/tracecheck
	$(GO) test -run '^$$' -fuzz FuzzCheckKillDump -fuzztime 30s -fuzzminimizetime=10x ./cmd/tracecheck
	$(GO) test -run '^$$' -fuzz FuzzCheckWireDump -fuzztime 30s -fuzzminimizetime=10x ./cmd/tracecheck

# Regenerate every table and figure at laptop scale.
experiments:
	$(GO) run ./cmd/apgas-bench -exp all -scale small

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/uts
	$(GO) run ./examples/kmeans
	$(GO) run ./examples/ra
	$(GO) run ./examples/finishpatterns
	$(GO) run ./examples/tcpcluster

clean:
	$(GO) clean ./...
