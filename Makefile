GO ?= go
FUZZTIME ?= 5s

.PHONY: fmt-check build vet test race racereceive racerunner racesim determinism bench fuzz smoke smoke-health smoke-sim campaign-smoke perfbench-test perfbench-smoke calibrate calibrate-check ci

build:
	$(GO) build ./...

# Every Go file must be gofmt-clean; the offenders are listed on failure.
fmt-check:
	@test -z "$$(gofmt -l . | tee /dev/stderr)"

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The benchmark record. For each perfbench workload, BENCHCOUNT
# untraced runs and one traced run at the pinned default seed, 30 s
# each (BENCHMARK.json's run_seconds), appended to bench/<workload>.txt;
# cmd/benchjson then writes BENCH.json from those files: the median, Q1
# and Q3 of each end-to-end metric and the traced run's per-layer
# metrics. About 11 minutes on a 2-vCPU host. The go test benchmarks
# are profiling targets and feed no record.
BENCHCOUNT ?= 5
bench:
	rm -rf bench && mkdir bench
	set -e; for w in table3-iq mesh-tree campaign-matrix; do \
		for i in $$(seq $(BENCHCOUNT)); do \
			bash perfbench/run.sh --workload $$w --seconds 30 --trace 0 >> bench/$$w.txt; \
		done; \
		bash perfbench/run.sh --workload $$w --seconds 30 --trace 1 >> bench/$$w.txt; \
	done
	$(GO) run ./cmd/benchjson -out BENCH.json table3-iq=bench/table3-iq.txt mesh-tree=bench/mesh-tree.txt campaign-matrix=bench/campaign-matrix.txt

# Short smoke runs of every native fuzzer: the capture readers and the
# 802.15.4 and 6LoWPAN parsers must never panic on corrupt input; the
# calibration table, capture record, Zigbee NWK, APS, ZCL and
# remote-AT, BLE advertising, AuxPtr, ESB and packet, and
# association-response decoders must also re-encode whatever they
# accept to the same bytes; the WazaBee receiver must return a
# consistent, repeatable verdict for any truncated or corrupted copy of
# a capture, the packed sync scan must make the byte-wise FindPattern
# reference's decision, and the lazily seeded math/rand source
# (internal/randsrc) must match rand.NewSource bit for bit at any
# re-seed point, and the mesh's event scheduler must execute any script
# of posts, steps, RunUntil boundaries and drains in the order of a
# plain reference queue. Forged MAC frames sent into a joined mesh must
# leave its recycled records, radio ledger, node tallies, Stats and
# registry consistent and its run deterministic. The calibration
# table fuzzer caps minimisation at 10 runs: its seed is the 25 KB
# embedded table, which the default 60 s minimiser would spend the
# whole run shrinking at 0 execs/s. The forged-frame fuzzer caps it
# too: each of its inputs runs six short meshes, and the default
# minimiser stalls both workers at 0 execs/s.
fuzz:
	$(GO) test ./internal/capture -run '^$$' -fuzz FuzzPCAPRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/capture -run '^$$' -fuzz FuzzZEPDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/capture -run '^$$' -fuzz FuzzRecordRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ble -run '^$$' -fuzz FuzzParseAuxAdvInd -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ble -run '^$$' -fuzz FuzzDecodeAuxPtr -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ble -run '^$$' -fuzz FuzzParseESBAirBits -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ble -run '^$$' -fuzz FuzzPacketParseAirBits -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzReceiveStats -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dsp/stream -run '^$$' -fuzz FuzzCorrelatorMatchesFindPattern -fuzztime $(FUZZTIME)
	$(GO) test ./internal/experiment/runner -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ieee802154 -run '^$$' -fuzz FuzzParseMACFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ieee802154 -run '^$$' -fuzz FuzzParsePPDU -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ieee802154 -run '^$$' -fuzz FuzzOpenFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ieee802154 -run '^$$' -fuzz FuzzParseAssociationResponse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sixlowpan -run '^$$' -fuzz FuzzDecompress -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sixlowpan -run '^$$' -fuzz FuzzReassembler -fuzztime $(FUZZTIME)
	$(GO) test ./internal/randsrc -run '^$$' -fuzz FuzzSourceMatchesMathRand -fuzztime $(FUZZTIME)
	$(GO) test ./internal/zigbee/sim -run '^$$' -fuzz FuzzSchedulerOrder -fuzztime $(FUZZTIME)
	$(GO) test ./internal/zigbee/sim -run '^$$' -fuzz FuzzMeshForgedFrames -fuzztime $(FUZZTIME) -fuzzminimizetime 10x
	$(GO) test ./internal/zigbee -run '^$$' -fuzz FuzzParseNWKFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/zigbee -run '^$$' -fuzz FuzzParseAPSFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/zigbee -run '^$$' -fuzz FuzzParseZCLFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/zigbee -run '^$$' -fuzz FuzzParseATCommand -fuzztime $(FUZZTIME)
	$(GO) test ./internal/zigbee -run '^$$' -fuzz FuzzParseATResponse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/radio -run '^$$' -fuzz FuzzParseCalTable -fuzztime $(FUZZTIME) -fuzzminimizetime 10x

# The WazaBee receiver under the race detector: plain and
# origin-stamped receives from many goroutines sharing one Receiver and
# one registry, with the PSDUs and the demod latency count checked.
racereceive:
	$(GO) test -race -run TestReceiveConcurrent -count 4 ./internal/core

# The Monte-Carlo runner hammered under the race detector: worker-pool
# churn and concurrent sweeps on one shared registry, with exact shard
# and trial accounting checked afterwards.
racerunner:
	$(GO) test -race -run 'TestRunnerHammer' -count 2 ./internal/experiment/runner

# The discrete-event simulator's concurrency surface under the race
# detector: the DebugHandler snapshot and the registry polled from one
# goroutine while another advances the event loop in batches.
racesim:
	$(GO) test -race -run 'TestSimConcurrentSnapshots' -count 4 ./internal/zigbee/sim

# The reproducibility contracts: Monte-Carlo results bit-identical across
# worker counts {1,4,8}, sweep-order permutations, and checkpoint/resume
# boundaries; the Table III and PER-sweep tallies equal to the pinned
# experiment golden; simulator capture sequences bit-identical across
# same-seed runs and event-batch sizes, and equal to the pinned mesh
# goldens; the event scheduler's order and marks equal to a plain
# reference queue's; the calibration fit byte-identical at any worker
# count; the embedded calibration table loading to its pinned floats;
# the frame tier's memoised success probabilities bit-identical to a
# fresh channel's, since they feed every mesh digest; every seeded stream
# equal to math/rand's rand.NewSource stream; and every campaign
# scenario's Outcome equal to its pinned golden, byte-identical across
# same-seed runs, with the ROC matrix identical at any worker count.
# Last, the bit-exact IQ contract (DESIGN.md §9): every sample of both
# modulators and of the medium, every receiver soft output and the
# medium's draw count equal to their pinned SHA-256 digests, and the
# packed, lazily integrated sync scan making the decision, and yielding
# the symbol sums, of the byte-wise IntegrateSymbols → FindPattern →
# SoftScore reference.
determinism:
	$(GO) test -run 'DeterministicAcrossWorkers|OrderIndependent|CheckpointResume|CancellationAndResume|ShuffledPointOrder' -count 1 ./internal/experiment ./internal/experiment/runner
	$(GO) test -run 'TestSimDeterministic|TestSimSeedsDiverge|TestSimGolden|TestRunDeterministicDigest|TestSchedulerMatchesReference|TestQueueEntryHoldsNoPointers' -count 1 ./internal/zigbee/sim ./cmd/wazabeesim
	$(GO) test -run 'TestFidelity|TestExperimentGolden' -count 1 ./internal/experiment
	$(GO) test -run 'TestFitIdenticalAcrossWorkerCounts' -count 1 ./internal/calib
	$(GO) test -run 'TestDefaultCalTableFloatsGolden|TestFrameTierMemoIdentity' -count 1 ./internal/radio
	$(GO) test -run 'TestSourceMatchesMathRand' -count 1 ./internal/randsrc
	$(GO) test -run 'TestScenarioGoldenOutcomes|TestScenarioSameSeedByteIdentity|TestMatrixWorkerCountIndependence' -count 1 ./internal/campaign
	$(GO) test -run 'TestIQModulatorGolden|TestIQMediumGolden|TestIQReceiverGolden' -count 1 ./internal/radio
	$(GO) test -run 'TestCorrelatorMatchesFindPattern' -count 1 ./internal/dsp/stream

# Refit the symbol/frame-tier calibration tables from the IQ ground
# truth (internal/calib; ~10 s on 2 cores, the grid cells spread over
# GOMAXPROCS runner workers) and embed them. calibrate-check refits
# into memory and fails when the checked-in table has drifted from what
# the current DSP chain produces — the guard that keeps the cheap tiers
# honest as the IQ path evolves.
calibrate:
	$(GO) run ./cmd/calibrate
calibrate-check:
	$(GO) run ./cmd/calibrate -check

# One-shot link diagnostics over the simulated medium: exercises the
# whole TX → medium → RX → LinkStats path from the CLI.
smoke:
	$(GO) run ./cmd/wazabee link -frames 5

# End-to-end health smoke: boot wazabeed, wait for /readyz to go 200,
# assert the flight recorder is non-empty, then check the daemon shuts
# down cleanly on SIGTERM.
SMOKE_HEALTH_ADDR ?= 127.0.0.1:19753
smoke-health:
	./scripts/smoke-health.sh "$(SMOKE_HEALTH_ADDR)"

# End-to-end observatory smoke: a small simulated tree with -trace and
# -energy, validating the Chrome trace parses, energy totals are nonzero
# and same-seed traces stay byte-identical.
smoke-sim:
	./scripts/smoke-sim.sh

# The benchmark's own tests. perfbench/ is a separate Go module, so
# `go test ./...` at the root never reaches TestBenchmarkJSONMatchesCatalogue
# or the traced-vs-untraced tally checks; -short skips the run of every
# workload (~2 s).
perfbench-test:
	cd perfbench && $(GO) test -short ./...

# One short untraced round of every benchmark workload, built from this
# checkout the way the benchmark record builds it. perfbench exits
# non-zero when a workload fails to build or run, or when a round's
# output misses its pin; perfbench-test's -short skips every workload.
# About 6 s with a warm .bench_build, 30 s cold.
perfbench-smoke:
	set -e; for w in table3-iq mesh-tree campaign-matrix; do \
		bash perfbench/run.sh --workload $$w --seconds 1 --trace 0; \
	done

# End-to-end campaign smoke: two attack scenarios (plus the benign
# baseline) at 20 trials per cell through wazabeecampaign, asserting the
# ROC matrix digest matches the pinned value at two worker counts.
campaign-smoke:
	./scripts/smoke-campaign.sh

ci: fmt-check vet build test race racereceive racerunner racesim determinism calibrate-check fuzz smoke smoke-health smoke-sim campaign-smoke perfbench-test perfbench-smoke
