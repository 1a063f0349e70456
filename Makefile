GO ?= go
FUZZTIME ?= 5s

.PHONY: fmt-check build vet test race racestream racerunner racesim determinism bench fuzz smoke smoke-health smoke-sim campaign-smoke perfbench-test calibrate calibrate-check ci

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

# Full benchmark sweep with allocation counts, repeated for statistical
# stability, persisted both as raw text (bench.out — feed two of these to
# benchstat to compare revisions) and as machine-readable BENCH.json.
# BenchmarkWazaBeeRX/TX are the pre-streaming "before" paths;
# BenchmarkRxStream/BenchmarkTxPooled are the pooled streaming "after".
BENCHCOUNT ?= 5
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count $(BENCHCOUNT) . | tee bench.out
	$(GO) run ./cmd/benchjson -in bench.out -out BENCH.json -history BENCH_history.jsonl

# Short smoke runs of the native fuzzers: the capture readers must never
# panic on corrupt pcap/ZEP input, the streaming receiver must decode
# byte-identically for any fuzzed chunking of a capture, and the packed
# sync scan must make the byte-wise FindPattern reference's decision.
fuzz:
	$(GO) test ./internal/capture -run '^$$' -fuzz FuzzPCAPRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/capture -run '^$$' -fuzz FuzzZEPDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzStreamChunks -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dsp/stream -run '^$$' -fuzz FuzzCorrelatorMatchesFindPattern -fuzztime $(FUZZTIME)
	$(GO) test ./internal/experiment/runner -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime $(FUZZTIME)

# The concurrent per-channel streaming test under the race detector:
# many RxStreams plus whole-capture calls sharing one Receiver/registry.
racestream:
	$(GO) test -race -run TestStreamConcurrentChannels -count 4 ./internal/core

# The Monte-Carlo runner hammered under the race detector: worker-pool
# churn and concurrent sweeps on one shared registry, with exact shard
# and trial accounting checked afterwards.
racerunner:
	$(GO) test -race -run 'TestRunnerHammer' -count 2 ./internal/experiment/runner

# The discrete-event simulator's concurrency surface under the race
# detector: multiple observers draining blocking capture channels while
# the event loop runs and the health registry is polled.
racesim:
	$(GO) test -race -run 'TestSimConcurrentObservers' -count 4 ./internal/zigbee/sim

# The reproducibility contracts: Monte-Carlo results bit-identical across
# worker counts {1,4,8}, sweep-order permutations, and checkpoint/resume
# boundaries; simulator capture sequences bit-identical across same-seed
# runs and event-batch sizes, and equal to the pinned mesh goldens.
determinism:
	$(GO) test -run 'DeterministicAcrossWorkers|OrderIndependent|CheckpointResume|CancellationAndResume|ShuffledPointOrder' -count 1 ./internal/experiment ./internal/experiment/runner
	$(GO) test -run 'TestSimDeterministic|TestSimSeedsDiverge|TestSimGolden|TestRunDeterministicDigest' -count 1 ./internal/zigbee/sim ./cmd/wazabeesim
	$(GO) test -run 'TestFidelity' -count 1 ./internal/experiment

# Refit the symbol/frame-tier calibration tables from the IQ ground
# truth (internal/calib; ~20 s) and embed them. calibrate-check refits
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

# End-to-end campaign smoke: two attack scenarios (plus the benign
# baseline) at 20 trials per cell through wazabeecampaign, asserting the
# ROC matrix digest matches the pinned value at two worker counts.
campaign-smoke:
	./scripts/smoke-campaign.sh

ci: fmt-check vet build test race racestream racerunner racesim determinism calibrate-check fuzz smoke smoke-health smoke-sim campaign-smoke perfbench-test
