GO ?= go

.PHONY: build fmt test race vet fuzz ckptfuzz faultgate recovergate obsgate benchgate tracegate stitchgate cascadegate fleetbench fleetgate chaossoak chaosgate check bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails when gofmt would rewrite any Go file, listing the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# fuzz smokes the wire-protocol decoder for 10s beyond its seeded corpus.
fuzz:
	$(GO) test -fuzz=FuzzUnmarshal -fuzztime=10s -run='^$$' ./internal/airproto

# ckptfuzz smokes the checkpoint decoder for 10s: any input either fails
# with a typed error or decodes to a value that re-encodes byte-identically.
ckptfuzz:
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s -run='^$$' ./internal/checkpoint

# faultgate runs a tiny abl-faults sweep; the runner errors out (non-zero
# exit) if the zero-fault-rate point is not bit-identical to the unfaulted
# baseline.
faultgate:
	$(GO) run ./cmd/metaai-bench -exp abl-faults -evalcap 40

# recovergate is the crash-recovery acceptance gate, under -race: journal a
# served epoch, kill without ceremony, corrupt the newest entry, and recover
# the previous epoch with bit-identical accumulators and zero re-solves.
recovergate:
	$(GO) test -race -count=1 -run 'TestKillAndRecoverBitIdentity|TestRecoverSkipsCorruptEpochs' ./cmd/metaai-serve

# obsgate asserts observability determinism: two seeded serve-path runs
# must produce bit-identical metric fingerprints.
obsgate:
	$(GO) test -run 'TestServeBenchDeterministicFingerprint' ./cmd/metaai-bench

# benchgate wires the p99 regression comparator into CI: unit tests prove it
# trips on real regressions and stays quiet under the relative threshold or
# the absolute µs floor, then one fresh servebench snapshot (sequential,
# batched, and cascade tiers) is self-compared through the CLI path (a
# self-compare must always exit 0; comparing two live runs would flake on
# loaded CI machines, which is exactly the noise the floor exists to reject
# when a human runs -compare old vs new). The zero-alloc steady-state tests
# are the alloc-regression half of the gate: any allocation creeping into
# the batched serving hot path fails them deterministically, without
# depending on wall-clock benchmark numbers.
benchgate:
	$(GO) test -run 'TestCompare' ./cmd/metaai-bench
	$(GO) test -count=1 -run 'TestAccumulateSteadyStateZeroAlloc' ./internal/ota
	$(GO) test -count=1 -run 'TestWorkerBatchSteadyStateZeroAlloc' ./cmd/metaai-serve
	$(GO) run ./cmd/metaai-bench -servebench 100 -obs-out .benchgate.json
	$(GO) run ./cmd/metaai-bench -compare .benchgate.json .benchgate.json
	rm -f .benchgate.json

# tracegate asserts trace determinism: a fixed-seed traced pipeline run
# (train -> schedule solve -> deploy -> 4 inferences, sample=1) must produce
# byte-identical NORMALIZED trace exports across two process runs — trace
# and span IDs derive from seeds and ordinals, never from wall clocks or rng
# draws, and normalization strips the timestamps.
tracegate:
	$(GO) run ./cmd/metaai-bench -tracedump .tracegate.a.json
	$(GO) run ./cmd/metaai-bench -tracedump .tracegate.b.json
	cmp .tracegate.a.json .tracegate.b.json
	rm -f .tracegate.a.json .tracegate.b.json

# stitchgate is tracegate's fleet-wide counterpart, under -race: a client
# request hedged across two replicas through a real router must stitch into
# ONE normalized Chrome-JSON document at the router (root + both hops, the
# loser cancelled, each replica's serve.request parented under its hop),
# byte-identical across fetches — and the router's KindStats/KindTrace
# control plane must keep answering through packet chaos while the data
# plane is saturated past the inflight cap.
stitchgate:
	$(GO) test -race -count=1 -run 'TestFleetStitchedTraceEndToEnd|TestRouterControlPlaneSurvivesChaosAndSaturation' ./cmd/metaai-serve

# cascadegate is the stacked-cascade compatibility gate: a K=1 deployment
# must stay provably bit-identical to the classic single-surface path
# (solver and deployment level), single-surface checkpoints must keep
# sealing at format version 1 byte-compatible with every pre-cascade build
# while cascade state round-trips bit-identically at version 2, and a
# journaled cascade epoch must recover bit-identically across a kill.
cascadegate:
	$(GO) test -count=1 -run 'TestCascadeK1BitIdentity' ./internal/mts ./internal/ota
	$(GO) test -count=1 -run 'TestCascadeStateSealsVersion2|TestCascadeDeploymentRoundtripBitIdentity|TestJournalRecoverSkipsCorruptCascade' ./internal/checkpoint
	$(GO) test -count=1 -run 'TestKillAndRecoverCascadeBitIdentity' ./cmd/metaai-serve

# fleetbench is the fleet acceptance bench, under -race: three replicas
# behind the router take sustained client load through a fleet-wide epoch
# replication, a canary-rejected sabotage with fleet-wide rollback, a
# replica kill mid-publish with hedged failover, and a cold replacement
# caught up by anti-entropy — asserting zero request loss and convergence
# on the latest valid epoch throughout.
fleetbench:
	$(GO) test -race -count=1 -run 'TestFleetBench' -v ./cmd/metaai-serve

# fleetgate is the CI smoke of the same episode (-short trims the load) —
# every failure mode still fires, in about two seconds.
fleetgate:
	$(GO) test -race -count=1 -run 'TestFleetBench' -short ./cmd/metaai-serve

# chaossoak is the full bad-network acceptance soak, under -race: three
# chaos-wrapped replicas and a chaos-wrapped router take sustained
# deadline-stamped client load through 10% drop/dup/delay/corrupt on every
# link, an epoch replication pushed through the fault load, a transient
# one-way partition, and a coordinator kill/restart that rejoins from its
# journaled pubSeq + membership — asserting zero accepted-request loss,
# fleet convergence on the latest valid epoch, and a ≥90% goodput floor.
chaossoak:
	$(GO) test -race -count=1 -run 'TestChaosGate' -v ./cmd/metaai-serve

# chaosgate is the CI smoke of the same episode (-short trims the load),
# plus the netchaos zero-rate identity gate: a chaos layer with all rates
# zero must hand every packet through byte-identical, consuming no
# randomness — mirroring the faults-layer zero-rate gate.
chaosgate:
	$(GO) test -count=1 -run 'TestZeroRateBitIdentity|TestZeroRateLanePassthrough' ./internal/netchaos
	$(GO) test -race -count=1 -run 'TestChaosGate' -short ./cmd/metaai-serve

# check is the full gate: gofmt, vet, plain tests, the race detector over the
# concurrent evaluator, sweeps, and serve paths, the airproto and checkpoint
# fuzz smokes, the abl-faults zero-rate identity gate, the crash-recovery
# gate, the cascade K=1 compatibility gate, the fleet failover/replication
# smoke, the bad-network chaos soak smoke, and the obs/bench/trace/stitch
# determinism gates.
check: fmt vet test race fuzz ckptfuzz faultgate recovergate cascadegate fleetgate chaosgate obsgate benchgate tracegate stitchgate

# bench runs the Go micro-benchmarks, then the serve-path observability
# benchmark, which snapshots its metrics into BENCH_serve.json. Emit-only:
# no CI threshold reads the file — it exists so regressions show up in
# diffs. 2000 inferences keep the µs-per-inference tiers out of the
# warmup-noise regime (at 200, total wall time is ~1 ms and page faults
# dominate).
bench:
	$(GO) test -bench=. -benchtime=1x -benchmem ./...
	$(GO) run ./cmd/metaai-bench -servebench 2000 -obs-out BENCH_serve.json
