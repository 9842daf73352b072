# Development entry points. Everything is stdlib Go; no tools beyond the
# toolchain are required.

GO ?= go

.PHONY: all check build test race test-cpu chaos deploy-smoke vet vuln fmtcheck fuzz bench benchcmp benchfull experiments examples clean

all: build vet fmtcheck test

# The pre-commit gate: everything `all` runs (including `go vet`) plus the
# benchmark regression comparison against the previous PR's recorded
# baseline, the chaos suite (fault injection + recovery), the whole suite
# under the race detector and at GOMAXPROCS 1 and 2, a best-effort
# vulnerability scan, and the multi-process deployment smoke (real OS
# processes over loopback TCP, torn down with an orphan check).
check: all benchcmp chaos race test-cpu vuln deploy-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Best-effort vulnerability scan: runs govulncheck when the tool is
# installed and the vuln DB is reachable, and reports (without failing the
# build) when it is not — CI images without network access still pass.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "vuln: govulncheck reported findings or could not reach the DB (non-fatal)"; \
	else \
		echo "vuln: govulncheck not installed, skipping"; \
	fi

# Fail if any file needs gofmt. Part of tier-1 via `make all`.
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

# The whole suite under the race detector: concurrent sweeps, the live
# server core, the lock-free routing cache, the hybrid substrate and the
# in-process side of the deployment harness all run here.
race:
	$(GO) test -race ./...

# The whole suite at GOMAXPROCS 1 and 2, so scheduling-sensitive code is
# exercised both serialized and with real parallelism.
test-cpu:
	$(GO) test -cpu 1,2 ./...

# The chaos suite: the deterministic fault-injection engine plus every
# crash/heal/resync/reconnect/leak/replay test across the stack, all under
# the race detector (DESIGN.md §11 lists the invariants these pin).
chaos:
	$(GO) test -race ./internal/fault
	$(GO) test -race -run 'Fault|FailLink|Crash|Heal|Resync|Resubscribe|Leak|Retry|Replay|E14' \
		./internal/nms ./internal/defense ./internal/ctl ./internal/live \
		./internal/netsim ./internal/experiment ./internal/auth ./internal/tcsp

# Multi-process deployment smoke: one command brings up TCSP + ISP NMS +
# attack + user-agent processes, drives the scripted control-plane
# workload, and verifies teardown leaves no orphan processes.
deploy-smoke:
	$(GO) test -run 'TestDeploySmoke|TestDeployPortCollision' -count=1 ./internal/deploy

# Short fuzz pass over the wire-format and parser fuzz targets, routing
# repair, the event core against a container/heap reference, random
# hostile service graphs on the device (§4.5 invariants, batch == single),
# and the anti-replay window against a map-based specification.
fuzz:
	$(GO) test -fuzz=FuzzUnmarshalBinary -fuzztime=10s ./internal/packet/
	$(GO) test -fuzz=FuzzParsePrefix -fuzztime=10s ./internal/packet/
	$(GO) test -fuzz=FuzzParseAddr -fuzztime=10s ./internal/packet/
	$(GO) test -fuzz=FuzzSnapshotUnmarshal -fuzztime=10s ./internal/telemetry/
	$(GO) test -fuzz=FuzzFaultSchedule -fuzztime=10s ./internal/fault/
	$(GO) test -fuzz=FuzzEnvelopeDecode -fuzztime=10s ./internal/ctl/
	$(GO) test -fuzz=FuzzFailLinkRepair -fuzztime=10s ./internal/routing/
	$(GO) test -fuzz=FuzzEventOrder -fuzztime=10s ./internal/sim/
	$(GO) test -fuzz=FuzzDeviceGraphs -fuzztime=10s ./internal/device/
	$(GO) test -fuzz=FuzzReplayWindow -fuzztime=10s ./internal/auth/

# Hot-path micro-benchmarks, recorded as the per-PR performance trajectory.
# Bump BENCH_OUT in the PR that changes performance-relevant code.
MICROBENCH = BenchmarkDeviceFastPath|BenchmarkDeviceTwoStage|BenchmarkDeviceProcessBatch|BenchmarkTrieLookup|BenchmarkCompiledTrieLookup|BenchmarkEventQueue|BenchmarkPacketForwarding|BenchmarkRelayForwarding|BenchmarkSweepE10|BenchmarkFlowEvalBatch|BenchmarkTelemetryWire|BenchmarkDetectorObserve|BenchmarkPromExposition|BenchmarkE15Hybrid|BenchmarkHybridMemory|BenchmarkCtlLoad|BenchmarkRoutingBuildTree|BenchmarkSharedTreeToParallel|BenchmarkFailLinkRepair|BenchmarkConeViewRows
BENCH_OUT ?= BENCH_PR10.json
BENCH_BASE ?= BENCH_PR9.json

# Three samples per benchmark; benchjson keeps the per-metric minimum,
# which filters scheduling noise on shared machines.
bench:
	$(GO) test -bench='$(MICROBENCH)' -benchmem -run='^$$' -count=3 -timeout 40m . | $(GO) run ./cmd/benchjson -out $(BENCH_OUT)

# Compare the current recording against the previous PR's baseline; fails
# on a >20% ns/op or allocs/op regression in any shared benchmark.
benchcmp:
	$(GO) run ./cmd/benchjson -old $(BENCH_BASE) -new $(BENCH_OUT)

# Every benchmark in the repo (figure/claim reproductions included).
benchfull:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Regenerate every paper table/figure at full size (results/full_run.txt).
experiments:
	$(GO) run ./cmd/ddosim -all | tee results/full_run.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/reflector_defense
	$(GO) run ./examples/distributed_firewall
	$(GO) run ./examples/traceback_forensics
	$(GO) run ./examples/network_debugging
	$(GO) run ./examples/forensic_replay
	$(GO) run ./examples/live_control_plane

clean:
	$(GO) clean -testcache
