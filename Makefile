GO ?= go

.PHONY: all build vet test test-time loc test-race chaos goldens chaos-race fuzz check examples bench-smoke bench-fixed bench-fixed-smoke bench-compare profile

all: build

build:
	$(GO) build ./...

# bench/ is a module of its own, so ./... does not reach it; it compiles
# against the rnic, fabric, pagechan and runc option types. gofmt -l
# walks both modules and names every file it would rewrite.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet .
	@files=$$(gofmt -l .); test -z "$$files" || { echo "gofmt -l:" $$files >&2; exit 1; }

test: build
	$(GO) test ./...

# Tier-1 cost by package and in total: what `make test` takes and where
# it goes (EXPERIMENTS.md records it per PR). -count=1 keeps the test
# cache from reporting a package as free; packages run in parallel, so
# the wall clock is below the sum.
test-time: build
	@start=$$(date +%s); \
	$(GO) test -count=1 ./... | awk ' \
		$$1 == "ok" { sub(/s$$/, "", $$3); sum += $$3; printf "%8.1f s  %s\n", $$3, $$2 } \
		$$1 == "FAIL" || $$1 == "---" { print; bad = 1 } \
		END { printf "%8.1f s  sum of packages\n", sum; exit bad }'; status=$$?; \
	printf '%8d s  wall clock\n' $$(( $$(date +%s) - start )); exit $$status

# Lines of Go per package, non-test and test, and in total: the count a
# simplicity PR quotes before and after (CHANGES.md), so that every PR
# counts the same way. A directory's own files only; blank lines and
# comments count.
loc:
	@for d in $$($(GO) list -f '{{.Dir}}' ./...); do \
		printf '%7d %7d  %s\n' \
			$$(ls $$d/*.go | grep -v _test.go | xargs cat /dev/null | wc -l) \
			$$(ls $$d/*.go | grep _test.go | xargs cat /dev/null | wc -l) .$${d#$$PWD}; \
	done | awk 'BEGIN { printf "%7s %7s  %s\n", "code", "test", "package" } \
		{ code += $$1; test += $$2; print } \
		END { printf "%7d %7d  total\n", code, test }'

test-race:
	$(GO) test -race ./...

# Deterministic chaos sweep: the whole scenario catalogue (`migrchaos
# -list`: single, abort, plug, plug-abort, pipelined, pipelined-abort,
# tenant, concurrent, drain) × 32 seeds with every checker, then the
# golden gate — all 126 golden runs, sequentially and on four workers,
# must reproduce the checked-in behaviour and telemetry hashes byte for
# byte. Replay a failure with
#   go run ./cmd/migrchaos -scenario <tier/name> -seed <n> -v
chaos:
	$(GO) run ./cmd/migrchaos -seeds 32 -parallel 4
	$(GO) test ./internal/chaos -run 'TestGoldenHashes|TestParallelGoldenEquivalence'

# Re-baseline the chaos goldens by the DESIGN.md §14 protocol.
#   make goldens MODE=telemetry   counters moved, no event did: rewrites
#                                 that column, refuses if any behaviour
#                                 hash differs
#   make goldens MODE=behaviour   an event moved: first the whole sweep
#                                 (make chaos's 42 scenarios × 32 seeds,
#                                 every checker), refusing on any
#                                 failure; only then both columns
# Either way it prints the keys that moved, by tier and column: that
# table, and why each row moved, goes into CHANGES.md.
goldens:
	@case '$(MODE)' in telemetry|behaviour) ;; *) echo 'usage: make goldens MODE=telemetry|behaviour' >&2; exit 2;; esac
	@if [ '$(MODE)' = behaviour ]; then $(GO) run ./cmd/migrchaos -seeds 32 -parallel 4 || { \
		echo 'goldens: a checker failed; fix the run before moving the goldens' >&2; exit 1; }; fi
	UPDATE_CHAOS_GOLDENS=$(MODE) $(GO) test ./internal/chaos -count=1 -run 'TestGoldenHashes$$' -v
	$(GO) test ./internal/chaos -count=1 -run 'TestGoldenHashes|TestParallelGoldenEquivalence'

# The fail-and-recover tiers, the committed plug-forward tier, the
# streamed page channel and both orchestrated tiers under the race
# detector: compensation paths interleave with in-flight traffic, the
# plug tier's deferred switch, resume-partners, flush, tunneled
# stragglers and release at reclaim all go through the daemons'
# migration records, the multi-stream sender/applier procs interleave
# with the compensation drain, the orchestrator's retry/backoff procs
# with the per-host executors, and the concurrency matrix puts one
# host's source, destination and partner roles in flight at once. 8
# seeds each on four workers, so the RunIndexed pool is under the
# detector as well; the plug-vs-go-back-N contrast runs under -race too.
# CI's race job runs this target, so the scenario list lives here only.
chaos-race:
	$(GO) run -race ./cmd/migrchaos -scenario 'abort/*,plug/*,plug-abort/*,pipelined*/*,concurrent/*,drain/*' -seeds 8 -parallel 4
	$(GO) test -race ./internal/chaos -run TestPlugVsGoBackN

# Fuzz smoke over the wire-format decoder, the transport fault-script
# harness, the control-message codec, the OOB control-frame decoder, the
# address space's copy-on-write rule for borrowed frames, checked
# against its private-pages reference, the scheduler's lanes, checked
# against one timer per entry, and the tenant service's admission
# checks, checked against their fixed order and the arena's bytes (go
# test fuzzes one target per invocation). FuzzDecode walks reflect,
# whose first-use paths make coverage flicker, and FuzzAddressSpace
# finds new inputs for most of its ten seconds; the engine's default
# 60 s budget for minimising each "interesting" input would eat them,
# hence the 1 s cap. The decoder line first runs its seed corpus (the
# header-only zero packet among them) and the zero-packet codec test.
fuzz:
	$(GO) test ./internal/rnic -run='FuzzDecodePacket|TestZeroPacketCodec' -fuzz=FuzzDecodePacket -fuzztime=10s
	$(GO) test ./internal/rnic -run=Fuzz -fuzz=FuzzRCFaultScript -fuzztime=10s
	$(GO) test ./internal/codec -run=Fuzz -fuzz=FuzzDecode -fuzztime=10s -fuzzminimizetime=1s
	$(GO) test ./internal/oob -run=Fuzz -fuzz=FuzzDecodeWire -fuzztime=10s -fuzzminimizetime=1s
	$(GO) test ./internal/mem -run=Fuzz -fuzz=FuzzAddressSpace -fuzztime=10s -fuzzminimizetime=1s
	$(GO) test ./internal/sim -run=Fuzz -fuzz=FuzzLaneOrder -fuzztime=10s -fuzzminimizetime=1s
	$(GO) test ./internal/tenant -run=Fuzz -fuzz=FuzzAdmit -fuzztime=10s -fuzzminimizetime=1s

# The programs under examples/, each run to completion. Every one panics
# when a check it makes fails, so a non-zero exit is a broken example.
examples:
	@for d in examples/*/; do echo "go run ./$${d%/}"; $(GO) run ./$${d%/} || exit 1; done

# One-iteration smoke over the per-package microbenchmarks: catches
# bench rot (compile errors, setup panics) without timing flakiness.
# tenant's BenchmarkOpenSessions runs the per-session allocation path,
# oob's BenchmarkCallRoundTrip and codec's BenchmarkMessageRoundTrip the
# per-control-message one, core's BenchmarkCQWaitWake the guest
# library's completion wait.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/sim ./internal/fabric ./internal/rnic ./internal/pagechan ./internal/criu ./internal/tenant ./internal/oob ./internal/codec ./internal/core

# The repository's one fixed benchmark (BENCHMARK.json, bench/README.md):
# eight migration workloads, one process each. bench-fixed appends one
# record per workload to OUT (run it several times per commit before
# comparing host times: one run has no spread); add TRACE=1 for the
# per-layer probes. bench-compare judges B against A with the bounds the
# benchmark fixed:
#   make bench-fixed OUT=/tmp/a.json          # at the parent commit
#   make bench-fixed OUT=/tmp/b.json          # at the change
#   make bench-compare A=/tmp/a.json B=/tmp/b.json
OUT ?= bench-fixed.json
SEED ?= 1
TRACE ?= 0
bench-fixed:
	bash bench/run.sh --workload all --seed $(SEED) --trace $(TRACE) --out $(OUT)

bench-compare:
	bash bench/run.sh --compare $(A) $(B)

# Where one workload's host time goes: ten seconds of it under the CPU
# profiler, then the 25 hottest functions. Do this before choosing what
# to optimise — `make profile WORKLOAD=tenancy-2000` is how PR 21 found
# three quarters of that workload inside one gateway loop.
WORKLOAD ?= bw-send16
profile:
	bash bench/run.sh --workload $(WORKLOAD) --seed 1 --trace 0 --cpuprofile $(WORKLOAD).prof
	$(GO) tool pprof -top -nodecount=25 .bench_build/bench $(WORKLOAD).prof

# The benchmark's own smoke test (a module of its own, so `go test
# ./...` at the root does not reach it): every workload for one rep,
# declared metrics against BENCHMARK.json.
bench-fixed-smoke:
	cd bench && $(GO) test .

check: vet test examples bench-smoke bench-fixed-smoke chaos chaos-race fuzz test-race
