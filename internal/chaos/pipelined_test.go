package chaos

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"migrrdma/internal/metrics"
)

// pipeSweepSeeds keeps the pipelined sweep inside the suite budget:
// each run carries the memhog writer plus per-chunk events, so it is a
// little heavier than a monolithic run.
const pipeSweepSeeds = 8

// TestPipelinedChaosSweep drives every pipelined fault schedule across
// seeds: the streamed migration must complete with every transport
// invariant intact, the chunk protocol exactly-once, and the elision
// machinery demonstrably exercised.
func TestPipelinedChaosSweep(t *testing.T) {
	for _, sched := range PipelinedSchedules() {
		sched := sched
		t.Run(sched.Name, func(t *testing.T) {
			var armed int64
			for seed := int64(1); seed <= pipeSweepSeeds; seed++ {
				rep := RunPipelined(seed, sched)
				for _, v := range rep.Violations {
					t.Errorf("seed %d: %s", seed, v)
				}
				if t.Failed() {
					t.Fatalf("seed %d failed; replay with: go run ./cmd/migrchaos -transfer pipelined -schedule %s -seed %d -v",
						seed, sched.Name, seed)
				}
				if rep.Completed == 0 {
					t.Fatalf("seed %d: no traffic completed (vacuous run)", seed)
				}
				if rep.FinalStage != "done" {
					t.Fatalf("seed %d: migration ended in stage %q", seed, rep.FinalStage)
				}
				armed += int64(rep.FaultsArmed)
			}
			if sched.Name != "pipe-clean" && armed == 0 {
				t.Fatalf("schedule armed no faults across %d seeds", pipeSweepSeeds)
			}
		})
	}
}

// TestPipelinedSameSeedSameHash pins the channel's determinism: chunk
// sequencing across K concurrent streams enters the trace hash via the
// page tap, so any scheduling drift in the pipeline breaks replay
// equality here.
func TestPipelinedSameSeedSameHash(t *testing.T) {
	for _, name := range []string{"pipe-clean", "pipe-loss-burst"} {
		sched, ok := PipelinedScheduleByName(name)
		if !ok {
			t.Fatalf("schedule %s missing", name)
		}
		for _, seed := range []int64{3, 17} {
			a := RunPipelined(seed, sched)
			b := RunPipelined(seed, sched)
			if a.TraceHash != b.TraceHash {
				t.Fatalf("%s seed %d: hash differs across runs:\n  %s\n  %s",
					name, seed, a.TraceHash, b.TraceHash)
			}
			if a.Events == 0 {
				t.Fatalf("%s seed %d: empty trace", name, seed)
			}
		}
	}
}

// TestPipelinedAbortRecovery injects a mid-chunk fault at each streamed
// round and asserts the compensation chain leaves nothing behind: no
// staged chunks, no staged restore, partners un-suspended, and the
// service recovered on the source.
func TestPipelinedAbortRecovery(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		for _, pt := range PipelinedAbortPoints() {
			pt := pt
			t.Run(fmt.Sprintf("%s#%d/seed%d", pt.Round, pt.Chunk, seed), func(t *testing.T) {
				rep := RunPipelinedAbort(seed, pt.Round, pt.Chunk)
				for _, v := range rep.Violations {
					t.Errorf("violation: %s", v)
				}
				if rep.Completed == 0 {
					t.Error("no traffic completed")
				}
			})
		}
	}
}

// TestPipelinedAbortDeterminism re-runs one mid-chunk abort and
// requires byte-identical trace hashes.
func TestPipelinedAbortDeterminism(t *testing.T) {
	a := RunPipelinedAbort(3, "final", 2)
	b := RunPipelinedAbort(3, "final", 2)
	if a.TraceHash != b.TraceHash {
		t.Fatalf("trace hash not deterministic:\n  %s\n  %s", a.TraceHash, b.TraceHash)
	}
	if a.Events != b.Events {
		t.Fatalf("event counts differ: %d vs %d", a.Events, b.Events)
	}
}

// TestChunkCheckerFlagsSyntheticViolations feeds checkChunks hand-built
// ledgers so every chunk-protocol invariant's failure path is known to
// fire.
func TestChunkCheckerFlagsSyntheticViolations(t *testing.T) {
	emptySnap := metrics.New(func() time.Duration { return 0 }).Snapshot()
	okReg := metrics.New(func() time.Duration { return 0 })
	okReg.Counter("pagechan", "pages_elided", metrics.L("mig", "m0")).Add(4)
	okSnap := okReg.Snapshot()
	find := func(vs []string, sub string) bool {
		for _, v := range vs {
			if strings.Contains(v, sub) {
				return true
			}
		}
		return false
	}
	ledger := func(evs ...event) *recorder { return &recorder{events: evs} }
	pchan := func(note string, seq uint64) event {
		return event{kind: "pchan", note: note, wrid: seq}
	}

	// Clean exactly-once round passes.
	rec := ledger(pchan("send", 1), pchan("recv", 1), pchan("apply", 1))
	if vs := checkChunks(rec, okSnap, nil, false); len(vs) != 0 {
		t.Fatalf("clean ledger flagged: %v", vs)
	}

	// A run that never elided a page is vacuous: the memhog guarantees
	// constant-content rewrites, so zero elision means the table broke.
	if vs := checkChunks(rec, emptySnap, nil, false); !find(vs, "no pages elided") {
		t.Fatalf("zero-elision vacuity not flagged: %v", vs)
	}

	// Duplicate receive.
	rec = ledger(pchan("send", 1), pchan("recv", 1), pchan("recv", 1), pchan("apply", 1))
	if vs := checkChunks(rec, emptySnap, nil, false); !find(vs, "received 2 times") {
		t.Fatalf("duplicate receive not flagged: %v", vs)
	}

	// Receive before send.
	rec = ledger(pchan("recv", 5))
	if vs := checkChunks(rec, emptySnap, nil, false); !find(vs, "received before being sent") {
		t.Fatalf("recv-before-send not flagged: %v", vs)
	}

	// Apply before receive.
	rec = ledger(pchan("send", 2), pchan("apply", 2))
	if vs := checkChunks(rec, emptySnap, nil, false); !find(vs, "applied before being received") {
		t.Fatalf("apply-before-recv not flagged: %v", vs)
	}

	// Sent but lost (never received).
	rec = ledger(pchan("send", 1), pchan("recv", 1), pchan("apply", 1), pchan("send", 2))
	if vs := checkChunks(rec, emptySnap, nil, false); !find(vs, "sent but received 0 times") {
		t.Fatalf("lost chunk not flagged: %v", vs)
	}

	// Vacuous run: no chunks at all.
	rec = ledger()
	if vs := checkChunks(rec, emptySnap, nil, false); !find(vs, "streamed no chunks") {
		t.Fatalf("vacuous run not flagged: %v", vs)
	}

	// Residual staged chunks via the gauge.
	reg := metrics.New(func() time.Duration { return 0 })
	reg.Gauge("pagechan", "staged_chunks", metrics.L("mig", "m0")).Set(3)
	rec = ledger(pchan("send", 1), pchan("recv", 1), pchan("apply", 1))
	if vs := checkChunks(rec, reg.Snapshot(), nil, false); !find(vs, "still staged") {
		t.Fatalf("staged residue not flagged: %v", vs)
	}

	// Aborted run without a channel abort event.
	rec = ledger(pchan("send", 1), pchan("recv", 1))
	if vs := checkChunks(rec, emptySnap, nil, true); !find(vs, "no channel abort event") {
		t.Fatalf("missing abort event not flagged: %v", vs)
	}

	// Aborted run with the abort event passes even with unreceived sends.
	rec = ledger(pchan("send", 1), pchan("abort", 1))
	if vs := checkChunks(rec, emptySnap, nil, true); len(vs) != 0 {
		t.Fatalf("aborted ledger wrongly flagged: %v", vs)
	}
}
