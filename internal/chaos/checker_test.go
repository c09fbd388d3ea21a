package chaos

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"migrrdma/internal/experiments"
	"migrrdma/internal/metrics"
	"migrrdma/internal/pagechan"
	"migrrdma/internal/perftest"
	"migrrdma/internal/runc"
)

func find(vs []string, sub string) bool {
	for _, v := range vs {
		if strings.Contains(v, sub) {
			return true
		}
	}
	return false
}

// snapshotOf renders a registry holding the given counters
// ("component/name" → value).
func snapshotOf(counters map[string]int64) *metrics.Snapshot {
	reg := metrics.New(func() time.Duration { return 0 })
	for key, val := range counters {
		comp, name, _ := strings.Cut(key, "/")
		reg.Counter(comp, name, metrics.L("mig", "m0")).Add(val)
	}
	return reg.Snapshot()
}

// healthy builds the evidence of a passing single-migration run: ten
// operations on both sides, one successful client migration src → dst,
// an empty ledger and a clean census.
func healthy() *Evidence {
	pair := &experiments.Pair{Client: &perftest.Client{}, Server: &perftest.Server{}}
	pair.Client.Stats.Completed, pair.Server.Stats.Completed = 10, 10
	mv := &mover{pair: pair, spec: Pair{Client: "src", Server: "partner", Dst: "dst"}, atSwitch: 1}
	return &Evidence{
		Scenario: Scenario{Name: "synthetic"},
		movers:   []*mover{mv},
		Report: &Report{
			Metrics: snapshotOf(nil),
			Migrations: []Outcome{{ID: "m0", Src: "src", Dst: "dst", Host: "dst", FinalStage: "done",
				Report: &runc.Report{MigrationID: "m0"}}},
		},
		census: []hostResidue{{host: "src", plugDepth: -1}, {host: "dst", plugDepth: -1}},
	}
}

// TestCheckerFlagsSyntheticViolations feeds the checkers hand-built
// evidence so every invariant's failure path is known to fire.
func TestCheckerFlagsSyntheticViolations(t *testing.T) {
	all := func(ev *Evidence) []string {
		return append(checkMigrations(ev), checkLedger(ev)...)
	}
	if vs := all(healthy()); len(vs) != 0 {
		t.Fatalf("healthy evidence flagged: %v", vs)
	}

	ev := healthy()
	ev.ledger = []metrics.Event{
		{Kind: "ack", Node: "src", QPN: 7, PSN: 5},
		{Kind: "ack", Node: "src", QPN: 7, PSN: 4}, // regression
	}
	if vs := all(ev); !find(vs, "acked PSN regressed") {
		t.Fatalf("PSN regression not flagged: %v", vs)
	}

	ev = healthy()
	ev.ledger = []metrics.Event{
		{Kind: "exp", Node: "partner", QPN: 9, PSN: 12},
		{Kind: "exp", Node: "partner", QPN: 9, PSN: 12}, // stall = regression
	}
	if vs := all(ev); !find(vs, "expPSN regressed") {
		t.Fatalf("expPSN regression not flagged: %v", vs)
	}

	ev = healthy()
	ev.ledger = []metrics.Event{
		{Kind: "cqe", Node: "src", QPN: 3, Seq: 8},
		{Kind: "cqe", Node: "src", QPN: 3, Seq: 8}, // duplicate completion
	}
	if vs := all(ev); !find(vs, "send completion out of order") {
		t.Fatalf("duplicate completion not flagged: %v", vs)
	}

	ev = healthy()
	ev.ledger = []metrics.Event{
		{Kind: "dereg", Node: "src", RKey: 0x2000},
		{Kind: "rkey", Node: "src", RKey: 0x2000, OK: true}, // post-Dereg admit
	}
	if vs := all(ev); !find(vs, "post-Dereg rkey") {
		t.Fatalf("post-Dereg admission not flagged: %v", vs)
	}
	// The reverse order — admitted while still registered — is legal.
	ev = healthy()
	ev.ledger = []metrics.Event{
		{Kind: "rkey", Node: "src", RKey: 0x2000, OK: true},
		{Kind: "dereg", Node: "src", RKey: 0x2000},
	}
	if vs := all(ev); find(vs, "post-Dereg rkey") {
		t.Fatalf("pre-Dereg access wrongly flagged: %v", vs)
	}

	ev = healthy()
	ev.movers[0].pair.Server.Stats.Completed = 9
	if vs := all(ev); !find(vs, "completion mismatch") {
		t.Fatalf("count mismatch not flagged: %v", vs)
	}

	ev = healthy()
	ev.movers[0].atSwitch = 10
	if vs := all(ev); !find(vs, "no progress after migration") {
		t.Fatalf("stalled post-migration traffic not flagged: %v", vs)
	}

	ev = healthy()
	ev.Report.Migrations[0].Err = errors.New("boom")
	ev.Report.Migrations[0].FinalStage = "aborted"
	if vs := all(ev); !find(vs, "migration failed: boom") || !find(vs, `ended in stage "aborted"`) {
		t.Fatalf("failed migration not flagged: %v", vs)
	}

	ev = healthy()
	ev.Report.Migrations = nil
	if vs := all(ev); !find(vs, "no migration ran") {
		t.Fatalf("run without a migration not flagged: %v", vs)
	}

	// An expected abort inverts the verdict: success is the violation,
	// and the error must name the injected phase.
	ev = healthy()
	ev.Scenario.Abort = Abort{Phase: "freeze"}
	if vs := all(ev); !find(vs, "succeeded despite fault injected at freeze") ||
		!find(vs, "final stage") || !find(vs, "container on dst, want src") || !find(vs, "migrations_aborted = 0") {
		t.Fatalf("missing abort not flagged: %v", vs)
	}
	ev.Report.Migrations[0].Err = errors.New("phase finalize: chaos: injected fault")
	if vs := all(ev); !find(vs, `does not name "phase freeze"`) {
		t.Fatalf("wrong abort phase not flagged: %v", vs)
	}

	// An orchestrated migration's report carries the executor job its
	// last attempt bound, not the migration's own ID.
	ev = healthy()
	ev.Report.Migrations[0].ID = "d1/src/client"
	ev.Report.Migrations[0].Report.MigrationID = "src/m1"
	ev.bound = map[string]string{"d1/src/client": "src/m2"}
	if vs := all(ev); !find(vs, "report not tagged with its migration ID src/m2") {
		t.Fatalf("report of an earlier attempt not flagged: %v", vs)
	}
	ev.Report.Migrations[0].Report.MigrationID = "src/m2"
	if vs := all(ev); len(vs) != 0 {
		t.Fatalf("report of the last attempt flagged: %v", vs)
	}

	// Retry: the first attempt aborts, the second must have run.
	ev = healthy()
	ev.Scenario.Abort = Abort{Phase: "suspend-wbs", Retry: true}
	ev.Report.Migrations[0].Attempts = 1
	if vs := all(ev); !find(vs, "1 attempts ran") {
		t.Fatalf("missing retry not flagged: %v", vs)
	}
}

// TestVacuityGuardsFire: declared faults that never armed and MustMove
// counters that stayed zero are violations.
func TestVacuityGuardsFire(t *testing.T) {
	ev := healthy()
	ev.Scenario.Faults = []Fault{{Kind: FaultLoss, Node: "src"}}
	ev.Scenario.MustMove = []string{"fabric/dropped_frames", "fabric/plug_buffered_packets"}
	ev.Report.Metrics = snapshotOf(map[string]int64{"fabric/dropped_frames": 3})
	vs := checkExercised(ev)
	if !find(vs, "armed no faults") || !find(vs, "fabric/plug_buffered_packets stayed 0") {
		t.Fatalf("vacuous run not flagged: %v", vs)
	}
	if find(vs, "fabric/dropped_frames") {
		t.Fatalf("moved counter wrongly flagged: %v", vs)
	}
	ev.Report.FaultsArmed = 1
	ev.Scenario.MustMove = ev.Scenario.MustMove[:1]
	if vs := checkExercised(ev); len(vs) != 0 {
		t.Fatalf("exercised run flagged: %v", vs)
	}
}

// TestResidueCheckerFlagsEveryKind plants each kind of residue on one
// host of an otherwise clean census.
func TestResidueCheckerFlagsEveryKind(t *testing.T) {
	if vs := checkNoResidue(healthy()); len(vs) != 0 {
		t.Fatalf("clean census flagged: %v", vs)
	}
	for _, tc := range []struct {
		plant func(*hostResidue)
		want  string
	}{
		{func(h *hostResidue) { h.daemon.Records = 1 }, "dst still holds 1 migration records"},
		{func(h *hostResidue) { h.daemon.Staged = 1 }, "dst still holds 1 staged restores"},
		{func(h *hostResidue) { h.daemon.Spares = 2 }, "dst still holds 2 pre-setup spare QPs"},
		{func(h *hostResidue) { h.daemon.Suspended = 3 }, "dst still holds 3 suspended QPs"},
		{func(h *hostResidue) { h.daemon.Plugs = 1 }, "dst still holds 1 plug-forward destination plugs"},
		{func(h *hostResidue) { h.daemon.Forwards = 1 }, "dst still holds 1 forwarding rules"},
		{func(h *hostResidue) { h.daemon.NSent = 2 }, "dst still holds 2 stashed n_sent announcements"},
		{func(h *hostResidue) { h.oobCalls = 1 }, "dst still holds 1 control calls awaiting a reply"},
		{func(h *hostResidue) { h.oobHandlers = 4 }, "dst still holds 4 control handler runs in flight"},
		{func(h *hostResidue) { h.plugDepth = 0 }, "dst still has a fabric plug installed (depth 0)"},
		{func(h *hostResidue) { h.orch.Active = 1 }, "dst still holds 1 active migrations of its containers"},
		{func(h *hostResidue) { h.orch.Incoming = 2 }, "dst still holds 2 attempts placed onto it"},
		{func(h *hostResidue) { h.orch.Draining = 1 }, "dst still holds 1 drains selecting it"},
		{func(h *hostResidue) { h.orch.Running = 1 }, "dst still holds 1 executor admission slots taken"},
		{func(h *hostResidue) { h.orch.Queued = 3 }, "dst still holds 3 executor jobs queued"},
		{func(h *hostResidue) { h.orch.Busy = 1 }, "dst still holds 1 executor containers marked busy"},
	} {
		ev := healthy()
		tc.plant(&ev.census[1])
		if vs := checkNoResidue(ev); len(vs) != 1 || vs[0] != tc.want {
			t.Errorf("want exactly %q, got %v", tc.want, vs)
		}
	}
	// Staged chunks are read off the gauge.
	ev := healthy()
	reg := metrics.New(func() time.Duration { return 0 })
	reg.Gauge("pagechan", "staged_chunks", metrics.L("mig", "m0")).Set(3)
	ev.Report.Metrics = reg.Snapshot()
	if vs := checkNoResidue(ev); !find(vs, "3 chunks still staged") {
		t.Errorf("staged chunks not flagged: %v", vs)
	}
	// What Close left behind is counted by the runner.
	ev = healthy()
	ev.liveProcs, ev.goroutines = 2, 5
	if vs := checkNoResidue(ev); !find(vs, "2 procs still live after Close") || !find(vs, "5 goroutines left behind after Close") {
		t.Errorf("live procs and goroutines not flagged: %v", vs)
	}
}

// TestChunkCheckerFlagsSyntheticViolations feeds checkChunks hand-built
// ledgers so every chunk-protocol invariant's failure path is known to
// fire.
func TestChunkCheckerFlagsSyntheticViolations(t *testing.T) {
	pchan := func(note string, seq uint64) metrics.Event {
		return metrics.Event{Kind: "pchan", Note: note, Seq: seq}
	}
	// with builds evidence over the ledger; elided says whether the
	// pages_elided counter moved.
	with := func(elided bool, evs ...metrics.Event) *Evidence {
		ev := healthy()
		ev.ledger = evs
		ev.Report.Migrations[0].Report.Rounds = make([]pagechan.RoundStats, 2)
		if elided {
			ev.Report.Metrics = snapshotOf(map[string]int64{"pagechan/pages_elided": 4})
		}
		return ev
	}

	// Clean exactly-once round passes.
	if vs := checkChunks(with(true, pchan("send", 1), pchan("recv", 1), pchan("apply", 1))); len(vs) != 0 {
		t.Fatalf("clean ledger flagged: %v", vs)
	}
	// A run that never elided a page is vacuous: the memhog guarantees
	// constant-content rewrites, so zero elision means the table broke.
	if vs := checkChunks(with(false, pchan("send", 1), pchan("recv", 1), pchan("apply", 1))); !find(vs, "no pages elided") {
		t.Fatalf("zero-elision vacuity not flagged: %v", vs)
	}
	// Duplicate receive.
	if vs := checkChunks(with(true, pchan("send", 1), pchan("recv", 1), pchan("recv", 1), pchan("apply", 1))); !find(vs, "received 2 times") {
		t.Fatalf("duplicate receive not flagged: %v", vs)
	}
	// Receive before send.
	if vs := checkChunks(with(true, pchan("recv", 5))); !find(vs, "received before being sent") {
		t.Fatalf("recv-before-send not flagged: %v", vs)
	}
	// Apply before receive.
	if vs := checkChunks(with(true, pchan("send", 2), pchan("apply", 2))); !find(vs, "applied before being received") {
		t.Fatalf("apply-before-recv not flagged: %v", vs)
	}
	// Sent but lost (never received).
	if vs := checkChunks(with(true, pchan("send", 1), pchan("recv", 1), pchan("apply", 1), pchan("send", 2))); !find(vs, "sent but received 0 times") {
		t.Fatalf("lost chunk not flagged: %v", vs)
	}
	// Vacuous run: no chunks at all.
	if vs := checkChunks(with(true)); !find(vs, "streamed no chunks") {
		t.Fatalf("vacuous run not flagged: %v", vs)
	}
	// A single streamed round cannot be predump + final.
	ev := with(true, pchan("send", 1), pchan("recv", 1), pchan("apply", 1))
	ev.Report.Migrations[0].Report.Rounds = make([]pagechan.RoundStats, 1)
	if vs := checkChunks(ev); !find(vs, "only 1 streamed rounds") {
		t.Fatalf("single round not flagged: %v", vs)
	}

	// Aborted run without a channel abort event.
	ev = with(false, pchan("send", 1), pchan("recv", 1))
	ev.Scenario.Abort = Abort{Round: "final", Chunk: 1}
	if vs := checkChunks(ev); !find(vs, "no channel abort event") {
		t.Fatalf("missing abort event not flagged: %v", vs)
	}
	// Aborted run with the abort event passes even with unreceived sends.
	ev = with(false, pchan("send", 1), pchan("abort", 1))
	ev.Scenario.Abort = Abort{Round: "final", Chunk: 1}
	if vs := checkChunks(ev); len(vs) != 0 {
		t.Fatalf("aborted ledger wrongly flagged: %v", vs)
	}
}

// TestPlugCheckerFlagsSyntheticViolations: the plug ledger's flush must
// mirror its arrivals, and a fault-free cutover must not retransmit.
func TestPlugCheckerFlagsSyntheticViolations(t *testing.T) {
	plug := func(note string, seq uint64) metrics.Event { return metrics.Event{Kind: "plug", Note: note, Seq: seq} }
	with := func(evs ...metrics.Event) *Evidence {
		ev := healthy()
		ev.ledger = evs
		ev.Report.Migrations[0].Report.PlugFlushed = 2
		return ev
	}
	if vs := checkPlug(with(plug("buffer", 1), plug("buffer", 2), plug("flush", 1), plug("flush", 2))); len(vs) != 0 {
		t.Fatalf("clean plug ledger flagged: %v", vs)
	}
	if vs := checkPlug(with(plug("buffer", 1), plug("buffer", 2), plug("flush", 2), plug("flush", 1))); !find(vs, "flush order diverges") {
		t.Fatalf("reordered flush not flagged: %v", vs)
	}
	if vs := checkPlug(with(plug("buffer", 1), plug("flush", 1), plug("flush", 1))); !find(vs, "flushed twice") {
		t.Fatalf("double flush not flagged: %v", vs)
	}
	if vs := checkPlug(with(plug("buffer", 1), plug("discard", 1))); !find(vs, "discarded in a successful run") {
		t.Fatalf("discard not flagged: %v", vs)
	}
	ev := with(plug("buffer", 1), plug("flush", 1))
	ev.Report.Metrics = snapshotOf(map[string]int64{"rnic/retx_packets": 5})
	ev.Report.Migrations[0].Report.PlugFlushed = 0
	if vs := checkPlug(ev); !find(vs, "retransmitted 5 packets") || !find(vs, "no flushed frames") {
		t.Fatalf("fault-free retransmission not flagged: %v", vs)
	}
}

// TestLedgerKeepsDeclaredKindsOnly: the ledger is a filter over the
// event stream, so an event of a kind outside the declared set — a new
// emitter — leaves the behaviour hash exactly as it was, while one of a
// declared kind moves it.
func TestLedgerKeepsDeclaredKindsOnly(t *testing.T) {
	feed := func(evs ...metrics.Event) string {
		r := &run{rec: &recorder{}, jobs: map[string]string{}, bound: map[string]string{}}
		for _, e := range evs {
			if err := r.listen(e); err != nil {
				t.Fatal(err)
			}
		}
		return r.rec.hash()
	}
	base := []metrics.Event{
		{T: 10, Kind: "cqe", Node: "src", QPN: 7, Seq: 1},
		{T: 20, Kind: "plug", Node: "dst", Seq: 1, Note: "buffer"},
		{T: 30, Kind: "pchan", Mig: "m0", Seq: 2, Note: "send"},
	}
	want := feed(base...)
	novel := slices.Insert(slices.Clone(base), 1, metrics.Event{T: 15, Kind: "wbs-sweep", Node: "src", Mig: "m0"},
		metrics.Event{T: 16, Kind: "attempt", Mig: "d1/src/client", Note: "src/m1"})
	if got := feed(novel...); got != want {
		t.Errorf("undeclared kinds moved the behaviour hash: %s, want %s", got, want)
	}
	declared := slices.Insert(slices.Clone(base), 1, metrics.Event{T: 15, Kind: "ack", Node: "src", QPN: 7, PSN: 3})
	if got := feed(declared...); got == want {
		t.Error("a declared kind left the behaviour hash unchanged")
	}
}
