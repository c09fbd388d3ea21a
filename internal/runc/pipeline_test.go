package runc

import (
	"errors"
	"strings"
	"testing"
	"time"

	"migrrdma/internal/core"
	"migrrdma/internal/mem"
	"migrrdma/internal/metrics"
	"migrrdma/internal/perftest"
	"migrrdma/internal/rnic"
	"migrrdma/internal/task"
)

// memhog is the extra application-state region the pipeline tests
// attach to the migrated process: the page hog rewrites it every epoch
// with a mix of genuinely-changing pages, zeroed scratch pages, and
// constant-content rewrites (dirty-bit false positives) — the page mix
// MigrOS observes on real pre-copy workloads. It runs until the process
// exits, pausing while it is frozen.
var memhog = task.PageHog{
	Base: 0x5200_0000_0000, Pages: 128, Hot: 16, Zero: 16,
	Interval: 200 * time.Microsecond,
}

// settleAndStop ends the run from the driving proc once everything the
// assertions read exists: it lets the stops above take effect, then
// stops the scheduler. The memhog writer would otherwise rewrite its 128
// pages every 200 µs all the way to the RunFor horizon.
func settleAndStop(tb *testbed) {
	tb.cl.Sched.Sleep(time.Millisecond)
	tb.cl.Sched.Stop()
}

// runTransferMode migrates a client container under the given transfer
// mode with the memhog writer attached, returning the report.
func runTransferMode(t *testing.T, mode TransferMode) *Report {
	t.Helper()
	tb := newTestbed(t, "src", "dst", "partner")
	opts := perftest.Options{Verb: rnic.OpSend, MsgSize: 2048, QueueDepth: 8, NumQPs: 2,
		Messages: 0, CheckOrder: true, PostGap: 50 * time.Microsecond}
	cont, cli, srv := tb.startPair(t, "src", "partner", opts)

	var rep *Report
	var mErr error
	var atSwitch int64
	tb.cl.Sched.Go("migrate", func() {
		cli.WaitReady()
		if _, err := memhog.Start(cont.Procs[0]); err != nil {
			t.Errorf("map appstate: %v", err)
			return
		}
		tb.cl.Sched.Sleep(3 * time.Millisecond)
		o := DefaultMigrateOptions()
		o.Transfer = mode
		m := &Migrator{C: cont, Dst: tb.cl.Host("dst"),
			Plug: core.NewPlugin(tb.daemons["src"], tb.daemons["dst"]), Opts: o}
		rep, mErr = m.Migrate()
		atSwitch = cli.Stats.Completed
		tb.cl.Sched.Sleep(3 * time.Millisecond)
		cli.Stop()
		cli.Wait()
		tb.cl.Sched.Sleep(2 * time.Millisecond)
		srv.Stop()
		settleAndStop(tb)
	})
	tb.cl.Sched.RunFor(30 * time.Second)
	if mErr != nil {
		t.Fatalf("%v migration failed: %v", mode, mErr)
	}
	if rep == nil {
		t.Fatalf("%v migration did not finish", mode)
	}
	if atSwitch == 0 || cli.Stats.Completed <= atSwitch {
		t.Fatalf("%v: no traffic progress across the migration (%d → %d)",
			mode, atSwitch, cli.Stats.Completed)
	}
	if cli.Stats.Completed != srv.Stats.Completed {
		t.Fatalf("%v: client %d vs server %d completions", mode, cli.Stats.Completed, srv.Stats.Completed)
	}
	assertClean(t, "client", cli.Stats)
	assertClean(t, "server", srv.Stats)
	if cli.Sess.Node() != "dst" {
		t.Fatalf("%v: session on %s, want dst", mode, cli.Sess.Node())
	}
	return rep
}

func TestMigratePipelinedEndToEnd(t *testing.T) {
	rep := runTransferMode(t, TransferPipelined)
	if len(rep.Rounds) < 2 {
		t.Fatalf("rounds = %d, want at least predump + final", len(rep.Rounds))
	}
	if rep.Rounds[0].Round != "predump" || rep.Rounds[len(rep.Rounds)-1].Round != "final" {
		t.Errorf("round sequence %+v, want predump … final", rep.Rounds)
	}
	if rep.WireBytes <= 0 || rep.FinalWireBytes <= 0 {
		t.Errorf("wire accounting missing: total=%d final=%d", rep.WireBytes, rep.FinalWireBytes)
	}
	if rep.DistinctPages <= 0 || rep.DistinctPages > rep.PagesTransferred+rep.PagesElided {
		t.Errorf("distinct pages %d implausible vs transferred %d + elided %d",
			rep.DistinctPages, rep.PagesTransferred, rep.PagesElided)
	}
	// The memhog's constant-content rewrites and zero scratch pages
	// must produce elision in the pre-copy/final rounds.
	if rep.PagesElided == 0 {
		t.Error("no pages elided despite constant-content rewrites and zero pages")
	}
	t.Logf("pipelined: %s distinct=%d wire=%d final-wire=%d elided=%d rounds=%d",
		rep, rep.DistinctPages, rep.WireBytes, rep.FinalWireBytes, rep.PagesElided, len(rep.Rounds))
}

// TestPipelinedBeatsMonolithic is the PR's acceptance contrast: same
// workload, both transfer modes — the pipeline must shrink both the
// blackout and the final-round wire volume.
func TestPipelinedBeatsMonolithic(t *testing.T) {
	mono := runTransferMode(t, TransferMonolithic)
	pipe := runTransferMode(t, TransferPipelined)
	if pipe.FinalWireBytes >= mono.FinalWireBytes {
		t.Errorf("final-round wire: pipelined %d not below monolithic %d",
			pipe.FinalWireBytes, mono.FinalWireBytes)
	}
	if pipe.Blackout() >= mono.Blackout() {
		t.Errorf("blackout: pipelined %v not below monolithic %v",
			pipe.Blackout(), mono.Blackout())
	}
	// Monolithic mode must report the accounting satellite too: the
	// final dump re-ships pages already sent in pre-copy, so distinct
	// pages trail the per-round total.
	if mono.DistinctPages <= 0 || mono.WireBytes <= 0 {
		t.Errorf("monolithic accounting missing: distinct=%d wire=%d",
			mono.DistinctPages, mono.WireBytes)
	}
	if mono.DistinctPages >= mono.PagesTransferred {
		t.Errorf("distinct %d not below transferred %d — the double-count is invisible",
			mono.DistinctPages, mono.PagesTransferred)
	}
	t.Logf("monolithic: blackout=%v final-wire=%d wire=%d pages=%d distinct=%d",
		mono.Blackout(), mono.FinalWireBytes, mono.WireBytes, mono.PagesTransferred, mono.DistinctPages)
	t.Logf("pipelined:  blackout=%v final-wire=%d wire=%d pages=%d distinct=%d elided=%d",
		pipe.Blackout(), pipe.FinalWireBytes, pipe.WireBytes, pipe.PagesTransferred, pipe.DistinctPages, pipe.PagesElided)
}

// TestPipelinedAbortMidChunk refuses a chunk send mid-round at each
// streaming phase, from the event stream's listener, and asserts the
// phase engine unwinds: the error names the phase and the refusal, the
// channel holds no staged chunks, and the workload recovers on the
// source.
func TestPipelinedAbortMidChunk(t *testing.T) {
	for _, tc := range []struct {
		round string
		phase string
	}{
		{"predump", "predump"},
		{"final", "transfer"},
	} {
		t.Run(tc.round, func(t *testing.T) {
			tb := newTestbed(t, "src", "dst", "partner")
			// PostGap 10µs: denser traffic keeps the client's rings dirty so
			// the final stop-and-copy round always has several chunks for
			// the refusal to land in.
			opts := perftest.Options{Verb: rnic.OpSend, MsgSize: 2048, QueueDepth: 8, NumQPs: 2,
				Messages: 0, CheckOrder: true, PostGap: 10 * time.Microsecond}
			cont, cli, srv := tb.startPair(t, "src", "partner", opts)
			// The listener refuses the second chunk send of the round the
			// phase under test streams.
			refused := errors.New("chunk refused")
			stage, sends := "", 0
			tb.cl.Metrics.Listen(func(e metrics.Event) error {
				switch {
				case e.Kind == "stage":
					stage = e.Note
				case e.Kind == "pchan" && e.Note == "round":
					sends = 0
				case e.Kind == "pchan" && e.Note == "send":
					if sends++; sends == 2 && stage == tc.phase {
						return refused
					}
				}
				return nil
			})

			var mErr error
			var after int64
			tb.cl.Sched.Go("migrate", func() {
				cli.WaitReady()
				if _, err := memhog.Start(cont.Procs[0]); err != nil {
					t.Errorf("map appstate: %v", err)
					return
				}
				tb.cl.Sched.Sleep(3 * time.Millisecond)
				o := DefaultMigrateOptions()
				o.Transfer = TransferPipelined
				o.ChunkPages = 4 // small chunks so every round has several
				m := &Migrator{C: cont, Dst: tb.cl.Host("dst"),
					Plug: core.NewPlugin(tb.daemons["src"], tb.daemons["dst"]), Opts: o}
				_, mErr = m.Migrate()
				// The workload must keep running on the source.
				tb.cl.Sched.Sleep(3 * time.Millisecond)
				after = cli.Stats.Completed
				cli.Stop()
				cli.Wait()
				tb.cl.Sched.Sleep(2 * time.Millisecond)
				srv.Stop()
				settleAndStop(tb)
			})
			tb.cl.Sched.RunFor(30 * time.Second)
			if mErr == nil {
				t.Fatal("migration succeeded despite the injected mid-chunk fault")
			}
			if !strings.Contains(mErr.Error(), "phase "+tc.phase) {
				t.Errorf("error %q does not name phase %q", mErr, tc.phase)
			}
			if !errors.Is(mErr, refused) || !strings.Contains(mErr.Error(), "chunk 2 of round "+tc.round) {
				t.Errorf("error %q does not surface the refused chunk", mErr)
			}
			if after == 0 || cli.Stats.Completed != srv.Stats.Completed {
				t.Errorf("workload did not recover on the source: after=%d cli=%d srv=%d",
					after, cli.Stats.Completed, srv.Stats.Completed)
			}
			assertClean(t, "client", cli.Stats)
			assertClean(t, "server", srv.Stats)
			if cli.Sess.Node() != "src" {
				t.Errorf("session on %s after aborted migration, want src", cli.Sess.Node())
			}
		})
	}
}

// TestMonolithicEmptyPrecopyShortCircuit pins the pre-copy rule both
// presets share: a diff whose dirty pages are all device memory has
// nothing the channel can ship, so it ends pre-copy — no round, no
// transfer, no apply, and no iteration counted.
func TestMonolithicEmptyPrecopyShortCircuit(t *testing.T) {
	tb := newTestbed(t, "src", "dst")
	cont := NewContainer(tb.cl.Host("src"), "plain")
	var p *task.Process
	var rep *Report
	var mErr error
	tb.cl.Sched.Go("drive", func() {
		p = cont.Start(nil)
		// One normal page so the image is non-trivial, plus a device
		// region that stays permanently dirty (the RNIC writes it).
		if _, err := p.AS.Map(0x1000, mem.PageSize, "heap"); err != nil {
			t.Errorf("map heap: %v", err)
			return
		}
		_ = p.AS.Write(0x1000, []byte{1})
		dv, err := p.AS.MapAnywhereDevice(0x9000_0000_0000, 256*mem.PageSize, "dm")
		if err != nil {
			t.Errorf("map device: %v", err)
			return
		}
		buf := make([]byte, mem.PageSize)
		tb.cl.Sched.Go("device-writer", func() {
			for !p.Exited() {
				for i := 0; i < 256; i++ {
					_ = p.AS.Write(dv.Start+mem.Addr(i*mem.PageSize), buf)
				}
				tb.cl.Sched.Sleep(50 * time.Microsecond)
			}
		})
		tb.cl.Sched.Sleep(time.Millisecond)
		// dirtyPageThreshold is below the 256 device pages.
		m := &Migrator{C: cont, Dst: tb.cl.Host("dst"), Opts: DefaultMigrateOptions()}
		rep, mErr = m.Migrate()
		p.Exit()
	})
	tb.cl.Sched.RunFor(30 * time.Second)
	if mErr != nil {
		t.Fatalf("migration failed: %v", mErr)
	}
	if rep.PreCopyIterations != 0 {
		t.Errorf("iterations = %d, want 0 (only device pages are dirty: nothing to ship)", rep.PreCopyIterations)
	}
	if len(rep.Rounds) != 2 || rep.Rounds[0].Round != "predump" || rep.Rounds[1].Round != "final" {
		t.Errorf("rounds = %+v, want predump and final only", rep.Rounds)
	}
	// Only predump's heap page and at most the final dump are on the
	// page ledger.
	if rep.PagesTransferred > 3 {
		t.Errorf("pages transferred = %d, want <= 3 (empty diffs must not ship)", rep.PagesTransferred)
	}
}
