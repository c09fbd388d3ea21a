package runc

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"migrrdma/internal/core"
	"migrrdma/internal/metrics"
	"migrrdma/internal/perftest"
	"migrrdma/internal/rnic"
	"migrrdma/internal/task"
)

// TestMigratePluginCountMismatch submits a container with more
// RDMA-holding processes than plugins and expects the mismatch to fail
// up front — before any process migrates — rather than stranding the
// first process on the destination.
func TestMigratePluginCountMismatch(t *testing.T) {
	tb := newTestbed(t, "src", "dst")
	cont := NewContainer(tb.cl.Host("src"), "multi")
	hold := func(p *task.Process) {
		p.Attachment = &core.Session{}
		for !p.Exited() {
			p.Compute(time.Millisecond)
		}
	}
	var mErr error
	ran := false
	tb.cl.Sched.Go("driver", func() {
		cont.Start(hold)
		cont.Exec("second", hold)
		// Yield so both process bodies run and attach their sessions
		// before the migration inspects them.
		tb.cl.Sched.Sleep(time.Millisecond)
		m := &Migrator{C: cont, Dst: tb.cl.Host("dst"),
			Plug: core.NewPlugin(tb.daemons["src"], tb.daemons["dst"]),
			Opts: DefaultMigrateOptions()}
		_, mErr = m.Migrate()
		ran = true
	})
	tb.cl.Sched.RunFor(time.Second)
	if !ran {
		t.Fatal("driver did not finish")
	}
	if mErr == nil || !strings.Contains(mErr.Error(), "RDMA processes but only") {
		t.Fatalf("want plugin-count mismatch error, got %v", mErr)
	}
	if cont.Host != tb.cl.Host("src") {
		t.Fatal("container moved despite the upfront validation failure")
	}
}

// failAt returns a listener refusing the stage events fail picks, with
// the error it returns.
func failAt(fail func(stage string) error) func(metrics.Event) error {
	return func(e metrics.Event) error {
		if e.Kind != "stage" {
			return nil
		}
		return fail(e.Note)
	}
}

// TestPhaseErrorWrapping injects faults at representative phases and
// asserts the returned error names the migration, process, and phase,
// that the workflow lands in the "aborted" stage, and that the source
// service recovers and keeps completing traffic.
func TestPhaseErrorWrapping(t *testing.T) {
	for _, phase := range []string{"predump", "suspend-wbs", "finalize"} {
		phase := phase
		t.Run(phase, func(t *testing.T) {
			tb := newTestbed(t, "src", "dst", "partner")
			opts := perftest.Options{Verb: rnic.OpSend, MsgSize: 2048, QueueDepth: 8, NumQPs: 2,
				Messages: 0, CheckOrder: true, PostGap: 10 * time.Microsecond}
			cont, cli, srv := tb.startPair(t, "src", "partner", opts)
			var mErr error
			var stage string
			var atAbort int64
			tb.cl.Sched.Go("driver", func() {
				cli.WaitReady()
				tb.cl.Sched.Sleep(3 * time.Millisecond)
				m := &Migrator{C: cont, Dst: tb.cl.Host("dst"),
					Plug: core.NewPlugin(tb.daemons["src"], tb.daemons["dst"]),
					Opts: DefaultMigrateOptions()}
				tb.cl.Metrics.Listen(failAt(func(ph string) error {
					if ph == phase {
						return fmt.Errorf("boom")
					}
					return nil
				}))
				_, mErr = m.Migrate()
				stage = m.Stage
				atAbort = cli.Stats.Completed
				tb.cl.Sched.Sleep(3 * time.Millisecond)
				cli.Stop()
				cli.Wait()
				tb.cl.Sched.Sleep(2 * time.Millisecond)
				srv.Stop()
			})
			tb.cl.Sched.RunFor(30 * time.Second)
			if mErr == nil {
				t.Fatal("migration succeeded despite injected fault")
			}
			wantPrefix := "migrate m0/proc client/init: phase " + phase + ": "
			if !strings.HasPrefix(mErr.Error(), wantPrefix) {
				t.Fatalf("error %q does not start with %q", mErr, wantPrefix)
			}
			if stage != "aborted" {
				t.Fatalf("final stage %q, want aborted", stage)
			}
			if cli.Stats.Completed <= atAbort {
				t.Fatalf("no progress after abort: stuck at %d", atAbort)
			}
			if cli.Stats.Completed != srv.Stats.Completed {
				t.Fatalf("client %d vs server %d after abort", cli.Stats.Completed, srv.Stats.Completed)
			}
			assertClean(t, "client", cli.Stats)
			assertClean(t, "server", srv.Stats)
			if cli.Sess.Node() != "src" {
				t.Fatalf("session on %s after abort, want src", cli.Sess.Node())
			}
			if got := tb.cl.Metrics.Snapshot().Sum("migr", "migrations_aborted"); got != 1 {
				t.Fatalf("migrations_aborted = %d, want 1", got)
			}
		})
	}
}

// TestPostCommitFailureNotRolledBack injects a fault after the partner
// switch-over — the commit point — and asserts the error says so
// instead of pretending a rollback happened.
func TestPostCommitFailureNotRolledBack(t *testing.T) {
	tb := newTestbed(t, "src", "dst", "partner")
	opts := perftest.Options{Verb: rnic.OpSend, MsgSize: 2048, QueueDepth: 8, NumQPs: 2,
		Messages: 0, CheckOrder: true, PostGap: 10 * time.Microsecond}
	cont, cli, _ := tb.startPair(t, "src", "partner", opts)
	var mErr error
	var stage string
	ran := false
	tb.cl.Sched.Go("driver", func() {
		cli.WaitReady()
		tb.cl.Sched.Sleep(3 * time.Millisecond)
		m := &Migrator{C: cont, Dst: tb.cl.Host("dst"),
			Plug: core.NewPlugin(tb.daemons["src"], tb.daemons["dst"]),
			Opts: DefaultMigrateOptions()}
		tb.cl.Metrics.Listen(failAt(func(ph string) error {
			if ph == "resume" {
				return fmt.Errorf("boom")
			}
			return nil
		}))
		_, mErr = m.Migrate()
		stage = m.Stage
		ran = true
		// The migration is wedged past the commit point; nothing to
		// drain — the workload is intentionally left hanging.
	})
	tb.cl.Sched.RunFor(30 * time.Second)
	if !ran {
		t.Fatal("driver did not finish")
	}
	if mErr == nil {
		t.Fatal("migration succeeded despite injected fault")
	}
	if !strings.Contains(mErr.Error(), "phase resume") ||
		!strings.Contains(mErr.Error(), "past commit point, not rolled back") {
		t.Fatalf("post-commit error not annotated: %v", mErr)
	}
	if stage == "aborted" {
		t.Fatal("post-commit failure must not report a rollback stage")
	}
}

// TestMigrateMiddleProcessFailure fails the second process of a
// three-process container mid-workflow: the first (already migrated)
// process stays on the destination, the failing one rolls back to the
// source, the container bookkeeping does not move, and both traffic
// streams still deliver exactly-once in order.
func TestMigrateMiddleProcessFailure(t *testing.T) {
	tb := newTestbed(t, "src", "dst", "partner")
	opts := perftest.Options{Verb: rnic.OpSend, MsgSize: 2048, QueueDepth: 8, NumQPs: 2,
		Messages: 0, CheckOrder: true, PostGap: 10 * time.Microsecond}

	srvA := perftest.NewServer(tb.cl.Sched, "srvA", opts)
	srvB := perftest.NewServer(tb.cl.Sched, "srvB", opts)
	sContA := NewContainer(tb.cl.Host("partner"), "serverA")
	sContA.Start(func(p *task.Process) { srvA.Run(p, tb.daemons["partner"]) })
	sContB := NewContainer(tb.cl.Host("partner"), "serverB")
	sContB.Start(func(p *task.Process) { srvB.Run(p, tb.daemons["partner"]) })

	cliA := perftest.NewClient(tb.cl.Sched, "cliA", opts, perftest.Target{Node: "partner", Name: "srvA"})
	cliB := perftest.NewClient(tb.cl.Sched, "cliB", opts, perftest.Target{Node: "partner", Name: "srvB"})
	cont := NewContainer(tb.cl.Host("src"), "multi")
	tb.cl.Sched.Go("start-clients", func() {
		srvA.WaitReady()
		srvB.WaitReady()
		cont.Start(func(p *task.Process) { cliA.Run(p, tb.daemons["src"]) })
		cont.Exec("cliB", func(p *task.Process) { cliB.Run(p, tb.daemons["src"]) })
	})

	var mErr error
	tb.cl.Sched.Go("driver", func() {
		cliA.WaitReady()
		cliB.WaitReady()
		tb.cl.Sched.Sleep(3 * time.Millisecond)
		predumps := 0
		m := &Migrator{C: cont, Dst: tb.cl.Host("dst"),
			Plug:       core.NewPlugin(tb.daemons["src"], tb.daemons["dst"]),
			ExtraPlugs: []*core.Plugin{core.NewPlugin(tb.daemons["src"], tb.daemons["dst"])},
			Opts:       DefaultMigrateOptions()}
		tb.cl.Metrics.Listen(failAt(func(ph string) error {
			if ph == "predump" {
				predumps++
				if predumps == 2 {
					return fmt.Errorf("boom")
				}
			}
			return nil
		}))
		_, mErr = m.Migrate()
		tb.cl.Sched.Sleep(3 * time.Millisecond)
		cliA.Stop()
		cliB.Stop()
		cliA.Wait()
		cliB.Wait()
		tb.cl.Sched.Sleep(2 * time.Millisecond)
		srvA.Stop()
		srvB.Stop()
	})
	tb.cl.Sched.RunFor(30 * time.Second)
	if mErr == nil {
		t.Fatal("migration succeeded despite injected fault")
	}
	if !strings.Contains(mErr.Error(), "proc multi/cliB") || !strings.Contains(mErr.Error(), "phase predump") {
		t.Fatalf("error does not name the failing process and phase: %v", mErr)
	}
	if cont.Host != tb.cl.Host("src") {
		t.Fatal("container bookkeeping moved despite the failure")
	}
	if cliA.Sess.Node() != "dst" {
		t.Fatalf("first process on %s, want dst (it migrated before the failure)", cliA.Sess.Node())
	}
	if cliB.Sess.Node() != "src" {
		t.Fatalf("second process on %s, want src (it rolled back)", cliB.Sess.Node())
	}
	for name, pair := range map[string][2]*perftest.Stats{
		"A": {&cliA.Stats, &srvA.Stats}, "B": {&cliB.Stats, &srvB.Stats},
	} {
		assertClean(t, "client"+name, *pair[0])
		assertClean(t, "server"+name, *pair[1])
		if pair[0].Completed == 0 || pair[0].Completed != pair[1].Completed {
			t.Errorf("stream %s: client %d vs server %d completions",
				name, pair[0].Completed, pair[1].Completed)
		}
	}
	if got := tb.cl.Metrics.Snapshot().Sum("migr", "migrations_aborted"); got != 1 {
		t.Fatalf("migrations_aborted = %d, want 1", got)
	}
}
