package runc

import (
	"testing"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/core"
	"migrrdma/internal/mem"
	"migrrdma/internal/perftest"
	"migrrdma/internal/rnic"
	"migrrdma/internal/task"
)

// testbed assembles hosts with MigrRDMA daemons.
type testbed struct {
	cl      *cluster.Cluster
	daemons map[string]*core.Daemon
}

func newTestbed(t *testing.T, names ...string) *testbed {
	t.Helper()
	cl := cluster.New(cluster.Config{Seed: 7}, names...)
	tb := &testbed{cl: cl, daemons: make(map[string]*core.Daemon)}
	for _, n := range names {
		tb.daemons[n] = core.NewDaemon(cl.Host(n))
	}
	return tb
}

// startPair spawns a perftest server on sNode and a client container on
// cNode, returning the container and both sides. The returned driver
// proc sequencing guarantees the server is ready before the client
// connects.
func (tb *testbed) startPair(t *testing.T, cNode, sNode string, opts perftest.Options) (*Container, *perftest.Client, *perftest.Server) {
	t.Helper()
	srv := perftest.NewServer(tb.cl.Sched, "srv", opts)
	srvCont := NewContainer(tb.cl.Host(sNode), "server")
	srvCont.Start(func(p *taskProcess) { srv.Run(p, tb.daemons[sNode]) })

	cli := perftest.NewClient(tb.cl.Sched, "cli", opts, perftest.Target{Node: sNode, Name: "srv"})
	cliCont := NewContainer(tb.cl.Host(cNode), "client")
	tb.cl.Sched.Go("start-client", func() {
		srv.WaitReady()
		cliCont.Start(func(p *taskProcess) { cli.Run(p, tb.daemons[cNode]) })
	})
	return cliCont, cli, srv
}

func assertClean(t *testing.T, name string, st perftest.Stats) {
	t.Helper()
	for _, e := range st.Errors {
		t.Errorf("%s: %s", name, e)
	}
}

func TestPerftestPairNoMigration(t *testing.T) {
	tb := newTestbed(t, "hostA", "hostB")
	opts := perftest.Options{Verb: rnic.OpWrite, MsgSize: 4096, QueueDepth: 16, NumQPs: 4, Messages: 100}
	_, cli, srv := tb.startPair(t, "hostA", "hostB", opts)
	tb.cl.Sched.Go("driver", func() {
		cli.Wait()
		srv.Stop()
	})
	tb.cl.Sched.RunFor(5 * time.Second)
	if cli.Stats.Completed != 400 {
		t.Fatalf("completed %d, want 400", cli.Stats.Completed)
	}
	assertClean(t, "client", cli.Stats)
}

func TestPerftestSendRecvOrder(t *testing.T) {
	tb := newTestbed(t, "hostA", "hostB")
	opts := perftest.Options{Verb: rnic.OpSend, MsgSize: 1024, QueueDepth: 8, NumQPs: 2, Messages: 50, CheckOrder: true}
	_, cli, srv := tb.startPair(t, "hostA", "hostB", opts)
	tb.cl.Sched.Go("driver", func() {
		cli.Wait()
		// Let the tail of receptions drain.
		tb.cl.Sched.Sleep(2 * time.Millisecond)
		srv.Stop()
	})
	tb.cl.Sched.RunFor(5 * time.Second)
	if srv.Stats.Completed != 100 {
		t.Fatalf("server received %d, want 100", srv.Stats.Completed)
	}
	assertClean(t, "client", cli.Stats)
	assertClean(t, "server", srv.Stats)
}

// migratePair runs a full live migration of the client (sender) or is
// parameterized for servers later.
func TestMigrateSenderWithPreSetup(t *testing.T) {
	tb := newTestbed(t, "src", "dst", "partner")
	// Endless checked traffic so the migration lands mid-stream: work
	// requests are in flight at suspension, are intercepted during the
	// blackout, and resume on the destination.
	opts := perftest.Options{Verb: rnic.OpSend, MsgSize: 4096, QueueDepth: 16, NumQPs: 4, Messages: 0, CheckOrder: true, PostGap: 5 * time.Microsecond}
	cont, cli, srv := tb.startPair(t, "src", "partner", opts)

	var rep *Report
	var mErr error
	var beforeMig, afterMig int64
	tb.cl.Sched.Go("migrate", func() {
		cli.WaitReady()
		// Let traffic reach steady state.
		tb.cl.Sched.Sleep(3 * time.Millisecond)
		beforeMig = cli.Stats.Completed
		m := &Migrator{C: cont, Dst: tb.cl.Host("dst"), Plug: core.NewPlugin(tb.daemons["src"], tb.daemons["dst"]), Opts: DefaultMigrateOptions()}
		rep, mErr = m.Migrate()
		afterMig = cli.Stats.Completed
		// Keep running on the destination, then drain.
		tb.cl.Sched.Sleep(3 * time.Millisecond)
		cli.Stop()
		cli.Wait()
		tb.cl.Sched.Sleep(2 * time.Millisecond)
		srv.Stop()
	})
	tb.cl.Sched.RunFor(30 * time.Second)
	if mErr != nil {
		t.Fatalf("migration failed: %v", mErr)
	}
	if rep == nil {
		t.Fatal("migration did not finish")
	}
	if beforeMig == 0 {
		t.Fatal("no traffic before the migration — the test is vacuous")
	}
	if rep.WBS.InflightBytes == 0 {
		t.Fatal("nothing was in flight at suspension — the test is vacuous")
	}
	if cli.Stats.Completed <= afterMig {
		t.Fatalf("no progress after migration: %d → %d", afterMig, cli.Stats.Completed)
	}
	if cli.Stats.Completed != srv.Stats.Completed {
		t.Fatalf("client completed %d but server received %d", cli.Stats.Completed, srv.Stats.Completed)
	}
	assertClean(t, "client", cli.Stats)
	assertClean(t, "server", srv.Stats)
	if cli.Sess.Node() != "dst" {
		t.Fatalf("session on %s after migration, want dst", cli.Sess.Node())
	}
	if rep.ServiceBlackout <= 0 || rep.ServiceBlackout > 2*time.Second {
		t.Fatalf("implausible service blackout %v", rep.ServiceBlackout)
	}
	if rep.WBS.TimedOut {
		t.Fatal("wait-before-stop timed out on a healthy network")
	}
	t.Logf("report: %s (completed %d before, %d at switch, %d total)", rep, beforeMig, afterMig, cli.Stats.Completed)
}

func TestMigrateReceiverWithPreSetup(t *testing.T) {
	tb := newTestbed(t, "src", "dst", "partner")
	opts := perftest.Options{Verb: rnic.OpSend, MsgSize: 2048, QueueDepth: 8, NumQPs: 2, Messages: 0, CheckOrder: true, PostGap: 5 * time.Microsecond}
	// Server (receiver) lives in the container on src; client posts
	// SENDs from partner.
	srv := perftest.NewServer(tb.cl.Sched, "srv", opts)
	srvCont := NewContainer(tb.cl.Host("src"), "server")
	srvCont.Start(func(p *taskProcess) { srv.Run(p, tb.daemons["src"]) })
	cli := perftest.NewClient(tb.cl.Sched, "cli", opts, perftest.Target{Node: "src", Name: "srv"})
	cliCont := NewContainer(tb.cl.Host("partner"), "client")
	tb.cl.Sched.Go("start-client", func() {
		srv.WaitReady()
		cliCont.Start(func(p *taskProcess) { cli.Run(p, tb.daemons["partner"]) })
	})

	var rep *Report
	var mErr error
	var atSwitch int64
	tb.cl.Sched.Go("migrate", func() {
		cli.WaitReady()
		tb.cl.Sched.Sleep(3 * time.Millisecond)
		m := &Migrator{C: srvCont, Dst: tb.cl.Host("dst"), Plug: core.NewPlugin(tb.daemons["src"], tb.daemons["dst"]), Opts: DefaultMigrateOptions()}
		rep, mErr = m.Migrate()
		atSwitch = srv.Stats.Completed
		// Post-migration phase: the client keeps SENDing (with payload
		// stamps) to the server now living on dst; stamps must verify
		// against memory the *destination* NIC writes.
		tb.cl.Sched.Sleep(3 * time.Millisecond)
		cli.Stop()
		cli.Wait()
		tb.cl.Sched.Sleep(5 * time.Millisecond)
		srv.Stop()
	})
	tb.cl.Sched.RunFor(30 * time.Second)
	if mErr != nil {
		t.Fatalf("migration failed: %v", mErr)
	}
	if rep == nil {
		t.Fatal("migration did not finish")
	}
	if atSwitch == 0 {
		t.Fatal("no traffic before the switch — the test is vacuous")
	}
	if srv.Stats.Completed <= atSwitch {
		t.Fatalf("receiver made no progress after migration: %d → %d", atSwitch, srv.Stats.Completed)
	}
	if srv.Stats.Completed != cli.Stats.Completed {
		t.Fatalf("client completed %d but server received %d (lost or duplicated across migration)",
			cli.Stats.Completed, srv.Stats.Completed)
	}
	assertClean(t, "client", cli.Stats)
	assertClean(t, "server", srv.Stats)
	if srv.Sess.Node() != "dst" {
		t.Fatalf("server session on %s, want dst", srv.Sess.Node())
	}
}

// TestMigrateOneSidedResponder migrates the passive side of one-sided
// traffic (READ, WRITE and both atomics), which posts nothing, so only
// the client's completions and the server's memory show that the verbs
// survived the move. Every fresh NIC hands out the same key sequence,
// so one throwaway registration on dst first makes the restored MR's
// rkey differ from the source's: the partner must drop its cached
// translation at the switch and fetch the new key, once per QP.
func TestMigrateOneSidedResponder(t *testing.T) {
	for _, verb := range []rnic.Opcode{rnic.OpRead, rnic.OpWrite, rnic.OpFetchAdd, rnic.OpCompSwap} {
		t.Run(verb.String(), func(t *testing.T) {
			tb := newTestbed(t, "src", "dst", "partner")
			defer tb.cl.Close()
			opts := perftest.Options{Verb: verb, MsgSize: 2048, QueueDepth: 8, NumQPs: 2, PostGap: 5 * time.Microsecond}
			srv := perftest.NewServer(tb.cl.Sched, "srv", opts)
			srvCont := NewContainer(tb.cl.Host("src"), "server")
			srvCont.Start(func(p *task.Process) { srv.Run(p, tb.daemons["src"]) })
			cli := perftest.NewClient(tb.cl.Sched, "cli", opts, perftest.Target{Node: "src", Name: "srv"})
			cliCont := NewContainer(tb.cl.Host("partner"), "client")
			tb.cl.Sched.Go("start-client", func() {
				srv.WaitReady()
				cliCont.Start(func(p *task.Process) { cli.Run(p, tb.daemons["partner"]) })
			})

			var mErr error
			var fetchesBefore, atSwitch int64
			finished := false
			tb.cl.Sched.Go("migrate", func() {
				// RegMR sleeps for the pinning latency, so it runs here.
				dev, junk := tb.cl.Host("dst").Dev, task.New(tb.cl.Sched, "junk")
				if _, mErr = junk.AS.Map(0x1000_0000, 4096, "junk"); mErr != nil {
					return
				}
				if _, mErr = dev.RegMR(dev.AllocPD(), junk.AS, 0x1000_0000, 4096, rnic.AccessLocalWrite); mErr != nil {
					return
				}
				cli.WaitReady()
				tb.cl.Sched.Sleep(3 * time.Millisecond)
				fetchesBefore = cli.Sess.RKeyFetches
				_, mErr = (&Migrator{C: srvCont, Dst: tb.cl.Host("dst"),
					Plug: core.NewPlugin(tb.daemons["src"], tb.daemons["dst"]),
					Opts: DefaultMigrateOptions()}).Migrate()
				atSwitch = cli.Stats.Completed
				tb.cl.Sched.Sleep(3 * time.Millisecond)
				cli.Stop()
				cli.Wait()
				finished = true
				srv.Stop()
			})
			tb.cl.Sched.RunFor(30 * time.Second)
			assertClean(t, "client", cli.Stats)
			if mErr != nil {
				t.Fatalf("migration failed: %v", mErr)
			}
			if !finished {
				t.Fatalf("client never finished after the migration (%d completions)", cli.Stats.Completed)
			}
			if srv.Sess.Node() != "dst" {
				t.Fatalf("server session on %s, want dst", srv.Sess.Node())
			}
			if atSwitch == 0 || cli.Stats.Completed <= atSwitch {
				t.Fatalf("client completions %d at the switch, %d at the end: no progress on both sides of it", atSwitch, cli.Stats.Completed)
			}
			if got := cli.Sess.RKeyFetches - fetchesBefore; got != int64(opts.NumQPs) {
				t.Errorf("%d rkey fetches across the switch, want one per QP (%d)", got, opts.NumQPs)
			}
			if verb != rnic.OpFetchAdd {
				return
			}
			// The counter every FETCH_ADD hits sits at the buffer's base:
			// each completed add landed on src or dst exactly once.
			var base mem.Addr
			for _, v := range srv.Sess.Proc.AS.VMAs() {
				if v.Name == "pt-buffer" {
					base = v.Start
				}
			}
			if got, err := srv.Sess.Proc.AS.ReadU64(base); err != nil || int64(got) != cli.Stats.Completed {
				t.Fatalf("destination counter %d (err %v), want the client's %d completions", got, err, cli.Stats.Completed)
			}
		})
	}
}

func TestMigrateWithoutPreSetupSlower(t *testing.T) {
	run := func(preSetup bool) *Report {
		tb := newTestbed(t, "src", "dst", "partner")
		opts := perftest.Options{Verb: rnic.OpWrite, MsgSize: 4096, QueueDepth: 16, NumQPs: 8, Messages: 20000, PostGap: 3 * time.Microsecond}
		cont, cli, srv := tb.startPair(t, "src", "partner", opts)
		var rep *Report
		var mErr error
		tb.cl.Sched.Go("migrate", func() {
			cli.WaitReady()
			tb.cl.Sched.Sleep(3 * time.Millisecond)
			o := DefaultMigrateOptions()
			o.PreSetup = preSetup
			m := &Migrator{C: cont, Dst: tb.cl.Host("dst"), Plug: core.NewPlugin(tb.daemons["src"], tb.daemons["dst"]), Opts: o}
			rep, mErr = m.Migrate()
			cli.Wait()
			srv.Stop()
		})
		tb.cl.Sched.RunFor(60 * time.Second)
		if mErr != nil {
			t.Fatalf("preSetup=%v migration failed: %v", preSetup, mErr)
		}
		if got, want := cli.Stats.Completed, int64(20000*8); got != want {
			t.Fatalf("preSetup=%v: completed %d, want %d", preSetup, got, want)
		}
		assertClean(t, "client", cli.Stats)
		return rep
	}
	with := run(true)
	without := run(false)
	if with.Blackout() >= without.Blackout() {
		t.Fatalf("pre-setup blackout %v not better than baseline %v", with.Blackout(), without.Blackout())
	}
	if without.RestoreRDMA == 0 {
		t.Fatal("baseline should pay RestoreRDMA inside the blackout")
	}
	if with.RestoreRDMA != 0 || with.DumpRDMA != 0 {
		t.Fatal("pre-setup blackout must exclude DumpRDMA/RestoreRDMA")
	}
	t.Logf("with pre-setup:    %s", with)
	t.Logf("without pre-setup: %s", without)
}

// taskProcess aliases the process type for test brevity.
type taskProcess = task.Process

// TestMigrateTwice moves the same container twice (src → dst → back),
// which exercises roadmap replay from an already-restored session and
// the movedVQPN redirect chain.
func TestMigrateTwice(t *testing.T) {
	tb := newTestbed(t, "src", "dst", "partner")
	opts := perftest.Options{Verb: rnic.OpWrite, MsgSize: 4096, QueueDepth: 8, NumQPs: 2, Messages: 4000}
	cont, cli, srv := tb.startPair(t, "src", "partner", opts)
	var mErr error
	tb.cl.Sched.Go("migrate", func() {
		cli.WaitReady()
		tb.cl.Sched.Sleep(2 * time.Millisecond)
		if _, mErr = (&Migrator{C: cont, Dst: tb.cl.Host("dst"),
			Plug: core.NewPlugin(tb.daemons["src"], tb.daemons["dst"]),
			Opts: DefaultMigrateOptions()}).Migrate(); mErr != nil {
			return
		}
		tb.cl.Sched.Sleep(2 * time.Millisecond)
		if _, mErr = (&Migrator{C: cont, Dst: tb.cl.Host("src"),
			Plug: core.NewPlugin(tb.daemons["dst"], tb.daemons["src"]),
			Opts: DefaultMigrateOptions()}).Migrate(); mErr != nil {
			return
		}
		cli.Wait()
		srv.Stop()
	})
	tb.cl.Sched.RunFor(5 * time.Minute)
	if mErr != nil {
		t.Fatalf("double migration failed: %v", mErr)
	}
	if got, want := cli.Stats.Completed, int64(4000*2); got != want {
		t.Fatalf("completed %d, want %d", got, want)
	}
	assertClean(t, "client", cli.Stats)
	if cli.Sess.Node() != "src" {
		t.Fatalf("session on %s, want src after the round trip", cli.Sess.Node())
	}
}

// TestMigrateBothEndpoints migrates the client, then the server, of the
// same communication — both sides end up on new hosts with traffic
// intact.
func TestMigrateBothEndpoints(t *testing.T) {
	tb := newTestbed(t, "a1", "a2", "b1", "b2")
	opts := perftest.Options{Verb: rnic.OpSend, MsgSize: 2048, QueueDepth: 8, NumQPs: 2, Messages: 4000, CheckOrder: true}
	srv := perftest.NewServer(tb.cl.Sched, "srv", opts)
	srvCont := NewContainer(tb.cl.Host("b1"), "server")
	srvCont.Start(func(p *task.Process) { srv.Run(p, tb.daemons["b1"]) })
	cli := perftest.NewClient(tb.cl.Sched, "cli", opts, perftest.Target{Node: "b1", Name: "srv"})
	cliCont := NewContainer(tb.cl.Host("a1"), "client")
	tb.cl.Sched.Go("start-client", func() {
		srv.WaitReady()
		cliCont.Start(func(p *task.Process) { cli.Run(p, tb.daemons["a1"]) })
	})
	var mErr error
	tb.cl.Sched.Go("migrate", func() {
		cli.WaitReady()
		tb.cl.Sched.Sleep(2 * time.Millisecond)
		if _, mErr = (&Migrator{C: cliCont, Dst: tb.cl.Host("a2"),
			Plug: core.NewPlugin(tb.daemons["a1"], tb.daemons["a2"]),
			Opts: DefaultMigrateOptions()}).Migrate(); mErr != nil {
			return
		}
		tb.cl.Sched.Sleep(2 * time.Millisecond)
		if _, mErr = (&Migrator{C: srvCont, Dst: tb.cl.Host("b2"),
			Plug: core.NewPlugin(tb.daemons["b1"], tb.daemons["b2"]),
			Opts: DefaultMigrateOptions()}).Migrate(); mErr != nil {
			return
		}
		cli.Wait()
		tb.cl.Sched.Sleep(5 * time.Millisecond)
		srv.Stop()
	})
	tb.cl.Sched.RunFor(5 * time.Minute)
	if mErr != nil {
		t.Fatalf("migrating both endpoints failed: %v", mErr)
	}
	if got, want := srv.Stats.Completed, int64(4000*2); got != want {
		t.Fatalf("server received %d, want %d", got, want)
	}
	assertClean(t, "client", cli.Stats)
	assertClean(t, "server", srv.Stats)
	if cli.Sess.Node() != "a2" || srv.Sess.Node() != "b2" {
		t.Fatalf("sessions on %s/%s, want a2/b2", cli.Sess.Node(), srv.Sess.Node())
	}
}

// TestConcurrentMigration migrates both endpoints of one communication
// at the same time (§3.1: "MigrRDMA supports concurrent migration of
// two services connected with each other").
func TestConcurrentMigration(t *testing.T) {
	tb := newTestbed(t, "a1", "a2", "b1", "b2")
	opts := perftest.Options{Verb: rnic.OpWrite, MsgSize: 4096, QueueDepth: 8, NumQPs: 2, Messages: 4000}
	srv := perftest.NewServer(tb.cl.Sched, "srv", opts)
	srvCont := NewContainer(tb.cl.Host("b1"), "server")
	srvCont.Start(func(p *task.Process) { srv.Run(p, tb.daemons["b1"]) })
	cli := perftest.NewClient(tb.cl.Sched, "cli", opts, perftest.Target{Node: "b1", Name: "srv"})
	cliCont := NewContainer(tb.cl.Host("a1"), "client")
	tb.cl.Sched.Go("start-client", func() {
		srv.WaitReady()
		cliCont.Start(func(p *task.Process) { cli.Run(p, tb.daemons["a1"]) })
	})
	var errA, errB error
	wg := 0
	tb.cl.Sched.Go("migrate-A", func() {
		cli.WaitReady()
		tb.cl.Sched.Sleep(2 * time.Millisecond)
		_, errA = (&Migrator{C: cliCont, Dst: tb.cl.Host("a2"),
			Plug: core.NewPlugin(tb.daemons["a1"], tb.daemons["a2"]),
			Opts: DefaultMigrateOptions()}).Migrate()
		wg++
	})
	tb.cl.Sched.Go("migrate-B", func() {
		cli.WaitReady()
		tb.cl.Sched.Sleep(2 * time.Millisecond)
		_, errB = (&Migrator{C: srvCont, Dst: tb.cl.Host("b2"),
			Plug: core.NewPlugin(tb.daemons["b1"], tb.daemons["b2"]),
			Opts: DefaultMigrateOptions()}).Migrate()
		wg++
	})
	tb.cl.Sched.Go("finish", func() {
		for wg < 2 {
			tb.cl.Sched.Sleep(time.Millisecond)
		}
		if errA == nil && errB == nil {
			cli.Wait()
			srv.Stop()
		}
	})
	tb.cl.Sched.RunFor(5 * time.Minute)
	if errA != nil || errB != nil {
		t.Fatalf("concurrent migration failed: A=%v B=%v", errA, errB)
	}
	if got, want := cli.Stats.Completed, int64(4000*2); got != want {
		t.Fatalf("completed %d, want %d", got, want)
	}
	assertClean(t, "client", cli.Stats)
	if cli.Sess.Node() != "a2" || srv.Sess.Node() != "b2" {
		t.Fatalf("sessions on %s/%s, want a2/b2", cli.Sess.Node(), srv.Sess.Node())
	}
}

// TestSoakRepeatedMigrations bounces a checked workload across three
// hosts with several consecutive live migrations, asserting order and
// delivery integrity end to end after each hop.
func TestSoakRepeatedMigrations(t *testing.T) {
	tb := newTestbed(t, "h1", "h2", "h3", "partner")
	opts := perftest.Options{Verb: rnic.OpSend, MsgSize: 2048, QueueDepth: 8, NumQPs: 2, Messages: 0, CheckOrder: true, PostGap: 5 * time.Microsecond}
	cont, cli, srv := tb.startPair(t, "h1", "partner", opts)
	hops := []string{"h2", "h3", "h1", "h2"}
	var mErr error
	completedAt := make([]int64, 0, len(hops))
	tb.cl.Sched.Go("migrate", func() {
		cli.WaitReady()
		cur := "h1"
		for _, dst := range hops {
			tb.cl.Sched.Sleep(2 * time.Millisecond)
			m := &Migrator{C: cont, Dst: tb.cl.Host(dst),
				Plug: core.NewPlugin(tb.daemons[cur], tb.daemons[dst]),
				Opts: DefaultMigrateOptions()}
			if _, mErr = m.Migrate(); mErr != nil {
				return
			}
			completedAt = append(completedAt, cli.Stats.Completed)
			cur = dst
		}
		tb.cl.Sched.Sleep(2 * time.Millisecond)
		cli.Stop()
		cli.Wait()
		tb.cl.Sched.Sleep(2 * time.Millisecond)
		srv.Stop()
	})
	tb.cl.Sched.RunFor(10 * time.Minute)
	if mErr != nil {
		t.Fatalf("soak migration failed: %v", mErr)
	}
	if len(completedAt) != len(hops) {
		t.Fatalf("only %d of %d hops completed", len(completedAt), len(hops))
	}
	for i := 1; i < len(completedAt); i++ {
		if completedAt[i] <= completedAt[i-1] {
			t.Errorf("no progress between hop %d and %d: %v", i-1, i, completedAt)
		}
	}
	if cli.Stats.Completed != srv.Stats.Completed {
		t.Fatalf("client %d vs server %d after %d migrations", cli.Stats.Completed, srv.Stats.Completed, len(hops))
	}
	assertClean(t, "client", cli.Stats)
	assertClean(t, "server", srv.Stats)
	if cli.Sess.Node() != "h2" {
		t.Fatalf("ended on %s, want h2", cli.Sess.Node())
	}
}

// TestMigrateMultiProcess migrates a container holding three processes:
// two RDMA senders (each with its own session and plugin, the way §4
// runs one checkpoint pipeline per root process) plus one plain compute
// process. All three must land on the destination, both traffic streams
// must survive, and the compute process's memory must move intact.
func TestMigrateMultiProcess(t *testing.T) {
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
	var plain *task.Process
	computed := 0
	tb.cl.Sched.Go("start-clients", func() {
		srvA.WaitReady()
		srvB.WaitReady()
		cont.Start(func(p *task.Process) { cliA.Run(p, tb.daemons["src"]) })
		cont.Exec("cliB", func(p *task.Process) { cliB.Run(p, tb.daemons["src"]) })
		plain = cont.Exec("compute", func(p *task.Process) {
			vma, err := p.AS.MapAnywhere(0x5000_0000, 1<<12, "scratch")
			if err != nil {
				t.Errorf("map scratch: %v", err)
				return
			}
			for i := 0; !p.Exited(); i++ {
				if err := p.AS.Write(vma.Start, []byte{byte(i)}); err != nil {
					t.Errorf("write scratch after migration: %v", err)
					return
				}
				computed++
				p.Compute(100 * time.Microsecond)
			}
		})
	})

	var rep *Report
	var mErr error
	tb.cl.Sched.Go("migrate", func() {
		cliA.WaitReady()
		cliB.WaitReady()
		tb.cl.Sched.Sleep(3 * time.Millisecond)
		m := &Migrator{C: cont, Dst: tb.cl.Host("dst"),
			Plug:       core.NewPlugin(tb.daemons["src"], tb.daemons["dst"]),
			ExtraPlugs: []*core.Plugin{core.NewPlugin(tb.daemons["src"], tb.daemons["dst"])},
			Opts:       DefaultMigrateOptions()}
		rep, mErr = m.Migrate()
		tb.cl.Sched.Sleep(3 * time.Millisecond)
		cliA.Stop()
		cliB.Stop()
		cliA.Wait()
		cliB.Wait()
		plain.Exit()
		tb.cl.Sched.Sleep(2 * time.Millisecond)
		srvA.Stop()
		srvB.Stop()
	})
	tb.cl.Sched.RunFor(30 * time.Second)
	if mErr != nil {
		t.Fatalf("migration failed: %v", mErr)
	}
	if rep == nil || rep.ServiceBlackout <= 0 {
		t.Fatalf("no report or zero blackout: %+v", rep)
	}
	if cont.Host != tb.cl.Host("dst") {
		t.Fatal("container bookkeeping did not move")
	}
	if computed < 10 {
		t.Fatalf("plain process computed only %d iterations", computed)
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
}
