package migmgr

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/core"
	"migrrdma/internal/metrics"
	"migrrdma/internal/perftest"
	"migrrdma/internal/rnic"
	"migrrdma/internal/runc"
	"migrrdma/internal/task"
)

// rig is a minimal in-package testbed: a cluster, one daemon per host,
// and helper state for perftest pairs. (The experiments package has a
// richer rig, but importing it here would be an import cycle —
// experiments builds on migmgr.)
type rig struct {
	cl      *cluster.Cluster
	daemons map[string]*core.Daemon
}

func newRig(seed int64, hosts ...string) *rig {
	cl := cluster.New(cluster.FastCheckpointTestbed(seed), hosts...)
	r := &rig{cl: cl, daemons: make(map[string]*core.Daemon)}
	for _, n := range hosts {
		r.daemons[n] = core.NewDaemon(cl.Host(n))
	}
	return r
}

type workload struct {
	cli  *perftest.Client
	srv  *perftest.Server
	cont *runc.Container
}

// startPair launches a perftest server on sNode and a client container
// on cNode, returning the client's container as the migration target.
func (r *rig) startPair(name, cNode, sNode string) *workload {
	opts := perftest.Options{
		Verb: rnic.OpSend, MsgSize: 2048, QueueDepth: 8, NumQPs: 2,
		Messages: 0, CheckOrder: true, PostGap: 50 * time.Microsecond,
	}
	w := &workload{
		srv: perftest.NewServer(r.cl.Sched, "srv-"+name, opts),
		cli: perftest.NewClient(r.cl.Sched, "cli-"+name, opts, perftest.Target{Node: sNode, Name: "srv-" + name}),
	}
	srvCont := runc.NewContainer(r.cl.Host(sNode), "srv-"+name+"-cont")
	srvCont.Start(func(tp *task.Process) { w.srv.Run(tp, r.daemons[sNode]) })
	w.cont = runc.NewContainer(r.cl.Host(cNode), "cli-"+name+"-cont")
	r.cl.Sched.Go("start-"+name, func() {
		w.srv.WaitReady()
		w.cont.Start(func(tp *task.Process) { w.cli.Run(tp, r.daemons[cNode]) })
	})
	return w
}

// failAt makes the cluster's listener refuse the stage events fail
// picks, by job ID and stage.
func (r *rig) failAt(fail func(id, stage string) error) {
	r.cl.Metrics.Listen(func(e metrics.Event) error {
		if e.Kind != "stage" {
			return nil
		}
		return fail(e.Mig, e.Note)
	})
}

// submit is the test-side Submit wrapper: none of these tests expect a
// conflict, so an ErrConflict here is itself a failure.
func submit(mgr *Manager, spec Spec) *Job {
	j, err := mgr.Submit(spec)
	if err != nil {
		panic(err)
	}
	return j
}

func (w *workload) stop() {
	w.cli.Stop()
	w.cli.Wait()
	w.srv.Stop()
}

// TestManagerCapAndQueueing submits four migrations under cap 2 and
// checks admission: sequential IDs, never more than two running at
// once, and a real queue wait for the jobs that had to queue.
func TestManagerCapAndQueueing(t *testing.T) {
	r := newRig(21, "a", "b", "s")
	var ws []*workload
	for i := 0; i < 4; i++ {
		ws = append(ws, r.startPair(fmt.Sprintf("p%d", i), "a", "s"))
	}
	mgr := New(r.cl, r.daemons, 2)
	ran := false
	r.cl.Sched.Go("driver", func() {
		for _, w := range ws {
			w.cli.WaitReady()
		}
		r.cl.Sched.Sleep(2 * time.Millisecond)
		for _, w := range ws {
			submit(mgr, Spec{C: w.cont, Dst: "b", Opts: runc.DefaultMigrateOptions()})
		}
		mgr.WaitAll()
		r.cl.Sched.Sleep(2 * time.Millisecond)
		for _, w := range ws {
			w.stop()
		}
		ran = true
	})
	r.cl.Sched.RunFor(time.Minute)
	if !ran {
		t.Fatal("driver did not finish")
	}

	jobs := mgr.Jobs()
	if len(jobs) != 4 {
		t.Fatalf("%d jobs, want 4", len(jobs))
	}
	for i, j := range jobs {
		want := fmt.Sprintf("m%d", i+1)
		if j.ID != want {
			t.Errorf("job %d ID = %s, want %s", i, j.ID, want)
		}
		if j.State() != Done {
			t.Errorf("%s state = %v (err %v), want done", j.ID, j.State(), j.Err)
		}
	}
	// The cap must hold at every job start: the starting job plus every
	// job already running at that instant may not exceed 2.
	for _, j := range jobs {
		running := 0
		for _, o := range jobs {
			if o.Started <= j.Started && j.Started < o.Finished {
				running++
			}
		}
		if running > 2 {
			t.Errorf("%d jobs running when %s started, cap is 2", running, j.ID)
		}
	}
	// All four were submitted together, so at least two had to queue
	// behind the first wave.
	queued := 0
	for _, j := range jobs {
		if j.QueueWait() > 0 {
			queued++
		}
	}
	if queued < 2 {
		t.Errorf("only %d jobs report a queue wait, want >= 2", queued)
	}
	snap := r.cl.Metrics.Snapshot()
	if got := snap.Sum("migmgr", "completed"); got != 4 {
		t.Errorf("completed counter = %d, want 4", got)
	}
	for _, w := range ws {
		if len(w.cli.Stats.Errors) != 0 || len(w.srv.Stats.Errors) != 0 {
			t.Errorf("workload errors: cli=%v srv=%v", w.cli.Stats.Errors, w.srv.Stats.Errors)
		}
	}
}

// TestOppositeDirections is the satellite concurrency test: two client
// sessions whose containers migrate in opposite directions between the
// same two hosts at the same time, so each host is simultaneously a
// migration source and destination.
func TestOppositeDirections(t *testing.T) {
	r := newRig(22, "x", "y", "s")
	w1 := r.startPair("fwd", "x", "s")
	w2 := r.startPair("rev", "y", "s")
	mgr := New(r.cl, r.daemons, 2)
	stages := make(map[string][]string) // by the event's migration ID
	r.failAt(func(id, stage string) error {
		stages[id] = append(stages[id], stage)
		return nil
	})
	var j1, j2 *Job
	ran := false
	r.cl.Sched.Go("driver", func() {
		w1.cli.WaitReady()
		w2.cli.WaitReady()
		r.cl.Sched.Sleep(2 * time.Millisecond)
		j1 = submit(mgr, Spec{C: w1.cont, Dst: "y", Opts: runc.DefaultMigrateOptions()})
		j2 = submit(mgr, Spec{C: w2.cont, Dst: "x", Opts: runc.DefaultMigrateOptions()})
		mgr.WaitAll()
		r.cl.Sched.Sleep(2 * time.Millisecond)
		w1.stop()
		w2.stop()
		ran = true
	})
	r.cl.Sched.RunFor(time.Minute)
	if !ran {
		t.Fatal("driver did not finish")
	}
	for _, j := range []*Job{j1, j2} {
		if j.State() != Done {
			t.Fatalf("%s state = %v (err %v)", j.ID, j.State(), j.Err)
		}
	}
	// The two migrations must genuinely overlap — that is the point.
	if j1.Finished <= j2.Started || j2.Finished <= j1.Started {
		t.Fatalf("migrations serialized: m1 [%v,%v] m2 [%v,%v]",
			j1.Started, j1.Finished, j2.Started, j2.Finished)
	}
	if n := w1.cli.Sess.Node(); n != "y" {
		t.Errorf("fwd client ended on %s, want y", n)
	}
	if n := w2.cli.Sess.Node(); n != "x" {
		t.Errorf("rev client ended on %s, want x", n)
	}
	// Every stage event of a job carries its own ID: the two overlapping
	// migrations' streams stay apart, each from predump to done.
	if len(stages) != 2 {
		t.Fatalf("stage events carry IDs %v, want exactly %s and %s", stages, j1.ID, j2.ID)
	}
	for _, j := range []*Job{j1, j2} {
		s := stages[j.ID]
		if len(s) == 0 || s[0] != "predump" || s[len(s)-1] != "done" {
			t.Errorf("%s stage events = %v, want predump … done", j.ID, s)
		}
	}
}

// TestBusyContainerConflicts is the ErrConflict regression test: a
// second Spec naming the same source container while the first is
// still active must be rejected with the typed error (it used to
// silently queue behind the first), and a resubmission after the first
// finishes must drain from the container's new home (source resolved
// at start, not submission).
func TestBusyContainerConflicts(t *testing.T) {
	r := newRig(23, "x", "y", "s")
	w := r.startPair("rt", "x", "s")
	mgr := New(r.cl, r.daemons, 2)
	var there, back *Job
	ran := false
	r.cl.Sched.Go("driver", func() {
		w.cli.WaitReady()
		r.cl.Sched.Sleep(2 * time.Millisecond)
		there = submit(mgr, Spec{C: w.cont, Dst: "y", Opts: runc.DefaultMigrateOptions()})
		if _, err := mgr.Submit(Spec{C: w.cont, Dst: "x", Opts: runc.DefaultMigrateOptions()}); err != ErrConflict {
			t.Errorf("second submit of an active container: err = %v, want ErrConflict", err)
		}
		there.Wait()
		back = submit(mgr, Spec{C: w.cont, Dst: "x", Opts: runc.DefaultMigrateOptions()})
		mgr.WaitAll()
		r.cl.Sched.Sleep(2 * time.Millisecond)
		w.stop()
		ran = true
	})
	r.cl.Sched.RunFor(time.Minute)
	if !ran {
		t.Fatal("driver did not finish")
	}
	if there.State() != Done || back.State() != Done {
		t.Fatalf("states: %v (%v), %v (%v)", there.State(), there.Err, back.State(), back.Err)
	}
	if there.Src != "x" || back.Src != "y" {
		t.Fatalf("sources = %s, %s; want x then y (resolved at start time)", there.Src, back.Src)
	}
	if n := w.cli.Sess.Node(); n != "x" {
		t.Errorf("client ended on %s, want x after the round trip", n)
	}
}

// TestSubmitUnknownDestinationFails exercises the failure path: a job
// whose destination has no daemon must finish Failed with an error, and
// must not wedge the queue.
func TestSubmitUnknownDestinationFails(t *testing.T) {
	r := newRig(24, "x")
	cont := runc.NewContainer(r.cl.Host("x"), "idle-cont")
	mgr := New(r.cl, r.daemons, 1)
	ran := false
	r.cl.Sched.Go("driver", func() {
		j := submit(mgr, Spec{C: cont, Dst: "ghost", Opts: runc.DefaultMigrateOptions()})
		j.Wait()
		if j.State() != Failed {
			t.Errorf("state = %v, want failed", j.State())
		}
		if j.Err == nil || !strings.Contains(j.Err.Error(), "ghost") {
			t.Errorf("err = %v, want mention of missing daemon", j.Err)
		}
		ran = true
	})
	r.cl.Sched.RunFor(time.Second)
	if !ran {
		t.Fatal("driver did not finish")
	}
	if got := r.cl.Metrics.Snapshot().Sum("migmgr", "failed"); got != 1 {
		t.Errorf("failed counter = %d, want 1", got)
	}
}

// TestFailedMigrationFreesSlot is the admission-slot regression test: a
// migration that aborts mid-workflow must release its slot so queued
// migrations behind it still run.
func TestFailedMigrationFreesSlot(t *testing.T) {
	r := newRig(25, "a", "b", "s")
	w1 := r.startPair("doomed", "a", "s")
	w2 := r.startPair("queued", "a", "s")
	mgr := New(r.cl, r.daemons, 1)
	var j1, j2 *Job
	r.failAt(func(id, stage string) error {
		if id == j1.ID && stage == "suspend-wbs" {
			return fmt.Errorf("boom")
		}
		return nil
	})
	ran := false
	r.cl.Sched.Go("driver", func() {
		w1.cli.WaitReady()
		w2.cli.WaitReady()
		r.cl.Sched.Sleep(2 * time.Millisecond)
		j1 = submit(mgr, Spec{C: w1.cont, Dst: "b", Opts: runc.DefaultMigrateOptions()})
		j2 = submit(mgr, Spec{C: w2.cont, Dst: "b", Opts: runc.DefaultMigrateOptions()})
		mgr.WaitAll()
		r.cl.Sched.Sleep(2 * time.Millisecond)
		w1.stop()
		w2.stop()
		ran = true
	})
	r.cl.Sched.RunFor(time.Minute)
	if !ran {
		t.Fatal("driver did not finish — a leaked slot wedges the queue")
	}
	if j1.State() != Failed {
		t.Fatalf("doomed job state = %v (err %v), want failed", j1.State(), j1.Err)
	}
	if j1.Err == nil || !strings.Contains(j1.Err.Error(), "phase suspend-wbs") {
		t.Fatalf("doomed job err = %v, want phase suspend-wbs", j1.Err)
	}
	if j2.State() != Done {
		t.Fatalf("queued job state = %v (err %v), want done", j2.State(), j2.Err)
	}
	// The aborted workload rolled back to the source and kept going.
	if n := w1.cli.Sess.Node(); n != "a" {
		t.Errorf("doomed client ended on %s, want a (rolled back)", n)
	}
	if n := w2.cli.Sess.Node(); n != "b" {
		t.Errorf("queued client ended on %s, want b", n)
	}
	snap := r.cl.Metrics.Snapshot()
	if got := snap.Sum("migmgr", "failed"); got != 1 {
		t.Errorf("failed counter = %d, want 1", got)
	}
	if got := snap.Sum("migmgr", "completed"); got != 1 {
		t.Errorf("completed counter = %d, want 1", got)
	}
	if got := snap.Sum("migr", "migrations_aborted"); got != 1 {
		t.Errorf("migrations_aborted = %d, want 1", got)
	}
}

// TestPlugForwardThroughManager submits a SERVER migration with the
// plug-and-forward cutover through the manager: the mode must thread
// from Spec.Opts down through the migrator's phase engine, buffer the
// client's blackout traffic in the destination plug, and leave no
// plug/forward residue on any daemon once the job is done.
func TestPlugForwardThroughManager(t *testing.T) {
	r := newRig(33, "src", "dst", "partner")
	opts := perftest.Options{
		Verb: rnic.OpSend, MsgSize: 2048, QueueDepth: 8, NumQPs: 2,
		Messages: 0, CheckOrder: true, PostGap: 50 * time.Microsecond,
		// Deep ring: the plug cutover resumes partners before the thaw
		// completes, so posted receives must absorb that window.
		RecvDepth: 64,
	}
	srv := perftest.NewServer(r.cl.Sched, "srv", opts)
	cli := perftest.NewClient(r.cl.Sched, "cli", opts, perftest.Target{Node: "src", Name: "srv"})
	srvCont := runc.NewContainer(r.cl.Host("src"), "server")
	srvCont.Start(func(tp *task.Process) { srv.Run(tp, r.daemons["src"]) })
	cliCont := runc.NewContainer(r.cl.Host("partner"), "client")
	r.cl.Sched.Go("start-client", func() {
		srv.WaitReady()
		cliCont.Start(func(tp *task.Process) { cli.Run(tp, r.daemons["partner"]) })
	})

	mgr := New(r.cl, r.daemons, 1)
	mopts := runc.DefaultMigrateOptions()
	mopts.Cutover = runc.CutoverPlugForward
	ran := false
	r.cl.Sched.Go("driver", func() {
		cli.WaitReady()
		r.cl.Sched.Sleep(2 * time.Millisecond)
		j := submit(mgr, Spec{C: srvCont, Dst: "dst", Opts: mopts})
		j.Wait()
		r.cl.Sched.Sleep(2 * time.Millisecond)
		cli.Stop()
		cli.Wait()
		srv.Stop()
		ran = true
	})
	r.cl.Sched.RunFor(time.Minute)
	if !ran {
		t.Fatal("driver did not finish")
	}

	jobs := mgr.Jobs()
	if len(jobs) != 1 || jobs[0].State() != Done {
		t.Fatalf("job state: %+v", jobs)
	}
	if len(cli.Stats.Errors) != 0 || len(srv.Stats.Errors) != 0 {
		t.Fatalf("workload errors: cli=%v srv=%v", cli.Stats.Errors, srv.Stats.Errors)
	}
	snap := r.cl.Metrics.Snapshot()
	if got := snap.Sum("fabric", "plug_buffered_packets"); got == 0 {
		t.Error("plug buffered nothing; the cutover never exercised the plug")
	}
	for n, d := range r.daemons {
		if c := d.Census(); c.Plugs != 0 || c.Forwards != 0 {
			t.Errorf("daemon %s still holds %d plugs and %d forwarding rules after the migration", n, c.Plugs, c.Forwards)
		}
	}
}

// TestPipelinedTransferThroughManager submits a SERVER migration with
// the pipelined page channel through the manager: the transfer mode
// must thread from Spec.Opts down through the migrator's phase engine,
// stream the image in rounds (the report carries per-round stats), and
// leave no staged chunks on the destination once the job is done.
func TestPipelinedTransferThroughManager(t *testing.T) {
	r := newRig(34, "src", "dst", "partner")
	opts := perftest.Options{
		Verb: rnic.OpSend, MsgSize: 2048, QueueDepth: 8, NumQPs: 2,
		Messages: 0, CheckOrder: true, PostGap: 50 * time.Microsecond,
		RecvDepth: 64,
	}
	srv := perftest.NewServer(r.cl.Sched, "srv", opts)
	cli := perftest.NewClient(r.cl.Sched, "cli", opts, perftest.Target{Node: "src", Name: "srv"})
	srvCont := runc.NewContainer(r.cl.Host("src"), "server")
	srvCont.Start(func(tp *task.Process) { srv.Run(tp, r.daemons["src"]) })
	cliCont := runc.NewContainer(r.cl.Host("partner"), "client")
	r.cl.Sched.Go("start-client", func() {
		srv.WaitReady()
		cliCont.Start(func(tp *task.Process) { cli.Run(tp, r.daemons["partner"]) })
	})

	mgr := New(r.cl, r.daemons, 1)
	mopts := runc.DefaultMigrateOptions()
	mopts.Transfer = runc.TransferPipelined
	ran := false
	r.cl.Sched.Go("driver", func() {
		cli.WaitReady()
		r.cl.Sched.Sleep(2 * time.Millisecond)
		j := submit(mgr, Spec{C: srvCont, Dst: "dst", Opts: mopts})
		j.Wait()
		r.cl.Sched.Sleep(2 * time.Millisecond)
		cli.Stop()
		cli.Wait()
		srv.Stop()
		ran = true
	})
	r.cl.Sched.RunFor(time.Minute)
	if !ran {
		t.Fatal("driver did not finish")
	}

	jobs := mgr.Jobs()
	if len(jobs) != 1 || jobs[0].State() != Done {
		t.Fatalf("job state: %+v", jobs)
	}
	if len(cli.Stats.Errors) != 0 || len(srv.Stats.Errors) != 0 {
		t.Fatalf("workload errors: cli=%v srv=%v", cli.Stats.Errors, srv.Stats.Errors)
	}
	rep := jobs[0].Report
	if rep == nil {
		t.Fatal("job has no report")
	}
	if len(rep.Rounds) < 2 {
		t.Errorf("report has %d streamed rounds, want >= 2 (predump + final)", len(rep.Rounds))
	}
	if rep.FinalWireBytes <= 0 || rep.WireBytes <= rep.FinalWireBytes {
		t.Errorf("wire accounting: final=%d total=%d, want 0 < final < total",
			rep.FinalWireBytes, rep.WireBytes)
	}
	snap := r.cl.Metrics.Snapshot()
	if got := snap.Sum("pagechan", "staged_chunks"); got != 0 {
		t.Errorf("%d staged chunks left on the destination after the job", got)
	}
	if got := snap.Sum("pagechan", "chunks_sent"); got == 0 {
		t.Error("no chunks went over the page channel; the transfer mode never threaded through")
	}
}
