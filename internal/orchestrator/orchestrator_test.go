package orchestrator

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/core"
	"migrrdma/internal/fabric"
	"migrrdma/internal/metrics"
	"migrrdma/internal/perftest"
	"migrrdma/internal/rnic"
	"migrrdma/internal/runc"
	"migrrdma/internal/task"
)

// rig is a topology testbed: racks×perRack hosts named rRhH, one
// daemon each.
type rig struct {
	cl      *cluster.Cluster
	daemons map[string]*core.Daemon
}

func newRig(seed int64, racks, perRack int) *rig {
	cfg := cluster.FastCheckpointTestbed(seed)
	cfg.Fabric.Topology = fabric.Topology{
		Racks: racks, HostsPerRack: perRack, UplinkRate: 50e9,
	}
	var names []string
	for r := 0; r < racks; r++ {
		for h := 0; h < perRack; h++ {
			names = append(names, fmt.Sprintf("r%dh%d", r, h))
		}
	}
	cl := cluster.New(cfg, names...)
	rg := &rig{cl: cl, daemons: make(map[string]*core.Daemon)}
	for _, n := range cl.Names() {
		rg.daemons[n] = core.NewDaemon(cl.Host(n))
	}
	return rg
}

type workload struct {
	cli  *perftest.Client
	srv  *perftest.Server
	cont *runc.Container
}

// startPair launches a perftest server on sNode and a client container
// on cNode; the client container is the drain target.
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

func (w *workload) stop() {
	w.cli.Stop()
	w.cli.Wait()
	w.srv.Stop()
}

func rackSelector(rack int) func(h *cluster.Host) bool {
	return func(h *cluster.Host) bool { return h.Rack == rack }
}

func hostSelector(name string) func(h *cluster.Host) bool {
	return func(h *cluster.Host) bool { return h.Name == name }
}

// TestDrainEvacuatesRack drains all of rack 0: every registered
// container there must land on a non-rack-0 host, within MaxParallel,
// and a second drain claiming one of the same containers mid-flight
// must expand to Conflict.
func TestDrainEvacuatesRack(t *testing.T) {
	r := newRig(41, 2, 3)
	w0 := r.startPair("p0", "r0h0", "r1h2")
	w1 := r.startPair("p1", "r0h1", "r1h2")
	o := New(Config{CL: r.cl, Daemons: r.daemons, Opts: runc.DefaultMigrateOptions()})
	o.Register(w0.cont)
	o.Register(w1.cont)
	var d, overlap *Drain
	ran := false
	r.cl.Sched.Go("driver", func() {
		w0.cli.WaitReady()
		w1.cli.WaitReady()
		r.cl.Sched.Sleep(2 * time.Millisecond)
		d = o.Submit(&Drain{Selector: rackSelector(0), MaxParallel: 2, BlackoutSLO: time.Second})
		overlap = o.Submit(&Drain{Selector: hostSelector("r0h0")})
		d.Wait()
		overlap.Wait()
		r.cl.Sched.Sleep(2 * time.Millisecond)
		w0.stop()
		w1.stop()
		ran = true
	})
	r.cl.Sched.RunFor(time.Minute)
	if !ran {
		t.Fatal("driver did not finish")
	}
	if d.Accepted() != 2 || d.Conflicted() != 0 {
		t.Fatalf("drain expansion: accepted=%d conflicted=%d, want 2/0", d.Accepted(), d.Conflicted())
	}
	for _, m := range d.Migrations {
		if m.State() != Done {
			t.Fatalf("%s state = %v (err %v), want done", m.ID, m.State(), m.Err)
		}
		if r.cl.Host(m.Dst).Rack == 0 {
			t.Errorf("%s placed on %s, still in the draining rack", m.ID, m.Dst)
		}
		if m.Attempts != 1 {
			t.Errorf("%s attempts = %d, want 1", m.ID, m.Attempts)
		}
		if !m.SLOMet || m.Blackout <= 0 {
			t.Errorf("%s blackout %v under SLO 1s: SLOMet=%v", m.ID, m.Blackout, m.SLOMet)
		}
	}
	// The overlapping drain saw r0h0's container already claimed.
	if overlap.Conflicted() != 1 || overlap.Accepted() != 0 {
		t.Fatalf("overlap expansion: accepted=%d conflicted=%d, want 0/1",
			overlap.Accepted(), overlap.Conflicted())
	}
	if len(d.SLOViolations()) != 0 {
		t.Errorf("unexpected SLO violations: %v", d.SLOViolations())
	}
	// Workloads survived the drain.
	for _, w := range []*workload{w0, w1} {
		if len(w.cli.Stats.Errors) != 0 || len(w.srv.Stats.Errors) != 0 {
			t.Errorf("workload errors: cli=%v srv=%v", w.cli.Stats.Errors, w.srv.Stats.Errors)
		}
	}
	snap := r.cl.Metrics.Snapshot()
	if got := snap.Sum("orchestrator", "migrations_done"); got != 2 {
		t.Errorf("migrations_done = %d, want 2", got)
	}
	if got := snap.Sum("orchestrator", "migrations_conflicted"); got != 1 {
		t.Errorf("migrations_conflicted = %d, want 1", got)
	}
}

// TestDrainPrefersSameRack drains one host of a rack with spare
// same-rack capacity: the same-rack spare must win over equally loaded
// cross-rack hosts, keeping the move off the spine.
func TestDrainPrefersSameRack(t *testing.T) {
	r := newRig(42, 2, 3)
	w := r.startPair("p0", "r0h0", "r1h2")
	o := New(Config{CL: r.cl, Daemons: r.daemons, Opts: runc.DefaultMigrateOptions()})
	o.Register(w.cont)
	var d *Drain
	ran := false
	r.cl.Sched.Go("driver", func() {
		w.cli.WaitReady()
		r.cl.Sched.Sleep(2 * time.Millisecond)
		before0, _ := r.cl.Net.UplinkBytes(0)
		d = o.Submit(&Drain{Selector: hostSelector("r0h0")})
		d.Wait()
		after0, _ := r.cl.Net.UplinkBytes(0)
		if after0-before0 > 1<<20 {
			t.Errorf("same-rack drain pushed %d bytes over the rack 0 uplink", after0-before0)
		}
		r.cl.Sched.Sleep(2 * time.Millisecond)
		w.stop()
		ran = true
	})
	r.cl.Sched.RunFor(time.Minute)
	if !ran {
		t.Fatal("driver did not finish")
	}
	m := d.Migrations[0]
	if m.State() != Done {
		t.Fatalf("state = %v (err %v)", m.State(), m.Err)
	}
	if m.Dst != "r0h1" {
		t.Errorf("placed on %s, want the same-rack spare r0h1", m.Dst)
	}
	if w.cont.Host.Name != m.Dst {
		t.Errorf("container lives on %s, migration says %s", w.cont.Host.Name, m.Dst)
	}
}

// TestDrainRetriesWithBackoff: an attempt that aborts mid-workflow
// must roll back, wait out the exponential backoff, and retry — and
// the executor job IDs must carry the per-host prefix.
func TestDrainRetriesWithBackoff(t *testing.T) {
	r := newRig(43, 2, 2)
	w := r.startPair("p0", "r0h0", "r1h1")
	o := New(Config{CL: r.cl, Daemons: r.daemons, Opts: runc.DefaultMigrateOptions()})
	o.Register(w.cont)
	// The stream names each attempt's executor job; the listener maps the
	// job's stage events back to their Migration through it.
	attempt := 0
	var stages []string
	jobs := make(map[string]string) // executor job ID → Migration ID
	r.cl.Metrics.Listen(func(e metrics.Event) error {
		switch e.Kind {
		case "attempt":
			jobs[e.Note] = e.Mig
		case "stage":
			stages = append(stages, jobs[e.Mig]+":"+e.Note)
			if e.Note == "predump" {
				attempt++
			}
			if e.Note == "suspend-wbs" && attempt == 1 {
				return fmt.Errorf("chaos abort")
			}
		}
		return nil
	})
	var d *Drain
	ran := false
	r.cl.Sched.Go("driver", func() {
		w.cli.WaitReady()
		r.cl.Sched.Sleep(2 * time.Millisecond)
		d = o.Submit(&Drain{Selector: hostSelector("r0h0"), Retries: 2})
		d.Wait()
		r.cl.Sched.Sleep(2 * time.Millisecond)
		w.stop()
		ran = true
	})
	r.cl.Sched.RunFor(time.Minute)
	if !ran {
		t.Fatal("driver did not finish")
	}
	m := d.Migrations[0]
	if m.State() != Done {
		t.Fatalf("state = %v (err %v), want done after retry", m.State(), m.Err)
	}
	if m.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", m.Attempts)
	}
	if m.LastErr == nil || !strings.Contains(m.LastErr.Error(), "chaos abort") {
		t.Errorf("LastErr = %v, want the aborted attempt's error", m.LastErr)
	}
	if len(stages) == 0 {
		t.Fatal("the listener observed no stage events")
	}
	for _, s := range stages {
		if !strings.HasPrefix(s, m.ID+":") {
			t.Fatalf("stage event %q not bound to migration %s", s, m.ID)
		}
	}
	snap := r.cl.Metrics.Snapshot()
	if got := snap.Sum("orchestrator", "migrations_retried"); got != 1 {
		t.Errorf("migrations_retried = %d, want 1", got)
	}
	// The per-host executor's jobs carry the source-host ID prefix.
	found := false
	for _, j := range o.execs["r0h0"].Jobs() {
		if strings.HasPrefix(j.ID, "r0h0/m") {
			found = true
		}
	}
	if !found {
		t.Error("executor job IDs missing the r0h0/ prefix")
	}
}

// TestDrainAllHostsFails: a drain selecting every host leaves no
// placement candidates; its migrations must fail cleanly with the
// no-destination error rather than wedge.
func TestDrainAllHostsFails(t *testing.T) {
	r := newRig(44, 1, 3)
	w := r.startPair("p0", "r0h0", "r0h2")
	o := New(Config{CL: r.cl, Daemons: r.daemons, Opts: runc.DefaultMigrateOptions()})
	o.Register(w.cont)
	var d *Drain
	ran := false
	r.cl.Sched.Go("driver", func() {
		w.cli.WaitReady()
		r.cl.Sched.Sleep(2 * time.Millisecond)
		d = o.Submit(&Drain{Selector: func(h *cluster.Host) bool { return true }})
		d.Wait()
		r.cl.Sched.Sleep(2 * time.Millisecond)
		w.stop()
		ran = true
	})
	r.cl.Sched.RunFor(time.Minute)
	if !ran {
		t.Fatal("driver did not finish")
	}
	m := d.Migrations[0]
	if m.State() != Failed {
		t.Fatalf("state = %v, want failed", m.State())
	}
	if m.Err == nil || !strings.Contains(m.Err.Error(), "no feasible destination") {
		t.Fatalf("err = %v, want no-feasible-destination", m.Err)
	}
	if got := r.cl.Metrics.Snapshot().Sum("orchestrator", "migrations_failed"); got != 1 {
		t.Errorf("migrations_failed = %d, want 1", got)
	}
	// The workload is untouched on its original host.
	if w.cont.Host.Name != "r0h0" {
		t.Errorf("container moved to %s despite the failed drain", w.cont.Host.Name)
	}
}

// TestRetryBudgetRequeues lists one migration with its destination and
// a retry budget of two, and refuses its first two attempts at
// suspend-wbs: the orchestrator must roll each back, back off 1 then
// 2 × backoffBase, and succeed on the third attempt, each attempt a job
// of its own on the source executor, every one admitted at once. A
// listed destination marks no host as draining.
func TestRetryBudgetRequeues(t *testing.T) {
	r := newRig(26, 1, 3)
	w := r.startPair("flaky", "r0h0", "r0h2")
	o := New(Config{CL: r.cl, Daemons: r.daemons, Opts: runc.DefaultMigrateOptions()})
	attempt := 0
	r.cl.Metrics.Listen(func(e metrics.Event) error {
		if e.Kind == "stage" && e.Note == "predump" {
			attempt++
		}
		if e.Kind == "stage" && e.Note == "suspend-wbs" && attempt <= 2 {
			return fmt.Errorf("boom on attempt %d", attempt)
		}
		return nil
	})
	var d *Drain
	ran := false
	r.cl.Sched.Go("driver", func() {
		w.cli.WaitReady()
		r.cl.Sched.Sleep(2 * time.Millisecond)
		d = o.Submit(&Drain{Migrations: []*Migration{{C: w.cont, Dst: "r0h1"}}, Retries: 2})
		if len(o.draining) != 0 {
			t.Errorf("a listed migration marked hosts draining: %v", o.draining)
		}
		d.Wait()
		r.cl.Sched.Sleep(2 * time.Millisecond)
		w.stop()
		ran = true
	})
	r.cl.Sched.RunFor(time.Minute)
	if !ran {
		t.Fatal("driver did not finish")
	}
	m := d.Migrations[0]
	if m.ID != "d1/r0h0/cli-flaky-cont" {
		t.Errorf("ID = %s, want d1/r0h0/cli-flaky-cont", m.ID)
	}
	if m.State() != Done {
		t.Fatalf("state = %v (err %v), want done after retries", m.State(), m.Err)
	}
	if m.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", m.Attempts)
	}
	if m.LastErr == nil || !strings.Contains(m.LastErr.Error(), "phase suspend-wbs") {
		t.Fatalf("LastErr = %v, want the aborted attempt's error", m.LastErr)
	}
	jobs := o.execs["r0h0"].Jobs()
	if len(jobs) != 3 {
		t.Fatalf("%d executor jobs, want one per attempt", len(jobs))
	}
	for i, j := range jobs {
		if j.Spec.Dst != "r0h1" {
			t.Errorf("%s went to %s, want the listed r0h1", j.ID, j.Spec.Dst)
		}
		// Nothing else was queued on the executor: the aborted attempts'
		// runs are not admission delay.
		if j.QueueWait() != 0 {
			t.Errorf("%s QueueWait = %v, want 0", j.ID, j.QueueWait())
		}
		if i > 0 {
			want := backoffBase << (i - 1)
			if gap := j.Submitted - jobs[i-1].Finished; gap != want {
				t.Errorf("%s resubmitted %v after %s failed, want a %v backoff", j.ID, gap, jobs[i-1].ID, want)
			}
		}
	}
	if n := w.cli.Sess.Node(); n != "r0h1" {
		t.Errorf("client ended on %s, want r0h1", n)
	}
	snap := r.cl.Metrics.Snapshot()
	for _, c := range []struct {
		comp, name string
		want       int64
	}{
		{"orchestrator", "migrations_retried", 2},
		{"orchestrator", "migrations_done", 1},
		{"orchestrator", "migrations_failed", 0},
		{"migmgr", "completed", 1},
		{"migmgr", "failed", 2},
		{"migr", "migrations_aborted", 2},
	} {
		if got := snap.Sum(c.comp, c.name); got != c.want {
			t.Errorf("%s/%s = %d, want %d", c.comp, c.name, got, c.want)
		}
	}
}

// TestSlotBalanceAcrossAbortRetry pins the admission-slot accounting
// under abort+retry contention: three flaky containers on one source
// host, all in flight at once against its executor's cap of two, each
// aborting its first attempt. Every attempt must take a slot exactly
// once and give it back exactly once, so the executor never runs more
// than its cap nor goes negative (a double release on the abort path
// would free a phantom slot and over-admit the backlog), and ends with
// nothing running, queued or busy.
func TestSlotBalanceAcrossAbortRetry(t *testing.T) {
	r := newRig(28, 1, 3)
	var ws []*workload
	var listed []*Migration
	for i := 0; i < 3; i++ {
		w := r.startPair(fmt.Sprintf("f%d", i), "r0h0", "r0h2")
		ws = append(ws, w)
		listed = append(listed, &Migration{C: w.cont, Dst: "r0h1"})
	}
	o := New(Config{CL: r.cl, Daemons: r.daemons, Opts: runc.DefaultMigrateOptions()})
	minRunning, maxRunning, maxQueued := 0, 0, 0
	jobs := make(map[string]string)  // executor job ID → Migration ID
	attempts := make(map[string]int) // by Migration ID
	r.cl.Metrics.Listen(func(e metrics.Event) error {
		switch e.Kind {
		case "attempt":
			jobs[e.Note] = e.Mig
		case "stage":
			running, queued, _ := o.execs["r0h0"].Admission()
			minRunning, maxRunning = min(minRunning, running), max(maxRunning, running)
			maxQueued = max(maxQueued, queued)
			mig := jobs[e.Mig]
			if e.Note == "predump" {
				attempts[mig]++
			}
			if e.Note == "suspend-wbs" && attempts[mig] == 1 {
				return fmt.Errorf("first-attempt abort (%s)", mig)
			}
		}
		return nil
	})
	var d *Drain
	ran := false
	r.cl.Sched.Go("driver", func() {
		for _, w := range ws {
			w.cli.WaitReady()
		}
		r.cl.Sched.Sleep(2 * time.Millisecond)
		d = o.Submit(&Drain{Migrations: listed, MaxParallel: 3, Retries: 1})
		d.Wait()
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
	for _, m := range d.Migrations {
		if m.State() != Done {
			t.Errorf("%s state = %v (err %v), want done", m.ID, m.State(), m.Err)
		}
		if m.Attempts != 2 {
			t.Errorf("%s attempts = %d, want 2 (one abort, one retry)", m.ID, m.Attempts)
		}
	}
	if minRunning < 0 {
		t.Errorf("running count went negative (%d): a slot was released twice", minRunning)
	}
	if maxRunning > hostCap {
		t.Errorf("running count hit %d under cap %d: a release was double-counted as capacity", maxRunning, hostCap)
	}
	if maxRunning < hostCap || maxQueued == 0 {
		t.Errorf("at most %d running and %d queued: the executor was never contended", maxRunning, maxQueued)
	}
	for _, host := range r.cl.Names() {
		if c := o.Census(host); c != (Census{}) {
			t.Errorf("after the drain %s still holds %+v", host, c)
		}
	}
	snap := r.cl.Metrics.Snapshot()
	if got := snap.Sum("orchestrator", "migrations_retried"); got != 3 {
		t.Errorf("migrations_retried = %d, want 3", got)
	}
	if got := snap.Sum("migmgr", "completed"); got != 3 {
		t.Errorf("migmgr completed = %d, want 3", got)
	}
}
