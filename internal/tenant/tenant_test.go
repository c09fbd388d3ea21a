package tenant

import (
	"testing"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/codec"
	"migrrdma/internal/core"
	"migrrdma/internal/runc"
	"migrrdma/internal/task"
)

// rig is a three-host testbed: the gateway on "gw", the service
// container on "src", with "dst" available as a migration target.
type rig struct {
	cl      *cluster.Cluster
	daemons map[string]*core.Daemon
	svc     *Service
	gw      *Gateway
	svcCont *runc.Container
	gwCont  *runc.Container
}

func newRig(t testing.TB, seed int64, opts Options) *rig {
	t.Helper()
	cl := cluster.New(cluster.FastCheckpointTestbed(seed), "gw", "src", "dst")
	r := &rig{cl: cl, daemons: make(map[string]*core.Daemon)}
	for _, n := range cl.Names() {
		r.daemons[n] = core.NewDaemon(cl.Host(n))
	}
	r.svc = NewService(cl.Sched, "svc", opts)
	r.gw = NewGateway(cl.Sched, "gw", opts, Target{Node: "src", Name: "svc"})
	r.svcCont = runc.NewContainer(cl.Host("src"), "svc-cont")
	r.svcCont.Start(func(tp *task.Process) { r.svc.Run(tp, r.daemons["src"]) })
	r.gwCont = runc.NewContainer(cl.Host("gw"), "gw-cont")
	cl.Sched.Go("start-gw", func() {
		r.svc.WaitReady()
		r.gwCont.Start(func(tp *task.Process) { r.gw.Run(tp, r.daemons["gw"]) })
	})
	return r
}

func (r *rig) finish(t *testing.T) {
	t.Helper()
	r.gw.Stop()
	r.gw.Wait()
	r.svc.Stop()
}

// TestRoundTrip pumps data operations from every session and checks
// the full exactly-once ledger on both sides.
func TestRoundTrip(t *testing.T) {
	opts := Options{Sessions: 12, Lanes: 3, LaneDepth: 8}
	r := newRig(t, 31, opts)
	const perSession = 20
	r.cl.Sched.Go("driver", func() {
		r.gw.WaitReady()
		r.gw.SubmitAll(perSession)
		r.gw.Drain()
		for i := 0; i < r.gw.NumSessions(); i++ {
			s := r.gw.Session(i)
			if s.AckedOK != perSession {
				t.Errorf("session %d: %d acked, want %d", s.ID, s.AckedOK, perSession)
			}
		}
		if v := r.gw.CheckInvariants(); len(v) != 0 {
			t.Errorf("invariants: %v", v)
		}
		if got := r.svc.Stats.Acked; got != int64(opts.Sessions*perSession) {
			t.Errorf("service acked %d, want %d", got, opts.Sessions*perSession)
		}
		if r.svc.Stats.CrossTenant+r.svc.Stats.Unknown+r.svc.Stats.Bounds != 0 {
			t.Errorf("clean run rejected ops: %+v", r.svc.Stats)
		}
		r.finish(t)
	})
	r.cl.Sched.RunFor(2 * time.Second)
	if !r.gw.done {
		t.Fatal("gateway never drained")
	}
}

// TestCrossTenantProbeNAKed is the isolation negative test: a session
// claiming another tenant's rkey-namespace token must be NAKed by the
// service without touching the victim's slice, while the victim's own
// traffic is acknowledged untouched.
func TestCrossTenantProbeNAKed(t *testing.T) {
	opts := Options{Sessions: 4, Lanes: 2, LaneDepth: 8}
	r := newRig(t, 32, opts)
	r.cl.Sched.Go("driver", func() {
		r.gw.WaitReady()
		// Session 0 attacks 1 and 3; session 2 attacks 0; everyone also
		// sends legitimate traffic.
		r.gw.Probe(0, 1)
		r.gw.Probe(0, 3)
		r.gw.Probe(2, 0)
		r.gw.SubmitAll(5)
		r.gw.Drain()

		for i, want := range []int64{2, 0, 1, 0} {
			s := r.gw.Session(i)
			if s.NAKCross != want {
				t.Errorf("session %d: %d cross-tenant NAKs, want %d", i, s.NAKCross, want)
			}
			if s.AckedOK != 5 {
				t.Errorf("session %d: %d data acks, want 5", i, s.AckedOK)
			}
		}
		if r.svc.Stats.CrossTenant != 3 {
			t.Errorf("service cross-tenant rejects %d, want 3", r.svc.Stats.CrossTenant)
		}
		if v := r.gw.CheckInvariants(); len(v) != 0 {
			t.Errorf("invariants: %v", v)
		}
		r.finish(t)
	})
	r.cl.Sched.RunFor(2 * time.Second)
}

// TestCloseRequiresOwnToken pins that close is a namespace operation:
// a forged close (wrong token) is rejected and counted, and the
// session keeps serving.
func TestCloseRequiresOwnToken(t *testing.T) {
	opts := Options{Sessions: 2, Lanes: 1, LaneDepth: 4}
	r := newRig(t, 33, opts)
	r.cl.Sched.Go("driver", func() {
		r.gw.WaitReady()
		victim := r.gw.Session(1)
		var resp closeResp
		codec.MustDecode(r.gw.ep.Call("src", "tenant:svc", "close",
			codec.MustEncode(closeReq{Sess: victim.ID, Token: victim.Token ^ 0xDEAD})), &resp)
		if resp.Err == "" {
			t.Error("forged close succeeded")
		}
		if r.svc.Stats.CrossTenant != 1 {
			t.Errorf("forged close not counted: %+v", r.svc.Stats)
		}
		r.gw.Submit(1, 3)
		r.gw.Drain()
		if victim.AckedOK != 3 {
			t.Errorf("victim stopped serving after forged close: %d acks", victim.AckedOK)
		}
		// A legitimate close sticks: later traffic is NAKed unknown.
		if err := r.gw.CloseSession(1); err != nil {
			t.Fatalf("own close: %v", err)
		}
		if r.svc.SessionsOpen() != 1 {
			t.Errorf("%d sessions open, want 1", r.svc.SessionsOpen())
		}
		r.finish(t)
	})
	r.cl.Sched.RunFor(2 * time.Second)
}

// TestCreditsQueueNotDrop is the QoS negative test: a session whose
// bucket runs dry must queue its operations and drain them at the
// refill rate — every submitted operation is eventually acknowledged,
// and the stall is observable in the stats.
func TestCreditsQueueNotDrop(t *testing.T) {
	opts := Options{
		Sessions: 2, Lanes: 1, LaneDepth: 8,
		Credits: 2, RefillAmount: 1, RefillEvery: 200 * time.Microsecond,
	}
	r := newRig(t, 34, opts)
	const burst = 12
	r.cl.Sched.Go("driver", func() {
		r.gw.WaitReady()
		start := r.cl.Sched.Now()
		r.gw.Submit(0, burst)
		r.gw.Drain()
		elapsed := r.cl.Sched.Now() - start

		s := r.gw.Session(0)
		if s.AckedOK != burst {
			t.Errorf("%d of %d burst ops acknowledged (dropped work)", s.AckedOK, burst)
		}
		if s.Pending() != 0 {
			t.Errorf("%d ops still queued after drain", s.Pending())
		}
		if r.gw.Stats.CreditStalls == 0 {
			t.Error("burst never stalled on credits — QoS not exercised")
		}
		// 12 ops against 2 initial credits and 1 credit / 200µs must take
		// at least 9 refill ticks; well under that means admission leaked.
		if min := 9 * opts.RefillEvery; elapsed < min {
			t.Errorf("burst drained in %v, want >= %v (credits not enforced)", elapsed, min)
		}
		if v := r.gw.CheckInvariants(); len(v) != 0 {
			t.Errorf("invariants: %v", v)
		}
		r.finish(t)
	})
	r.cl.Sched.RunFor(2 * time.Second)
}

// TestMigrationCarriesSessions live-migrates the service container
// mid-traffic and checks every tenant session resumes exactly-once on
// the destination: the whole tenant table travels with the container.
func TestMigrationCarriesSessions(t *testing.T) {
	opts := Options{Sessions: 16, Lanes: 4, LaneDepth: 8}
	r := newRig(t, 35, opts)
	const perSession = 30
	var rep *runc.Report
	r.cl.Sched.Go("driver", func() {
		r.gw.WaitReady()
		r.gw.SubmitAll(perSession / 2)
		r.cl.Sched.Sleep(500 * time.Microsecond)
		m := &runc.Migrator{
			C:    r.svcCont,
			Dst:  r.cl.Host("dst"),
			Plug: core.NewPlugin(r.daemons["src"], r.daemons["dst"]),
			Opts: runc.DefaultMigrateOptions(),
		}
		var err error
		rep, err = m.Migrate()
		if err != nil {
			t.Errorf("migrate: %v", err)
		}
		r.gw.SubmitAll(perSession / 2)
		r.gw.Probe(3, 7) // isolation must hold on the destination too
		r.gw.Drain()
		for i := 0; i < r.gw.NumSessions(); i++ {
			s := r.gw.Session(i)
			if s.AckedOK != perSession {
				t.Errorf("session %d: %d acked across migration, want %d", s.ID, s.AckedOK, perSession)
			}
		}
		if s := r.gw.Session(3); s.NAKCross != 1 {
			t.Errorf("post-migration probe not NAKed (%d)", s.NAKCross)
		}
		if v := r.gw.CheckInvariants(); len(v) != 0 {
			t.Errorf("invariants: %v", v)
		}
		r.finish(t)
	})
	r.cl.Sched.RunFor(5 * time.Second)
	if rep == nil {
		t.Fatal("migration never completed")
	}
	if !r.gw.done {
		t.Fatal("gateway never drained")
	}
}
