package core

import (
	"migrrdma/internal/oob"
	"testing"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/codec"
	"migrrdma/internal/rnic"
	"migrrdma/internal/task"
)

// These tests pin the mid-migration teardown contract of Session.Close:
// a session that closes while a migration is in flight may still hold a
// pre-switch QP incarnation (oldV, kept until its completions drain)
// and, in a migration record, a partner spare. All three incarnations
// are live physical QPs; Close must destroy every one and take the
// session's share off every record, or the shared device leaks a QP per
// closed session — the multi-tenant fan-out multiplies that into
// thousands.

// midMigrationSession builds a session whose single QP wrapper carries
// an old incarnation and has a spare in migration m1's record, the state
// a partner holds between notify-migr and the switch-over's retirement.
func midMigrationSession(t *testing.T, cl *cluster.Cluster, d *Daemon) (*Session, *QP) {
	t.Helper()
	p := task.New(cl.Sched, "p")
	s := NewSession(p, d)
	pd := s.AllocPD()
	cq := s.CreateCQ(64, nil)
	caps := rnic.QPCaps{MaxSend: 16, MaxRecv: 16}
	qp := s.CreateQP(pd, QPConfig{Type: rnic.RC, SendCQ: cq, RecvCQ: cq, Caps: caps})

	// Old incarnation: still mapped in the daemon table, as after a
	// switch whose completions have not drained.
	qp.oldV = s.ctx.CreateQP(pd.v, rnic.RC, cq.v, cq.v, nil, caps)
	d.mapQPN(qp.oldV.QPN(), qp.vqpn, s)

	// Partner spare of an in-flight migration, with an early n_sent
	// announcement parked on its physical QPN.
	sp := spare{qp: qp, v: s.ctx.CreateQP(pd.v, rnic.RC, cq.v, cq.v, nil, caps)}
	d.record("m1").spares = []spare{sp}
	d.pendingNSent[sp.v.QPN()] = 7
	return s, qp
}

func TestCloseDestroysOldAndSpareIncarnations(t *testing.T) {
	cl := cluster.New(cluster.Config{Seed: 21}, "h")
	d := NewDaemon(cl.Host("h"))
	cl.Sched.Go("test", func() {
		s, qp := midMigrationSession(t, cl, d)
		dev := cl.Host("h").Dev
		if got := dev.QPCount(); got != 3 {
			t.Fatalf("setup: %d device QPs, want 3 (active + old + spare)", got)
		}
		oldPhys := qp.oldV.QPN()

		s.Close()

		if got := dev.QPCount(); got != 0 {
			t.Errorf("after Close: %d device QPs leaked, want 0", got)
		}
		if _, ok := d.translateQPN(oldPhys); ok {
			t.Errorf("old incarnation %#x still in the daemon QPN table", oldPhys)
		}
		// The spare, its record and the n_sent parked for it all go.
		if c := d.Census(); c != (Census{}) {
			t.Errorf("census after Close = %+v, want zero", c)
		}
	})
	cl.Sched.RunFor(time.Second)
}

// TestCloseScrubsPerMigrationStashes closes a session whose QPs sit in
// migration records' suspended and deferred sets (closed between
// suspend and switch, or between a deferred switch and resume-partners)
// and checks a later abort or resume-partners cannot replay onto the
// destroyed QPs, while other sessions' shares stay.
func TestCloseScrubsPerMigrationStashes(t *testing.T) {
	cl := cluster.New(cluster.Config{Seed: 22}, "h")
	d := NewDaemon(cl.Host("h"))
	cl.Sched.Go("test", func() {
		s, qp := midMigrationSession(t, cl, d)
		other := &Session{} // a second session's sets must survive
		m1 := d.record("m1")
		m1.suspended = []suspendedSet{{s: s, qps: []*QP{qp}}, {s: other}}
		m1.deferred = []suspendedSet{{s: s, qps: []*QP{qp}}}
		d.record("m2").deferred = []suspendedSet{{s: other}}

		s.Close()

		if len(m1.suspended) != 1 || m1.suspended[0].s != other {
			t.Errorf("m1's suspended sets after Close = %v, want only the other session's", m1.suspended)
		}
		if len(m1.deferred) != 0 || len(m1.spares) != 0 {
			t.Error("closed session's deferred set or spare survives (resume-partners would replay onto destroyed QPs)")
		}
		if d.migs["m1"] != m1 || len(d.migs["m2"].deferred) != 1 {
			t.Errorf("records holding other sessions' shares dropped: %v", d.migs)
		}
	})
	cl.Sched.RunFor(time.Second)
}

// TestAbortClearsDeferredResume pins hAbort's ownership of a deferred
// switch-over that never reached resume-partners: the migration's
// record, deferred sets and all, must not outlive the abort.
func TestAbortClearsDeferredResume(t *testing.T) {
	cl := cluster.New(cluster.Config{Seed: 23}, "h")
	d := NewDaemon(cl.Host("h"))
	cl.Sched.Go("test", func() {
		p := task.New(cl.Sched, "p")
		s := NewSession(p, d)
		d.record("m9").deferred = []suspendedSet{{s: s}}
		if resp := d.hAbort(oob.Msg{Body: codec.MustEncode(abortReq{MigID: "m9"})}); len(resp) != 0 {
			t.Fatalf("abort failed: %s", resp)
		}
		if c := d.Census(); c != (Census{}) {
			t.Errorf("census after abort = %+v, want zero", c)
		}
	})
	cl.Sched.RunFor(time.Second)
}
