package core

import (
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
// and a stashed partner spare (pendingNew). All three incarnations are
// live physical QPs; Close must destroy every one and scrub the
// daemon's per-QP and per-migration stashes, or the shared device leaks
// a QP per closed session — the multi-tenant fan-out multiplies that
// into thousands.

// midMigrationSession builds a session whose single QP wrapper carries
// an old incarnation and a stashed spare, the state a partner holds
// between notify-migr and the switch-over's retirement.
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

	// Partner spare stashed for an in-flight migration, with an early
	// n_sent announcement parked on its physical QPN.
	qp.pendingNew = s.ctx.CreateQP(pd.v, rnic.RC, cq.v, cq.v, nil, caps)
	qp.pendingNewMig = "m1"
	d.pendingNSent[qp.pendingNew.QPN()] = 7
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
		sparePhys := qp.pendingNew.QPN()

		s.Close()

		if got := dev.QPCount(); got != 0 {
			t.Errorf("after Close: %d device QPs leaked, want 0", got)
		}
		if _, ok := d.translateQPN(oldPhys); ok {
			t.Errorf("old incarnation %#x still in the daemon QPN table", oldPhys)
		}
		if _, ok := d.pendingNSent[sparePhys]; ok {
			t.Errorf("parked n_sent for destroyed spare %#x leaked", sparePhys)
		}
		if n := d.PendingSpares(""); n != 0 {
			t.Errorf("%d pending spares survive Close", n)
		}
	})
	cl.Sched.RunFor(time.Second)
}

// TestCloseScrubsPerMigrationStashes closes a session whose QPs sit in
// the daemon's suspendedFor/pendingResume stashes (closed between
// suspend and switch, or between a deferred switch and resume-partners)
// and checks a later abort or resume-partners cannot replay onto the
// destroyed QPs.
func TestCloseScrubsPerMigrationStashes(t *testing.T) {
	cl := cluster.New(cluster.Config{Seed: 22}, "h")
	d := NewDaemon(cl.Host("h"))
	cl.Sched.Go("test", func() {
		s, qp := midMigrationSession(t, cl, d)
		other := &Session{} // a second session's stash entries must survive
		d.suspendedFor["m1"] = []suspendedSet{{s: s, qps: []*QP{qp}}, {s: other}}
		d.pendingResume["m1"] = []suspendedSet{{s: s, qps: []*QP{qp}}}
		d.pendingResume["m2"] = []suspendedSet{{s: other}}

		s.Close()

		for _, set := range d.suspendedFor["m1"] {
			if set.s == s {
				t.Error("closed session still referenced by suspendedFor")
			}
		}
		if len(d.suspendedFor["m1"]) != 1 {
			t.Errorf("other session's suspendedFor entry dropped: %v", d.suspendedFor["m1"])
		}
		if _, ok := d.pendingResume["m1"]; ok {
			t.Error("closed session's pendingResume set survives (resume-partners would replay onto destroyed QPs)")
		}
		if len(d.pendingResume["m2"]) != 1 {
			t.Errorf("other migration's pendingResume entry dropped")
		}
	})
	cl.Sched.RunFor(time.Second)
}

// TestAbortClearsPendingResume pins hAbort's ownership of a deferred
// switch-over that never reached resume-partners: the per-migration
// pendingResume stash must not outlive the abort.
func TestAbortClearsPendingResume(t *testing.T) {
	cl := cluster.New(cluster.Config{Seed: 23}, "h")
	d := NewDaemon(cl.Host("h"))
	cl.Sched.Go("test", func() {
		p := task.New(cl.Sched, "p")
		s := NewSession(p, d)
		d.pendingResume["m9"] = []suspendedSet{{s: s}}
		if resp := d.hAbort("peer", codec.MustEncode(abortReq{MigID: "m9"})); len(resp) != 0 {
			t.Fatalf("abort failed: %s", resp)
		}
		if _, ok := d.pendingResume["m9"]; ok {
			t.Error("pendingResume entry survives abort")
		}
	})
	cl.Sched.RunFor(time.Second)
}
