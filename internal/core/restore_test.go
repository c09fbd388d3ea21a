package core

import (
	"strings"
	"testing"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/criu"
	"migrrdma/internal/rnic"
	"migrrdma/internal/task"
	"migrrdma/internal/verbs"
)

// ghostRestore builds a Restore target backed by a fresh (empty)
// address space, the state RestoreContextFor sees before CRIU maps
// anything.
func ghostRestore(cl *cluster.Cluster, name string) *criu.Restore {
	p := task.New(cl.Sched, name)
	return &criu.Restore{Proc: p, AS: p.AS}
}

func TestRestoreReplayMissingDependencies(t *testing.T) {
	cl := cluster.New(cluster.Config{Seed: 7}, "d")
	d := NewDaemon(cl.Host("d"))
	cl.Sched.Go("test", func() {
		cases := []struct {
			name string
			recs []RecordDTO
			want string
		}{
			{"mr-missing-pd", []RecordDTO{
				{Ev: verbs.Event{Kind: verbs.EvRegMR, ID: 10, PD: 99, Addr: 0x100000, Len: 4096}},
			}, "missing PD"},
			{"qp-missing-pd", []RecordDTO{
				{Ev: verbs.Event{Kind: verbs.EvCreateQP, ID: 20, PD: 99, QPType: rnic.RC}},
			}, "missing PD"},
			{"qp-missing-cqs", []RecordDTO{
				{Ev: verbs.Event{Kind: verbs.EvAllocPD, ID: 1}},
				{Ev: verbs.Event{Kind: verbs.EvCreateQP, ID: 20, PD: 1, SendCQ: 5, RecvCQ: 6, QPType: rnic.RC}},
			}, "missing CQs"},
		}
		for _, tc := range cases {
			st, err := d.RestoreContextFor(ghostRestore(cl, "ghost-"+tc.name), nil, &Blob{Proc: tc.name, Records: tc.recs}, "")
			if err != nil {
				t.Errorf("%s: RestoreContextFor: %v", tc.name, err)
				continue
			}
			err = st.Replay()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: Replay err = %v, want %q", tc.name, err, tc.want)
			}
		}
	})
	cl.Sched.RunFor(time.Second)
}

func TestRestoreDeferredMRResolvesOrFails(t *testing.T) {
	cl := cluster.New(cluster.Config{Seed: 8}, "d")
	d := NewDaemon(cl.Host("d"))
	cl.Sched.Go("test", func() {
		recs := []RecordDTO{
			{Ev: verbs.Event{Kind: verbs.EvAllocPD, ID: 1}},
			{Ev: verbs.Event{Kind: verbs.EvRegMR, ID: 2, PD: 1, Addr: 0x200000, Len: 4096,
				Access: rnic.AccessLocalWrite | rnic.AccessRemoteWrite}},
			{Ev: verbs.Event{Kind: verbs.EvBindMW, ID: 3, MR: 2, Addr: 0x200000, Len: 1024,
				Access: rnic.AccessRemoteWrite}},
		}

		// The MR's backing memory never shows up: the stale roadmap entry
		// must surface as an applyFinal error, not restore silently with
		// no backing pages.
		st, err := d.RestoreContextFor(ghostRestore(cl, "g1"), nil, &Blob{Proc: "p1", Records: recs}, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Replay(); err != nil {
			t.Fatalf("replay of deferrable records failed eagerly: %v", err)
		}
		if len(st.deferred) != 2 {
			t.Fatalf("deferred %d records (MR + dependent MW), want 2", len(st.deferred))
		}
		err = st.applyFinal(&Blob{Proc: "p1", Final: true})
		if err == nil || !strings.Contains(err.Error(), "unmappable") {
			t.Fatalf("applyFinal with unmappable MR: err = %v", err)
		}

		// Same roadmap, but the memory arrives (CRIU finalizes) before the
		// stop-and-copy merge: the deferred chain restores completely.
		r2 := ghostRestore(cl, "g2")
		st2, err := d.RestoreContextFor(r2, nil, &Blob{Proc: "p2", Records: recs}, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := st2.Replay(); err != nil {
			t.Fatal(err)
		}
		r2.AS.Map(0x200000, 1<<16, "late-pages")
		if err := st2.applyFinal(&Blob{Proc: "p2", Final: true}); err != nil {
			t.Fatalf("applyFinal after memory arrived: %v", err)
		}
		if st2.mrs[2] == nil || st2.mws[3] == nil {
			t.Errorf("deferred chain not restored: mr=%v mw=%v", st2.mrs[2], st2.mws[3])
		}
	})
	cl.Sched.RunFor(time.Second)
}

func TestBindRejectsUnstagedObjects(t *testing.T) {
	cl := cluster.New(cluster.Config{Seed: 9}, "a", "dst")
	da := NewDaemon(cl.Host("a"))
	dd := NewDaemon(cl.Host("dst"))
	cl.Sched.Go("test", func() {
		p := task.New(cl.Sched, "app")
		s := NewSession(p, da)
		p.AS.Map(0x100000, 1<<20, "buf")
		pd := s.AllocPD()
		cq := s.CreateCQ(64, nil)
		if _, err := s.RegMR(pd, 0x100000, 1<<16, rnic.AccessLocalWrite); err != nil {
			t.Fatal(err)
		}
		s.CreateQP(pd, QPConfig{Type: rnic.RC, SendCQ: cq, RecvCQ: cq})

		// A corrupted checkpoint: the MR's creation record is gone from
		// the roadmap, so the restore stages everything except the MR the
		// session still holds. bind must refuse the swap, not leave a
		// wrapper pointing at a source-side object.
		blob := s.Checkpoint(false)
		kept := blob.Records[:0]
		for _, rec := range blob.Records {
			if rec.Ev.Kind != verbs.EvRegMR {
				kept = append(kept, rec)
			}
		}
		blob.Records = kept
		st, err := dd.RestoreContextFor(ghostRestore(cl, "ghost"), nil, blob, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Replay(); err != nil {
			t.Fatal(err)
		}
		err = st.bind(s)
		if err == nil || !strings.Contains(err.Error(), "not staged") {
			t.Fatalf("bind with unstaged MR: err = %v", err)
		}
	})
	cl.Sched.RunFor(time.Second)
}

// restoreRig is a two-host pair with the protection domains exposed, so
// tests can re-run the bind-time key rebinding by hand.
type restoreRig struct {
	cl       *cluster.Cluster
	sa, sb   *Session
	pdB      *PD
	qpA      *QP
	cqA      *CQ
	mrA, mrB *MR
}

func newRestoreRig(t *testing.T, seed int64) *restoreRig {
	t.Helper()
	cl := cluster.New(cluster.Config{Seed: seed}, "a", "b")
	da, db := NewDaemon(cl.Host("a")), NewDaemon(cl.Host("b"))
	r := &restoreRig{cl: cl}
	cl.Sched.Go("setup", func() {
		pa, pb := task.New(cl.Sched, "pa"), task.New(cl.Sched, "pb")
		r.sa, r.sb = NewSession(pa, da), NewSession(pb, db)
		pa.AS.Map(0x100000, 1<<20, "buf")
		pb.AS.Map(0x100000, 1<<20, "buf")
		pdA := r.sa.AllocPD()
		r.pdB = r.sb.AllocPD()
		r.cqA = r.sa.CreateCQ(256, nil)
		cqB := r.sb.CreateCQ(256, nil)
		var err error
		if r.mrA, err = r.sa.RegMR(pdA, 0x100000, 1<<20, rnic.AccessLocalWrite|rnic.AccessRemoteWrite); err != nil {
			t.Error(err)
		}
		if r.mrB, err = r.sb.RegMR(r.pdB, 0x100000, 1<<20, rnic.AccessLocalWrite|rnic.AccessRemoteWrite); err != nil {
			t.Error(err)
		}
		r.qpA = r.sa.CreateQP(pdA, QPConfig{Type: rnic.RC, SendCQ: r.cqA, RecvCQ: r.cqA})
		qpB := r.sb.CreateQP(r.pdB, QPConfig{Type: rnic.RC, SendCQ: cqB, RecvCQ: cqB})
		r.qpA.Modify(rnic.ModifyAttr{State: rnic.StateInit})
		qpB.Modify(rnic.ModifyAttr{State: rnic.StateInit})
		r.qpA.Modify(rnic.ModifyAttr{State: rnic.StateRTR, RemoteNode: "b", RemoteQPN: qpB.VQPN()})
		qpB.Modify(rnic.ModifyAttr{State: rnic.StateRTR, RemoteNode: "a", RemoteQPN: r.qpA.VQPN()})
		r.qpA.Modify(rnic.ModifyAttr{State: rnic.StateRTS})
		qpB.Modify(rnic.ModifyAttr{State: rnic.StateRTS})
	})
	cl.Sched.RunFor(100 * time.Millisecond)
	return r
}

func (r *restoreRig) write(t *testing.T, id uint64) {
	t.Helper()
	err := r.qpA.PostSend(rnic.SendWR{
		WRID: id, Opcode: rnic.OpWrite, Signaled: true,
		SGEs:       []rnic.SGE{{Addr: 0x100000, Len: 512, LKey: r.mrA.LKey()}},
		RemoteAddr: 0x100000, RKey: r.mrB.RKey(),
	})
	if err != nil {
		t.Fatalf("write %d: %v", id, err)
	}
	r.cqA.WaitNonEmpty()
	for _, e := range r.cqA.Poll(4) {
		if e.Status != rnic.WCSuccess {
			t.Fatalf("write %d completed %v", id, e.Status)
		}
	}
}

// rebindMRB re-runs what Staged.bind does to B's MR when B's process is
// restored on a new device: a fresh physical registration is slid under
// the same virtual keys and the old one is reclaimed. Every remote
// cache holding the old physical rkey is stale from this point on.
func (r *restoreRig) rebindMRB(t *testing.T) uint32 {
	t.Helper()
	old := r.mrB.v
	nv, err := r.sb.ctx.RegMR(r.pdB.v, old.Addr(), old.Len(), rnic.AccessLocalWrite|rnic.AccessRemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	r.mrB.v = nv
	r.sb.lkeys.update(r.mrB.vlkey, nv.LKey())
	r.sb.rkeys.update(r.mrB.vrkey, nv.RKey())
	old.Dereg()
	return nv.RKey()
}

func TestStaleRKeyCacheAcrossRebind(t *testing.T) {
	r := newRestoreRig(t, 11)
	r.cl.Sched.Go("test", func() {
		r.write(t, 1)
		if r.sa.RKeyFetches != 1 {
			t.Fatalf("RKeyFetches = %d after first write, want 1", r.sa.RKeyFetches)
		}
		stale, err := r.sa.resolveRKey(r.qpA, r.mrB.RKey())
		if err != nil {
			t.Fatal(err)
		}
		if r.sa.RKeyFetches != 1 {
			t.Fatal("cached rkey re-fetched")
		}

		newPhys := r.rebindMRB(t)
		if newPhys == stale {
			t.Fatal("rebind produced the same physical rkey — staleness not exercised")
		}
		// Without invalidation A still resolves to the reclaimed key: the
		// stale entry survives and would be rejected by B's device.
		got, err := r.sa.resolveRKey(r.qpA, r.mrB.RKey())
		if err != nil {
			t.Fatal(err)
		}
		if got != stale {
			t.Fatalf("resolve without invalidation = %#x, want stale %#x", got, stale)
		}

		// InvalidateRemoteCaches (what hSwitch runs on partners) drops
		// both the per-QP fast path and the cache; the next resolve
		// re-fetches the live key and traffic flows again.
		r.sa.InvalidateRemoteCaches("b")
		got, err = r.sa.resolveRKey(r.qpA, r.mrB.RKey())
		if err != nil {
			t.Fatal(err)
		}
		if got != newPhys {
			t.Fatalf("post-invalidation resolve = %#x, want %#x", got, newPhys)
		}
		if r.sa.RKeyFetches != 2 {
			t.Fatalf("RKeyFetches = %d, want 2 (exactly one re-fetch)", r.sa.RKeyFetches)
		}
		r.write(t, 2)
	})
	r.cl.Sched.RunFor(5 * time.Second)
}

func TestInvalidationRacingTraffic(t *testing.T) {
	r := newRestoreRig(t, 12)
	done := false
	r.cl.Sched.Go("invalidator", func() {
		// Hammer invalidations while writes are in flight: worst-case
		// interleaving of a partner switch-over against the data path.
		for !done {
			r.sa.InvalidateRemoteCaches("b")
			r.cl.Sched.Sleep(30 * time.Microsecond)
		}
	})
	r.cl.Sched.Go("writer", func() {
		defer func() { done = true }()
		for i := 0; i < 20; i++ {
			r.write(t, uint64(i))
		}
		if r.sa.RKeyFetches < 2 {
			t.Errorf("RKeyFetches = %d; invalidation never forced a re-fetch (race not exercised)", r.sa.RKeyFetches)
		}
	})
	r.cl.Sched.RunFor(10 * time.Second)
	if !done {
		t.Fatal("writer did not finish")
	}
}
