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

// wbsRig builds two connected sessions for suspension-level tests.
type wbsRig struct {
	cl       *cluster.Cluster
	sa, sb   *Session
	qpA, qpB *QP
	cqA, cqB *CQ
	mrA, mrB *MR
}

func newWBSRig(t testing.TB) *wbsRig {
	t.Helper()
	return newWBSRigCfg(t, cluster.Config{Seed: 21})
}

func newWBSRigCfg(t testing.TB, cfg cluster.Config) *wbsRig {
	t.Helper()
	cl := cluster.New(cfg, "a", "b")
	da, db := NewDaemon(cl.Host("a")), NewDaemon(cl.Host("b"))
	r := &wbsRig{cl: cl}
	cl.Sched.Go("setup", func() {
		pa, pb := task.New(cl.Sched, "pa"), task.New(cl.Sched, "pb")
		r.sa, r.sb = NewSession(pa, da), NewSession(pb, db)
		pa.AS.Map(0x100000, 1<<20, "buf")
		pb.AS.Map(0x100000, 1<<20, "buf")
		pdA, pdB := r.sa.AllocPD(), r.sb.AllocPD()
		r.cqA, r.cqB = r.sa.CreateCQ(1024, nil), r.sb.CreateCQ(1024, nil)
		var err error
		r.mrA, err = r.sa.RegMR(pdA, 0x100000, 1<<20, rnic.AccessLocalWrite|rnic.AccessRemoteWrite)
		if err != nil {
			t.Error(err)
		}
		r.mrB, err = r.sb.RegMR(pdB, 0x100000, 1<<20, rnic.AccessLocalWrite|rnic.AccessRemoteWrite)
		if err != nil {
			t.Error(err)
		}
		r.qpA = r.sa.CreateQP(pdA, QPConfig{Type: rnic.RC, SendCQ: r.cqA, RecvCQ: r.cqA, Caps: rnic.QPCaps{MaxSend: 128, MaxRecv: 128}})
		r.qpB = r.sb.CreateQP(pdB, QPConfig{Type: rnic.RC, SendCQ: r.cqB, RecvCQ: r.cqB, Caps: rnic.QPCaps{MaxSend: 128, MaxRecv: 128}})
		r.qpA.Modify(rnic.ModifyAttr{State: rnic.StateInit})
		r.qpB.Modify(rnic.ModifyAttr{State: rnic.StateInit})
		r.qpA.Modify(rnic.ModifyAttr{State: rnic.StateRTR, RemoteNode: "b", RemoteQPN: r.qpB.VQPN()})
		r.qpB.Modify(rnic.ModifyAttr{State: rnic.StateRTR, RemoteNode: "a", RemoteQPN: r.qpA.VQPN()})
		r.qpA.Modify(rnic.ModifyAttr{State: rnic.StateRTS})
		r.qpB.Modify(rnic.ModifyAttr{State: rnic.StateRTS})
	})
	cl.Sched.RunFor(100 * time.Millisecond)
	return r
}

func (r *wbsRig) write(id uint64) error {
	return r.qpA.PostSend(rnic.SendWR{
		WRID: id, Opcode: rnic.OpWrite, Signaled: true,
		SGEs:       []rnic.SGE{{Addr: 0x100000, Len: 1024, LKey: r.mrA.LKey()}},
		RemoteAddr: 0x100000, RKey: r.mrB.RKey(),
	})
}

func TestSuspensionInterceptsPosts(t *testing.T) {
	r := newWBSRig(t)
	r.cl.Sched.Go("test", func() {
		qps := r.sa.SuspendAll()
		if !r.qpA.Suspended() {
			t.Error("QP not suspended")
		}
		// Posts during suspension succeed from the app's view but stay
		// off the wire (§3.4 preserves RDMA's asynchronous semantics).
		for i := 0; i < 5; i++ {
			if err := r.write(uint64(i)); err != nil {
				t.Errorf("intercepted post returned error: %v", err)
			}
		}
		if r.qpA.Outstanding() != 0 {
			t.Errorf("intercepted posts reached the NIC: outstanding=%d", r.qpA.Outstanding())
		}
		if n := r.qpA.intercepted.Len(); n != 5 {
			t.Errorf("intercepted=%d, want 5", n)
		}
		r.cl.Sched.Sleep(5 * time.Millisecond)
		if r.cqA.Len() != 0 {
			t.Error("completions appeared for intercepted WRs")
		}
		// Resume: the buffered WRs go on the wire and complete.
		if err := r.sa.Resume(qps); err != nil {
			t.Errorf("resume: %v", err)
		}
		got := 0
		for got < 5 {
			r.cqA.WaitNonEmpty()
			got += len(r.cqA.Poll(16))
		}
	})
	r.cl.Sched.RunFor(5 * time.Second)
}

func TestWBSDrainsAndPreservesCompletions(t *testing.T) {
	r := newWBSRig(t)
	r.cl.Sched.Go("test", func() {
		// Put 20 WRs in flight, then immediately suspend + WBS.
		for i := 0; i < 20; i++ {
			if err := r.write(uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		qps := r.sa.SuspendAll()
		res := r.sa.WaitBeforeStop(qps, defaultWBSTimeout)
		if res.TimedOut {
			t.Fatal("WBS timed out on a healthy wire")
		}
		if res.InflightBytes != 20*1024 {
			t.Errorf("inflight = %d, want %d", res.InflightBytes, 20*1024)
		}
		if r.qpA.Outstanding() != 0 {
			t.Errorf("outstanding=%d after WBS", r.qpA.Outstanding())
		}
		// The completions were harvested into the fake CQ, in order.
		if len(r.cqA.fake) != 20 {
			t.Fatalf("fake CQ has %d entries, want 20", len(r.cqA.fake))
		}
		for i, e := range r.cqA.Poll(32) {
			if e.WRID != uint64(i) {
				t.Fatalf("fake CQ out of order at %d: wrid %d", i, e.WRID)
			}
			if e.QPN != r.qpA.VQPN() {
				t.Fatalf("fake CQE carries untranslated QPN %#x", e.QPN)
			}
		}
	})
	r.cl.Sched.RunFor(5 * time.Second)
}

func TestWBSTwoSidedNSentExchange(t *testing.T) {
	r := newWBSRig(t)
	r.cl.Sched.Go("test", func() {
		// B posts receives; A sends two-sided traffic.
		for i := 0; i < 8; i++ {
			r.qpB.PostRecv(rnic.RecvWR{WRID: uint64(100 + i),
				SGEs: []rnic.SGE{{Addr: 0x100000, Len: 4096, LKey: r.mrB.LKey()}}})
		}
		for i := 0; i < 8; i++ {
			r.qpA.PostSend(rnic.SendWR{WRID: uint64(i), Opcode: rnic.OpSend, Signaled: true,
				SGEs: []rnic.SGE{{Addr: 0x100000, Len: 512, LKey: r.mrA.LKey()}}})
		}
		// Let the deliveries land so B has received traffic (n_recv > 0):
		// its WBS must then wait for A's n_sent announcement before
		// terminating — the §3.4 handshake. (When n_recv is still zero a
		// receiver may finish WBS immediately; that race is benign
		// because the sender's own WBS gates the switch-over.)
		r.cl.Sched.Sleep(2 * time.Millisecond)
		qpsB := r.sb.SuspendAll()
		done := 0
		r.cl.Sched.Go("wbs-a", func() {
			// A's WBS (and its n_sent announcement) starts a little
			// later; B must block on the handshake until it lands.
			r.cl.Sched.Sleep(500 * time.Microsecond)
			qpsA := r.sa.SuspendAll()
			if res := r.sa.WaitBeforeStop(qpsA, defaultWBSTimeout); res.TimedOut {
				t.Error("A timed out")
			}
			done++
		})
		start := r.cl.Sched.Now()
		r.cl.Sched.Go("wbs-b", func() {
			res := r.sb.WaitBeforeStop(qpsB, defaultWBSTimeout)
			if res.TimedOut {
				t.Error("B timed out")
			}
			// B terminated only after A's announcement arrived.
			if r.cl.Sched.Now()-start < 500*time.Microsecond {
				t.Error("B finished before the n_sent announcement")
			}
			done++
		})
		for done < 2 {
			r.cl.Sched.Sleep(time.Millisecond)
		}
		// All 8 receives completed on B, preserved in its fake CQ.
		if len(r.cqB.fake) != 8 {
			t.Errorf("B fake CQ has %d, want 8", len(r.cqB.fake))
		}
	})
	r.cl.Sched.RunFor(10 * time.Second)
}

func TestWBSTimeoutReplayNoDoubleCount(t *testing.T) {
	// §3.4 timeout path: wait-before-stop gives up across a partition,
	// leaving WRs in the SQ window. If their original completions land
	// before Resume replays them, Resume must retire them first — a WR
	// observed via the fake-CQ sweep AND via its replay would complete
	// twice.
	r := newWBSRigCfg(t, cluster.Config{
		Seed: 23,
		// Keep the QP retrying through the whole partition instead of
		// going to error state.
		NIC: rnic.Config{MaxRetries: 1000},
	})
	done := false
	r.cl.Sched.Go("test", func() {
		defer func() { done = true }()
		// Warm the rkey cache first: the initial one-sided post fetches
		// the peer's rkey out-of-band, which would block on the partition.
		if err := r.write(100); err != nil {
			t.Fatal(err)
		}
		r.cqA.WaitNonEmpty()
		r.cqA.Poll(4)

		r.cl.Net.SetPartitioned("b", true)
		const wrs = 10
		for i := 0; i < wrs; i++ {
			if err := r.write(uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		qps := r.sa.SuspendAll()
		res := r.sa.WaitBeforeStop(qps, 5*time.Millisecond)
		if !res.TimedOut {
			t.Fatal("WBS finished across a partition")
		}
		if res.LeftoverSends != wrs {
			t.Fatalf("leftover = %d, want %d", res.LeftoverSends, wrs)
		}
		// Heal. The NIC's own retransmission now completes the original
		// posts; the completions sit in the real CQ while the library
		// still holds the WRs as leftovers.
		r.cl.Net.SetPartitioned("b", false)
		r.cl.Sched.Sleep(100 * time.Millisecond)
		if err := r.sa.Resume(qps); err != nil {
			t.Fatal(err)
		}
		if r.qpA.Outstanding() != 0 {
			t.Errorf("resume replayed %d already-completed WRs", r.qpA.Outstanding())
		}
		r.cl.Sched.Sleep(100 * time.Millisecond)
		seen := make(map[uint64]int)
		for _, e := range r.cqA.Poll(1024) {
			if e.Status != rnic.WCSuccess {
				t.Errorf("WR %d status %v", e.WRID, e.Status)
			}
			seen[e.WRID]++
		}
		if len(seen) != wrs {
			t.Fatalf("distinct completions = %d, want %d (%v)", len(seen), wrs, seen)
		}
		for id, n := range seen {
			if n != 1 {
				t.Errorf("WR %d completed %d times", id, n)
			}
		}
	})
	r.cl.Sched.RunFor(30 * time.Second)
	if !done {
		t.Fatal("test proc never finished (parked at a blocking call)")
	}
}

// TestWBSTimeoutAloneIsHonoured: a timeout is all wait-before-stop
// takes. Across a partition the wait ends at that bound, within one
// poll interval, both where the migrated service calls WaitBeforeStop
// and on a partner whose daemon was given it with SetWBSTimeout
// (hSuspendFor runs the partner side).
func TestWBSTimeoutAloneIsHonoured(t *testing.T) {
	const timeout = time.Millisecond
	for _, side := range []string{"service", "partner"} {
		t.Run(side, func(t *testing.T) {
			r := newWBSRig(t)
			done := false
			r.cl.Sched.Go("test", func() {
				defer func() { done = true }()
				if err := r.write(100); err != nil { // warm the rkey cache
					t.Fatal(err)
				}
				r.cqA.WaitNonEmpty()
				r.cqA.Poll(4)
				r.cl.Net.SetPartitioned("b", true)
				for i := 0; i < 4; i++ {
					if err := r.write(uint64(i)); err != nil {
						t.Fatal(err)
					}
				}
				var res WBSResult
				if side == "service" {
					res = r.sa.WaitBeforeStop(r.sa.SuspendAll(), timeout)
				} else {
					r.sa.daemon.SetWBSTimeout(timeout)
					var resp suspendForResp
					req := suspendForReq{MigID: "m", SrcNode: "b", PartnerQPNs: []uint32{r.qpA.v.QPN()}}
					if err := codec.Decode(r.sa.daemon.hSuspendFor(oob.Msg{Body: codec.MustEncode(req)}), &resp); err != nil {
						t.Fatal(err)
					}
					res = WBSResult{Elapsed: time.Duration(resp.ElapsedNS), TimedOut: resp.TimedOut}
				}
				if !res.TimedOut || res.Elapsed < timeout || res.Elapsed > timeout+wbsPollInterval {
					t.Errorf("timed out %v after %v, want a timeout within %v of %v",
						res.TimedOut, res.Elapsed, wbsPollInterval, timeout)
				}
			})
			r.cl.Sched.RunFor(time.Second)
			if !done {
				t.Fatal("test proc never finished")
			}
		})
	}
}

func TestStaleCQESuppressed(t *testing.T) {
	// A late completion from a pre-switch QP incarnation whose WR was
	// already replayed must be dropped, once; recvs and unknown WRIDs
	// pass through.
	r := newWBSRig(t)
	r.cl.Sched.Go("test", func() {
		r.sa.staleWRIDs[0x42] = map[uint64]bool{7: true}
		if !r.sa.staleCQE(rnic.CQE{QPN: 0x42, WRID: 7, Opcode: rnic.OpWrite}) {
			t.Error("stale CQE not suppressed")
		}
		if r.sa.staleCQE(rnic.CQE{QPN: 0x42, WRID: 7, Opcode: rnic.OpWrite}) {
			t.Error("suppression must be one-shot")
		}
		r.sa.staleWRIDs[0x43] = map[uint64]bool{8: true}
		if r.sa.staleCQE(rnic.CQE{QPN: 0x43, WRID: 8, Opcode: rnic.OpRecv}) {
			t.Error("receive completions must never be suppressed")
		}
		if r.sa.staleCQE(rnic.CQE{QPN: 0x99, WRID: 8, Opcode: rnic.OpWrite}) {
			t.Error("unknown QPN suppressed")
		}
		if got := r.sa.mStaleDropped.Value(); got != 1 {
			t.Errorf("stale_cqes_dropped = %d, want 1", got)
		}
	})
	r.cl.Sched.RunFor(time.Second)
}

func TestSuspendByPhysIsSelective(t *testing.T) {
	// A partner suspends only the QPs it was told serve the migration
	// (toward its source); QPs to other nodes keep flowing (§3.4).
	cl := cluster.New(cluster.Config{Seed: 22}, "p", "src", "other")
	dp, ds, do := NewDaemon(cl.Host("p")), NewDaemon(cl.Host("src")), NewDaemon(cl.Host("other"))
	cl.Sched.Go("test", func() {
		pp := task.New(cl.Sched, "pp")
		sp := NewSession(pp, dp)
		pp.AS.Map(0x100000, 1<<20, "buf")
		pd := sp.AllocPD()
		cq := sp.CreateCQ(256, nil)
		mr, _ := sp.RegMR(pd, 0x100000, 1<<20, rnic.AccessLocalWrite|rnic.AccessRemoteWrite)
		mkPeer := func(d *Daemon, node string) (*QP, *MR) {
			rp := task.New(cl.Sched, "peer-"+node)
			rs := NewSession(rp, d)
			rp.AS.Map(0x100000, 1<<20, "buf")
			rpd := rs.AllocPD()
			rcq := rs.CreateCQ(256, nil)
			rmr, _ := rs.RegMR(rpd, 0x100000, 1<<20, rnic.AccessLocalWrite|rnic.AccessRemoteWrite)
			rqp := rs.CreateQP(rpd, QPConfig{Type: rnic.RC, SendCQ: rcq, RecvCQ: rcq})
			rqp.Modify(rnic.ModifyAttr{State: rnic.StateInit})
			lqp := sp.CreateQP(pd, QPConfig{Type: rnic.RC, SendCQ: cq, RecvCQ: cq})
			lqp.Modify(rnic.ModifyAttr{State: rnic.StateInit})
			lqp.Modify(rnic.ModifyAttr{State: rnic.StateRTR, RemoteNode: node, RemoteQPN: rqp.VQPN()})
			lqp.Modify(rnic.ModifyAttr{State: rnic.StateRTS})
			rqp.Modify(rnic.ModifyAttr{State: rnic.StateRTR, RemoteNode: "p", RemoteQPN: lqp.VQPN()})
			rqp.Modify(rnic.ModifyAttr{State: rnic.StateRTS})
			return lqp, rmr
		}
		toSrc, _ := mkPeer(ds, "src")
		toOther, otherMR := mkPeer(do, "other")

		suspended := sp.SuspendByPhys([]uint32{toSrc.v.QPN()})
		if len(suspended) != 1 || suspended[0] != toSrc {
			t.Errorf("SuspendByPhys picked %d QPs", len(suspended))
		}
		if !toSrc.Suspended() || toOther.Suspended() {
			t.Error("selective suspension wrong")
		}
		// The unsuspended QP still carries traffic.
		err := toOther.PostSend(rnic.SendWR{WRID: 1, Opcode: rnic.OpWrite, Signaled: true,
			SGEs:       []rnic.SGE{{Addr: 0x100000, Len: 64, LKey: mr.LKey()}},
			RemoteAddr: 0x100000, RKey: otherMR.RKey()})
		if err != nil {
			t.Fatal(err)
		}
		cq.WaitNonEmpty()
		if e := cq.Poll(4)[0]; e.Status != rnic.WCSuccess {
			t.Errorf("traffic to other node failed: %v", e.Status)
		}
	})
	cl.Sched.RunFor(5 * time.Second)
}
