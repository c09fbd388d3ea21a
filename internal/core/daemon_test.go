package core

import (
	"migrrdma/internal/oob"
	"strings"
	"testing"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/codec"
	"migrrdma/internal/rnic"
	"migrrdma/internal/task"
)

// newSessionHost builds one host with a daemon and a session holding a
// registered MR and an RTS-less QP, for handler-level tests.
func newSessionHost(t *testing.T) (*cluster.Cluster, *Daemon, *Session, *MR, *QP) {
	t.Helper()
	cl := cluster.New(cluster.Config{Seed: 5}, "h", "peer")
	d := NewDaemon(cl.Host("h"))
	NewDaemon(cl.Host("peer"))
	var s *Session
	var mr *MR
	var qp *QP
	cl.Sched.Go("setup", func() {
		p := task.New(cl.Sched, "p")
		s = NewSession(p, d)
		p.AS.Map(0x100000, 1<<16, "buf")
		pd := s.AllocPD()
		cq := s.CreateCQ(64, nil)
		var err error
		mr, err = s.RegMR(pd, 0x100000, 1<<16, rnic.AccessLocalWrite|rnic.AccessRemoteWrite)
		if err != nil {
			t.Error(err)
		}
		qp = s.CreateQP(pd, QPConfig{Type: rnic.RC, SendCQ: cq, RecvCQ: cq})
	})
	cl.Sched.RunFor(50 * time.Millisecond)
	return cl, d, s, mr, qp
}

func TestFetchRKeyHandler(t *testing.T) {
	cl, d, _, mr, qp := newSessionHost(t)
	cl.Sched.Go("test", func() {
		// A peer asks: translate this virtual rkey of the process that
		// owns this physical QPN.
		resp := d.hFetchRKey(oob.Msg{Body: codec.MustEncode(fetchRKeyReq{RQPN: qp.v.QPN(), VRKey: mr.RKey()})})
		var r fetchRKeyResp
		if err := codec.Decode(resp, &r); err != nil {
			t.Error(err)
			return
		}
		if r.Err != "" {
			t.Errorf("fetch-rkey error: %s", r.Err)
		}
		if r.Phys == mr.RKey() {
			t.Error("physical rkey equals the virtual one — no virtualization happened")
		}
		// An attacker guessing a virtual rkey the process never assigned
		// is rejected (§3.3 security note).
		resp = d.hFetchRKey(oob.Msg{Body: codec.MustEncode(fetchRKeyReq{RQPN: qp.v.QPN(), VRKey: 0x7777})})
		codec.Decode(resp, &r)
		if r.Err == "" {
			t.Error("bogus virtual rkey resolved")
		}
		// An unknown QPN (no owning process) is rejected too.
		resp = d.hFetchRKey(oob.Msg{Body: codec.MustEncode(fetchRKeyReq{RQPN: 0xABCDEF, VRKey: mr.RKey()})})
		codec.Decode(resp, &r)
		if r.Err == "" {
			t.Error("rkey fetch for unowned QPN resolved")
		}
	})
	cl.Sched.RunFor(time.Second)
}

func TestFetchQPNHandlerAndRedirect(t *testing.T) {
	cl, d, _, _, qp := newSessionHost(t)
	cl.Sched.Go("test", func() {
		resp := d.hFetchQPN(oob.Msg{Body: codec.MustEncode(fetchQPNReq{VQPN: qp.VQPN()})})
		var r fetchQPNResp
		codec.Decode(resp, &r)
		if r.Err != "" || r.Node != "h" || r.Phys != qp.v.QPN() {
			t.Errorf("fetch-qpn = %+v", r)
		}
		// Simulate the owner having migrated away: the daemon redirects.
		d.movedVQPN[0x424242] = "elsewhere"
		resp = d.hFetchQPN(oob.Msg{Body: codec.MustEncode(fetchQPNReq{VQPN: 0x424242})})
		codec.Decode(resp, &r)
		if r.Moved != "elsewhere" {
			t.Errorf("expected redirect, got %+v", r)
		}
		// Entirely unknown QPN errors.
		resp = d.hFetchQPN(oob.Msg{Body: codec.MustEncode(fetchQPNReq{VQPN: 0x99999})})
		codec.Decode(resp, &r)
		if r.Err == "" {
			t.Error("unknown virtual QPN resolved")
		}
	})
	cl.Sched.RunFor(time.Second)
}

// TestFetchQPNFollowsTwoRedirects: a process migrated a→b→c leaves a
// movedVQPN redirect on a and on b; fetchQPN follows both to the QP on
// c. Had it started on z (z→a→b→c), the third redirect is refused.
func TestFetchQPNFollowsTwoRedirects(t *testing.T) {
	cl := cluster.New(cluster.Config{Seed: 5}, "peer", "z", "a", "b", "c")
	defer cl.Close()
	peer, z := NewDaemon(cl.Host("peer")), NewDaemon(cl.Host("z"))
	a, b, c := NewDaemon(cl.Host("a")), NewDaemon(cl.Host("b")), NewDaemon(cl.Host("c"))
	var qp *QP
	cl.Sched.Go("setup", func() {
		s := NewSession(task.New(cl.Sched, "p"), c)
		pd := s.AllocPD()
		cq := s.CreateCQ(64, nil)
		qp = s.CreateQP(pd, QPConfig{Type: rnic.RC, SendCQ: cq, RecvCQ: cq})
	})
	cl.Sched.RunFor(50 * time.Millisecond)
	v := qp.VQPN()
	z.movedVQPN[v], a.movedVQPN[v], b.movedVQPN[v] = "a", "b", "c"
	cl.Sched.Go("test", func() {
		node, phys, err := peer.fetchQPN("a", v)
		if err != nil || node != "c" || phys != qp.v.QPN() {
			t.Errorf("two redirects: %s %#x %v, want c %#x", node, phys, err, qp.v.QPN())
		}
		if _, _, err := peer.fetchQPN("z", v); err == nil || !strings.Contains(err.Error(), "too many redirects") {
			t.Errorf("three redirects: %v, want too many redirects", err)
		}
	})
	cl.Sched.RunFor(time.Second)
}

func TestNSentDelivery(t *testing.T) {
	cl, d, _, _, qp := newSessionHost(t)
	cl.Sched.Go("test", func() {
		d.hNSent(oob.Msg{Body: codec.MustEncode(nsentMsg{DstQPN: qp.v.QPN(), NSent: 321})})
		if !qp.peerNSentKnown || qp.peerNSent != 321 {
			t.Errorf("nsent not delivered: known=%v val=%d", qp.peerNSentKnown, qp.peerNSent)
		}
	})
	cl.Sched.RunFor(time.Second)
}

// TestNotifyDestroysSpareOnFailure: a notification toward a destination
// that staged no restore is refused by connect-new. The spare created for
// it is in no migration record, so no abort would find it: hNotify
// itself must leave the partner's device as it found it.
func TestNotifyDestroysSpareOnFailure(t *testing.T) {
	cl, d, _, _, qp := newSessionHost(t)
	dev := cl.Host("h").Dev
	cl.Sched.Go("test", func() {
		before := dev.QPCount()
		resp := d.hNotify(oob.Msg{Body: codec.MustEncode(notifyReq{MigID: "m1", Proc: "ghost", DestNode: "peer",
			Pairs: []notifyPair{{PartnerQPN: qp.v.QPN(), VQPN: 0x100}}})})
		if want := "connect-new: no staged restore for ghost"; string(resp) != want {
			t.Errorf("notify answered %q, want %q", resp, want)
		}
		if got := dev.QPCount(); got != before {
			t.Errorf("refused notify left %d device QPs, want %d", got, before)
		}
		if c := d.Census(); c != (Census{}) {
			t.Errorf("a refused notify left %+v", c)
		}
	})
	cl.Sched.RunFor(time.Second)
}

func TestHelloAndPeerSupportsCache(t *testing.T) {
	cl := cluster.New(cluster.Config{Seed: 5}, "a", "b", "bare")
	da := NewDaemon(cl.Host("a"))
	NewDaemon(cl.Host("b"))
	// "bare" runs no daemon at all.
	cl.Sched.Go("test", func() {
		if !da.PeerSupports("b") {
			t.Error("daemon-running peer reported unsupported")
		}
		if da.PeerSupports("bare") {
			t.Error("bare peer reported as MigrRDMA-capable")
		}
		// Cached: immediate second answer without another probe.
		start := cl.Sched.Now()
		if da.PeerSupports("bare") {
			t.Error("cache flipped the answer")
		}
		if cl.Sched.Now() != start {
			t.Error("cached PeerSupports consumed time (re-probed)")
		}
	})
	cl.Sched.RunFor(5 * time.Second)
}

func TestQPNTableSharedPerDevice(t *testing.T) {
	cl, d, s, _, qp := newSessionHost(t)
	cl.Sched.Go("test", func() {
		// The library translates through the daemon's shared table.
		v, ok := d.translateQPN(qp.v.QPN())
		if !ok || v != qp.VQPN() {
			t.Errorf("translateQPN = %#x,%v", v, ok)
		}
		// Unmapping (old QP fully drained) removes the entry.
		d.unmapQPN(qp.v.QPN())
		if _, ok := d.translateQPN(qp.v.QPN()); ok {
			t.Error("unmapped QPN still translates")
		}
		_ = s
	})
	cl.Sched.RunFor(time.Second)
}
