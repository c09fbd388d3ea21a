package runc

import (
	"strings"
	"testing"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/core"
	"migrrdma/internal/mem"
	"migrrdma/internal/perftest"
	"migrrdma/internal/rnic"
	"migrrdma/internal/task"
	"migrrdma/internal/verbs"
)

// TestMigrateUDDatagram migrates a process holding a UD QP: peers
// address it by (node, virtual QPN); after migration the stale cache
// entry is refreshed through the moved-QPN redirect (§3.3 datagram
// case).
func TestMigrateUDDatagram(t *testing.T) {
	tb := newTestbed(t, "src", "dst", "peer")
	sched := tb.cl.Sched

	var udReady bool
	var udVQPN uint32
	received := 0
	// The migratable UD receiver.
	cont := NewContainer(tb.cl.Host("src"), "ud-recv")
	cont.Start(func(p *task.Process) {
		sess := core.NewSession(p, tb.daemons["src"])
		p.AS.Map(0x100000, 1<<16, "buf")
		pd := sess.AllocPD()
		cq := sess.CreateCQ(256, nil)
		mr, err := sess.RegMR(pd, 0x100000, 1<<16, rnic.AccessLocalWrite)
		if err != nil {
			t.Error(err)
			return
		}
		qp := sess.CreateQP(pd, core.QPConfig{Type: rnic.UD, SendCQ: cq, RecvCQ: cq, Caps: rnic.QPCaps{MaxRecv: 64}})
		qp.Modify(rnic.ModifyAttr{State: rnic.StateInit})
		qp.Modify(rnic.ModifyAttr{State: rnic.StateRTR})
		qp.Modify(rnic.ModifyAttr{State: rnic.StateRTS})
		for i := 0; i < 32; i++ {
			qp.PostRecv(rnic.RecvWR{WRID: uint64(i), SGEs: []rnic.SGE{{Addr: 0x100000 + mem.Addr(i*1024), Len: 1024, LKey: mr.LKey()}}})
		}
		udVQPN = qp.VQPN()
		udReady = true
		for received < 20 {
			cq.WaitNonEmpty()
			for _, e := range cq.Poll(16) {
				if e.Opcode == rnic.OpRecv && e.Status == rnic.WCSuccess {
					received++
				}
			}
		}
	})

	// The peer sends datagrams to (src, vqpn), before and after the
	// receiver migrates.
	sent := 0
	peerCont := NewContainer(tb.cl.Host("peer"), "ud-send")
	peerCont.Start(func(p *task.Process) {
		for !udReady {
			sched.Sleep(time.Millisecond)
		}
		sess := core.NewSession(p, tb.daemons["peer"])
		p.AS.Map(0x100000, 1<<16, "buf")
		pd := sess.AllocPD()
		cq := sess.CreateCQ(256, nil)
		mr, _ := sess.RegMR(pd, 0x100000, 1<<16, rnic.AccessLocalWrite)
		qp := sess.CreateQP(pd, core.QPConfig{Type: rnic.UD, SendCQ: cq, RecvCQ: cq})
		qp.Modify(rnic.ModifyAttr{State: rnic.StateInit})
		qp.Modify(rnic.ModifyAttr{State: rnic.StateRTR})
		qp.Modify(rnic.ModifyAttr{State: rnic.StateRTS})
		for sent < 20 {
			err := qp.PostSend(rnic.SendWR{
				WRID: uint64(sent), Opcode: rnic.OpSend, Signaled: true,
				SGEs:       []rnic.SGE{{Addr: 0x100000, Len: 256, LKey: mr.LKey()}},
				RemoteNode: "src", RemoteQPN: udVQPN,
			})
			if err != nil {
				t.Errorf("ud send: %v", err)
				return
			}
			cq.WaitNonEmpty()
			cq.Poll(16)
			sent++
			// The peer's (node, vqpn) cache goes stale mid-stream when
			// the receiver migrates; invalidate to force the redirect
			// (UD is unreliable, so a datagram sent into the blackout
			// may be lost — pace and retry at the application level,
			// as UD apps must).
			if sent == 10 {
				for tb.cl.Sched.Now() < time.Second && received < 10 {
					sched.Sleep(time.Millisecond)
				}
				sess.InvalidateRemoteCaches("src")
			}
			sched.Sleep(2 * time.Millisecond)
		}
	})

	var mErr error
	sched.Go("migrate", func() {
		for !udReady {
			sched.Sleep(time.Millisecond)
		}
		sched.Sleep(8 * time.Millisecond)
		m := &Migrator{C: cont, Dst: tb.cl.Host("dst"),
			Plug: core.NewPlugin(tb.daemons["src"], tb.daemons["dst"]),
			Opts: DefaultMigrateOptions()}
		_, mErr = m.Migrate()
	})
	tb.cl.Sched.RunFor(10 * time.Second)
	if mErr != nil {
		t.Fatalf("migration: %v", mErr)
	}
	if received < 15 {
		t.Fatalf("received only %d of %d datagrams across migration", received, sent)
	}
}

// TestHybridNonMigrRDMAPeer connects a MigrRDMA session to a plain-verbs
// peer (no daemon anywhere near it, physical values only). The §6
// negotiation must detect the peer and disable virtualization for that
// communication so one-sided ops still work.
func TestHybridNonMigrRDMAPeer(t *testing.T) {
	// One cluster with two hosts; only "mig" runs a MigrRDMA daemon.
	cl := cluster.New(cluster.Config{Seed: 77}, "mig", "raw")
	d := core.NewDaemon(cl.Host("mig"))
	done := false
	cl.Sched.Go("hybrid", func() {
		// Raw peer: plain verbs, no MigrRDMA anywhere.
		rawProc := task.New(cl.Sched, "raw")
		rawProc.AS.Map(0x100000, 1<<16, "buf")
		rawCtx := verbs.OpenDevice(cl.Host("raw").Dev, rawProc.AS)
		rawPD := rawCtx.AllocPD()
		rawCQ := rawCtx.CreateCQ(64, nil)
		rawMR, err := rawCtx.RegMR(rawPD, 0x100000, 1<<16,
			rnic.AccessLocalWrite|rnic.AccessRemoteWrite|rnic.AccessRemoteRead)
		if err != nil {
			t.Error(err)
			return
		}
		rawQP := rawCtx.CreateQP(rawPD, rnic.RC, rawCQ, rawCQ, nil, rnic.QPCaps{})

		// MigrRDMA side.
		mp := task.New(cl.Sched, "mig-proc")
		sess := core.NewSession(mp, d)
		mp.AS.Map(0x200000, 1<<16, "buf")
		pd := sess.AllocPD()
		cq := sess.CreateCQ(64, nil)
		mr, err := sess.RegMR(pd, 0x200000, 1<<16, rnic.AccessLocalWrite)
		if err != nil {
			t.Error(err)
			return
		}
		qp := sess.CreateQP(pd, core.QPConfig{Type: rnic.RC, SendCQ: cq, RecvCQ: cq})
		qp.Modify(rnic.ModifyAttr{State: rnic.StateInit})

		// Exchange: the raw peer shares its *physical* QPN and rkey; the
		// MigrRDMA side shares its physical QPN too (a raw peer cannot
		// translate virtual ones).
		if err := qp.Modify(rnic.ModifyAttr{State: rnic.StateRTR, RemoteNode: "raw", RemoteQPN: rawQP.QPN()}); err != nil {
			t.Errorf("hybrid RTR: %v", err)
			return
		}
		qp.Modify(rnic.ModifyAttr{State: rnic.StateRTS})
		if qp.Suspended() {
			t.Error("fresh QP suspended")
		}
		for _, a := range []rnic.ModifyAttr{
			{State: rnic.StateInit},
			// Before any migration the MigrRDMA side's virtual QPN
			// equals its physical QPN, which is what a raw peer needs.
			{State: rnic.StateRTR, RemoteNode: "mig", RemoteQPN: qp.VQPN()},
			{State: rnic.StateRTS},
		} {
			if err := rawQP.Modify(a); err != nil {
				t.Errorf("raw modify: %v", err)
				return
			}
		}

		// One-sided WRITE using the raw peer's PHYSICAL rkey: the
		// negotiation must pass it through untranslated.
		mp.AS.Write(0x200000, []byte("hybrid"))
		err = qp.PostSend(rnic.SendWR{
			WRID: 1, Opcode: rnic.OpWrite, Signaled: true,
			SGEs:       []rnic.SGE{{Addr: 0x200000, Len: 6, LKey: mr.LKey()}},
			RemoteAddr: 0x100000, RKey: rawMR.RKey(),
		})
		if err != nil {
			t.Errorf("hybrid write: %v", err)
			return
		}
		cq.WaitNonEmpty()
		if e := cq.Poll(4)[0]; e.Status != rnic.WCSuccess {
			t.Errorf("hybrid write status %v", e.Status)
		}
		var buf [6]byte
		rawProc.AS.Read(0x100000, buf[:])
		if string(buf[:]) != "hybrid" {
			t.Errorf("raw peer got %q", buf)
		}
		done = true
	})
	cl.Sched.RunFor(5 * time.Second)
	if !done {
		t.Fatal("hybrid exchange did not finish")
	}
}

// TestWBSTimeoutPathUnderHeavyLoss forces wait-before-stop to expire (a
// "buggy network", §3.4): in-flight WRs cannot drain, stop-and-copy
// proceeds anyway, and the leftover WRs are replayed after restoration.
// Delivery is then at-least-once (replays may duplicate data whose ACK
// was lost), so the assertion is on client completions, not server
// counts.
func TestWBSTimeoutPathUnderHeavyLoss(t *testing.T) {
	// Effectively-infinite transport retries keep the QPs alive through
	// the loss burst (rnr_retry=7 semantics), so the drain stalls
	// instead of erroring out.
	cl := cluster.New(cluster.Config{Seed: 7, NIC: rnic.Config{MaxRetries: rnic.UnlimitedRetries}}, "src", "dst", "partner")
	tb := &testbed{cl: cl, daemons: map[string]*core.Daemon{}}
	for _, n := range []string{"src", "dst", "partner"} {
		tb.daemons[n] = core.NewDaemon(cl.Host(n))
	}
	for _, d := range tb.daemons {
		d.SetWBSTimeout(2 * time.Millisecond)
	}
	// Endless traffic so the send window is in flight when suspension
	// lands.
	opts := perftest.Options{Verb: rnic.OpWrite, MsgSize: 4096, QueueDepth: 8, NumQPs: 2, Messages: 0}
	cont, cli, srv := tb.startPair(t, "src", "partner", opts)
	var rep *Report
	var mErr error
	tb.cl.Sched.Go("migrate", func() {
		cli.WaitReady()
		tb.cl.Sched.Sleep(2 * time.Millisecond)
		// Heavy RDMA-path loss stalls the drain; control stays reliable.
		tb.cl.Net.SetPortLoss("src", rnic.PortRDMA, 0.9)
		m := &Migrator{C: cont, Dst: tb.cl.Host("dst"),
			Plug: core.NewPlugin(tb.daemons["src"], tb.daemons["dst"]),
			Opts: DefaultMigrateOptions()}
		rep, mErr = m.Migrate()
		tb.cl.Net.SetPortLoss("src", rnic.PortRDMA, 0)
		tb.cl.Sched.Sleep(5 * time.Millisecond)
		cli.Stop()
		cli.Wait()
		srv.Stop()
	})
	tb.cl.Sched.RunFor(2 * time.Minute)
	if mErr != nil {
		t.Fatalf("migration: %v", mErr)
	}
	if rep == nil {
		t.Fatal("migration did not complete despite the WBS timeout path")
	}
	if !rep.WBS.TimedOut {
		for i, st := range cli.QPStates() {
			t.Logf("qp %d: %s", i, st)
		}
		t.Logf("client errors: %v", cli.Stats.Errors)
		t.Logf("completed: %d", cli.Stats.Completed)
		t.Fatalf("expected a timed-out wait-before-stop, got %+v", rep.WBS)
	}
	if rep.WBS.LeftoverSends == 0 {
		t.Fatal("timed-out WBS should report leftover sends to replay")
	}
	if len(cli.Stats.Errors) > 0 {
		t.Fatalf("client errors after timeout-path migration: %v", cli.Stats.Errors)
	}
	if cli.Stats.Completed == 0 {
		t.Fatal("client made no progress")
	}
	// The client's own accounting must fully drain: every posted WR —
	// including the replayed leftovers — eventually completed.
	for i, st := range cli.QPStates() {
		if !strings.Contains(st, "outstanding=0") {
			t.Fatalf("qp %d did not drain after replay: %s", i, st)
		}
	}
}

// TestLatencySpikeAtMigration runs a latency-mode workload across a
// live migration: the operations overlapping the blackout spike to
// roughly the blackout length, while steady-state latency stays in the
// microsecond range before and after — the per-op view of Fig. 5.
func TestLatencySpikeAtMigration(t *testing.T) {
	tb := newTestbed(t, "src", "dst", "partner")
	opts := perftest.Options{Verb: rnic.OpWrite, MsgSize: 64, NumQPs: 1, Messages: 0, LatencyMode: true,
		PostGap: 200 * time.Microsecond}
	cont, cli, srv := tb.startPair(t, "src", "partner", opts)
	var rep *Report
	var mErr error
	tb.cl.Sched.Go("migrate", func() {
		cli.WaitReady()
		tb.cl.Sched.Sleep(5 * time.Millisecond)
		m := &Migrator{C: cont, Dst: tb.cl.Host("dst"),
			Plug: core.NewPlugin(tb.daemons["src"], tb.daemons["dst"]),
			Opts: DefaultMigrateOptions()}
		rep, mErr = m.Migrate()
		tb.cl.Sched.Sleep(5 * time.Millisecond)
		cli.Stop()
		cli.Wait()
		srv.Stop()
	})
	tb.cl.Sched.RunFor(2 * time.Minute)
	if mErr != nil {
		t.Fatalf("migration: %v", mErr)
	}
	st := &cli.Stats
	if len(st.LatSamples) < 50 {
		t.Fatalf("only %d latency samples", len(st.LatSamples))
	}
	p50, max := st.LatPercentile(50), st.LatPercentile(100)
	if p50 > 100*time.Microsecond {
		t.Errorf("median latency %v — steady state should be microseconds", p50)
	}
	// The blackout-straddling op waits out the service blackout.
	if max < rep.ServiceBlackout/2 {
		t.Errorf("max latency %v does not reflect the %v blackout", max, rep.ServiceBlackout)
	}
	if max > 4*rep.ServiceBlackout {
		t.Errorf("max latency %v far exceeds the blackout %v", max, rep.ServiceBlackout)
	}
	t.Logf("latency across migration: p50=%v p99=%v max=%v (blackout %v)",
		p50, st.LatPercentile(99), max, rep.ServiceBlackout)
}

// TestMigrateDMAndMW migrates a session holding on-chip memory, a
// memory window and a completion channel (the §3.1 "all ib_verbs
// features" claim).
func TestMigrateDMAndMW(t *testing.T) {
	tb := newTestbed(t, "src", "dst", "peer")
	sched := tb.cl.Sched
	ready := false
	okWrites := 0
	var mwRKey, peerVQPN uint32
	// Peer with an MW over part of its MR.
	peerCont := NewContainer(tb.cl.Host("peer"), "peer")
	peerCont.Start(func(p *task.Process) {
		sess := core.NewSession(p, tb.daemons["peer"])
		p.AS.Map(0x100000, 1<<20, "exposed")
		pd := sess.AllocPD()
		cq := sess.CreateCQ(128, nil)
		mr, _ := sess.RegMR(pd, 0x100000, 1<<20, rnic.AccessLocalWrite|rnic.AccessRemoteWrite)
		mw, err := sess.BindMW(mr, 0x104000, 4096, rnic.AccessRemoteWrite)
		if err != nil {
			t.Error(err)
			return
		}
		qp := sess.CreateQP(pd, core.QPConfig{Type: rnic.RC, SendCQ: cq, RecvCQ: cq})
		qp.Modify(rnic.ModifyAttr{State: rnic.StateInit})
		mwRKey, peerVQPN = mw.RKey(), qp.VQPN()
		ready = true
		for appQPNShared == 0 {
			sched.Sleep(time.Millisecond)
		}
		qp.Modify(rnic.ModifyAttr{State: rnic.StateRTR, RemoteNode: "src", RemoteQPN: appQPNShared})
		qp.Modify(rnic.ModifyAttr{State: rnic.StateRTS})
	})
	appCont := NewContainer(tb.cl.Host("src"), "app")
	appCont.Start(func(p *task.Process) {
		for !ready {
			sched.Sleep(time.Millisecond)
		}
		sess := core.NewSession(p, tb.daemons["src"])
		pd := sess.AllocPD()
		ch := sess.CreateCompChannel()
		cq := sess.CreateCQ(128, ch)
		dm, err := sess.AllocDM(8192)
		if err != nil {
			t.Error(err)
			return
		}
		dmAddr := dm.Addr()
		mr, err := sess.RegMR(pd, dmAddr, 8192, rnic.AccessLocalWrite)
		if err != nil {
			t.Error(err)
			return
		}
		qp := sess.CreateQP(pd, core.QPConfig{Type: rnic.RC, SendCQ: cq, RecvCQ: cq})
		qp.Modify(rnic.ModifyAttr{State: rnic.StateInit})
		appQPNShared = qp.VQPN()
		qp.Modify(rnic.ModifyAttr{State: rnic.StateRTR, RemoteNode: "peer", RemoteQPN: peerVQPN})
		qp.Modify(rnic.ModifyAttr{State: rnic.StateRTS})
		write := func() {
			p.AS.Write(dmAddr, []byte("dmpayload"))
			cq.ReqNotify()
			if err := qp.PostSend(rnic.SendWR{WRID: 7, Opcode: rnic.OpWrite, Signaled: true,
				SGEs:       []rnic.SGE{{Addr: dmAddr, Len: 9, LKey: mr.LKey()}},
				RemoteAddr: 0x104000, RKey: mwRKey}); err != nil {
				t.Errorf("post: %v", err)
				return
			}
			got := ch.Get()
			for _, e := range got.Poll(8) {
				if e.Status == rnic.WCSuccess {
					okWrites++
				} else {
					t.Errorf("write failed: %v", e.Status)
				}
			}
		}
		write()
		for sess.Node() == "src" {
			p.Compute(300 * time.Microsecond)
		}
		if dm.Addr() != dmAddr {
			t.Errorf("DM address changed: %#x → %#x", uint64(dmAddr), uint64(dm.Addr()))
		}
		write()
	})
	var mErr error
	sched.Go("migrate", func() {
		for !ready || appQPNShared == 0 {
			sched.Sleep(time.Millisecond)
		}
		sched.Sleep(10 * time.Millisecond)
		_, mErr = (&Migrator{C: appCont, Dst: tb.cl.Host("dst"),
			Plug: core.NewPlugin(tb.daemons["src"], tb.daemons["dst"]),
			Opts: DefaultMigrateOptions()}).Migrate()
	})
	tb.cl.Sched.RunFor(time.Minute)
	if mErr != nil {
		t.Fatalf("migration: %v", mErr)
	}
	if okWrites != 2 {
		t.Fatalf("completed %d MW writes, want 2 (one per side of the migration)", okWrites)
	}
}

var appQPNShared uint32

// TestMigrateWithSRQ migrates a receiver whose QPs share one SRQ: the
// staged restore must recreate the SRQ, attach both new QPs to it, and
// replay the unconsumed shared receives (§3.4 SRQ case).
func TestMigrateWithSRQ(t *testing.T) {
	tb := newTestbed(t, "src", "dst", "peer")
	sched := tb.cl.Sched
	var ready bool
	var vqpns [2]uint32
	received := 0
	cont := NewContainer(tb.cl.Host("src"), "srq-recv")
	cont.Start(func(p *task.Process) {
		sess := core.NewSession(p, tb.daemons["src"])
		p.AS.Map(0x100000, 1<<20, "buf")
		pd := sess.AllocPD()
		cq := sess.CreateCQ(1024, nil)
		srq := sess.CreateSRQ()
		mr, _ := sess.RegMR(pd, 0x100000, 1<<20, rnic.AccessLocalWrite)
		var qps [2]*core.QP
		for i := range qps {
			qps[i] = sess.CreateQP(pd, core.QPConfig{Type: rnic.RC, SendCQ: cq, RecvCQ: cq, SRQ: srq})
			qps[i].Modify(rnic.ModifyAttr{State: rnic.StateInit})
			vqpns[i] = qps[i].VQPN()
		}
		for i := 0; i < 64; i++ {
			srq.PostRecv(rnic.RecvWR{WRID: uint64(i), SGEs: []rnic.SGE{{
				Addr: 0x100000 + mem.Addr(i*4096), Len: 4096, LKey: mr.LKey()}}})
		}
		for srqPeerQPNs[0] == 0 || srqPeerQPNs[1] == 0 {
			sched.Sleep(time.Millisecond)
		}
		for i := range qps {
			qps[i].Modify(rnic.ModifyAttr{State: rnic.StateRTR, RemoteNode: "peer", RemoteQPN: srqPeerQPNs[i]})
			qps[i].Modify(rnic.ModifyAttr{State: rnic.StateRTS})
		}
		ready = true
		for received < 40 {
			cq.WaitNonEmpty()
			for _, e := range cq.Poll(16) {
				if e.Opcode == rnic.OpRecv && e.Status == rnic.WCSuccess {
					received++
				}
			}
		}
	})
	sent := 0
	peerCont := NewContainer(tb.cl.Host("peer"), "srq-send")
	peerCont.Start(func(p *task.Process) {
		sess := core.NewSession(p, tb.daemons["peer"])
		p.AS.Map(0x100000, 1<<20, "buf")
		pd := sess.AllocPD()
		cq := sess.CreateCQ(1024, nil)
		mr, _ := sess.RegMR(pd, 0x100000, 1<<20, rnic.AccessLocalWrite)
		var qps [2]*core.QP
		for vqpns[0] == 0 || vqpns[1] == 0 {
			sched.Sleep(time.Millisecond)
		}
		for i := range qps {
			qps[i] = sess.CreateQP(pd, core.QPConfig{Type: rnic.RC, SendCQ: cq, RecvCQ: cq})
			qps[i].Modify(rnic.ModifyAttr{State: rnic.StateInit})
			srqPeerQPNs[i] = qps[i].VQPN()
		}
		for !ready {
			sched.Sleep(time.Millisecond)
		}
		for i := range qps {
			qps[i].Modify(rnic.ModifyAttr{State: rnic.StateRTR, RemoteNode: "src", RemoteQPN: vqpns[i]})
			qps[i].Modify(rnic.ModifyAttr{State: rnic.StateRTS})
		}
		for sent < 40 {
			qp := qps[sent%2]
			if err := qp.PostSend(rnic.SendWR{WRID: uint64(sent), Opcode: rnic.OpSend, Signaled: true,
				SGEs: []rnic.SGE{{Addr: 0x100000, Len: 1024, LKey: mr.LKey()}}}); err != nil {
				t.Errorf("send: %v", err)
				return
			}
			cq.WaitNonEmpty()
			cq.Poll(8)
			sent++
			sched.Sleep(2 * time.Millisecond) // span the migration
		}
	})
	var mErr error
	sched.Go("migrate", func() {
		for !ready {
			sched.Sleep(time.Millisecond)
		}
		sched.Sleep(10 * time.Millisecond)
		_, mErr = (&Migrator{C: cont, Dst: tb.cl.Host("dst"),
			Plug: core.NewPlugin(tb.daemons["src"], tb.daemons["dst"]),
			Opts: DefaultMigrateOptions()}).Migrate()
	})
	tb.cl.Sched.RunFor(time.Minute)
	if mErr != nil {
		t.Fatalf("migration: %v", mErr)
	}
	if received != 40 {
		t.Fatalf("received %d of %d across SRQ migration", received, sent)
	}
}

var srqPeerQPNs [2]uint32
