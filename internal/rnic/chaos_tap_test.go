package rnic

import (
	"testing"
	"time"

	"migrrdma/internal/mem"
	"migrrdma/internal/metrics"
)

// TestDuplicatedSendSingleCQE duplicates every frame on both directions
// of an RC connection and asserts transparency: a duplicated SEND must
// produce exactly one receive completion (the copy takes the
// replyDuplicate path and is re-acknowledged, not re-executed), and
// duplicated ACKs must not complete anything twice.
func TestDuplicatedSendSingleCQE(t *testing.T) {
	const msgs = 5
	r := newRig(t, Config{}, func(r *rig) {
		mrA := r.a.regMR(t, 0x100000, 64<<10)
		mrB := r.b.regMR(t, 0x100000, 64<<10)
		r.net.SetDuplicate("hostA", 1.0) // every ACK to A delivered twice
		r.net.SetDuplicate("hostB", 1.0) // every SEND to B delivered twice
		for i := 0; i < msgs; i++ {
			if err := r.qpB.PostRecv(RecvWR{WRID: uint64(100 + i), SGEs: []SGE{{
				Addr: mem.Addr(0x100000 + 4096*i), Len: 4096, LKey: mrB.LKey}}}); err != nil {
				t.Error(err)
				return
			}
		}
		for i := 0; i < msgs; i++ {
			if err := r.qpA.PostSend(SendWR{WRID: uint64(i), Opcode: OpSend, Signaled: true,
				SGEs: []SGE{{Addr: 0x100000, Len: 2048, LKey: mrA.LKey}}}); err != nil {
				t.Error(err)
				return
			}
		}
		send := pollN(r.a.cq, msgs)
		recv := pollN(r.b.cq, msgs)
		for i := 0; i < msgs; i++ {
			if send[i].WRID != uint64(i) || send[i].Status != WCSuccess {
				t.Errorf("send CQE %d = %+v", i, send[i])
			}
			if recv[i].WRID != uint64(100+i) || recv[i].Status != WCSuccess {
				t.Errorf("recv CQE %d = %+v", i, recv[i])
			}
		}
		// Give the trailing duplicates time to arrive and be
		// re-acknowledged; they must not produce more completions.
		r.s.Sleep(10 * time.Millisecond)
		if n := r.a.cq.Len(); n != 0 {
			t.Errorf("%d extra send CQEs after duplicates", n)
		}
		if n := r.b.cq.Len(); n != 0 {
			t.Errorf("%d extra recv CQEs after duplicates", n)
		}
		if r.qpB.NRecvDone != msgs {
			t.Errorf("NRecvDone = %d, want %d (duplicate executed twice?)", r.qpB.NRecvDone, msgs)
		}
		if dup, _ := r.reg.Snapshot().Get("fabric/duplicated_frames{node=hostB}"); dup.Value == 0 {
			t.Error("no frames were duplicated (vacuous test)")
		}
	})
	r.s.Run()
}

// TestTapObservesLedger drives traffic with a listener on each device's
// event stream and checks the chaos-harness contract: send completions
// are reported once each, acked PSNs and responder expPSNs are strictly
// monotone, and a deregistered rkey is reported exactly once.
func TestTapObservesLedger(t *testing.T) {
	type ev struct {
		qpn, psn uint32
	}
	var (
		cqes  []CQE
		acks  []ev
		exps  []ev
		dereg []uint32
	)
	r := newRig(t, Config{}, func(r *rig) {
		mrA := r.a.regMR(t, 0x100000, 64<<10)
		mrB := r.b.regMR(t, 0x100000, 64<<10)
		r.a.dev.Metrics().Listen(func(e metrics.Event) error {
			switch e.Kind {
			case "cqe":
				cqes = append(cqes, CQE{QPN: e.QPN, WRID: e.Seq, Opcode: Opcode(e.Op), Status: WCStatus(e.Status)})
			case "ack":
				acks = append(acks, ev{e.QPN, e.PSN})
			}
			return nil
		})
		r.b.dev.Metrics().Listen(func(e metrics.Event) error {
			switch e.Kind {
			case "exp":
				exps = append(exps, ev{e.QPN, e.PSN})
			case "dereg":
				dereg = append(dereg, e.RKey)
			}
			return nil
		})
		// 10% loss both ways forces go-back-N recovery under the listeners.
		r.net.SetLoss("hostA", 0.1)
		r.net.SetLoss("hostB", 0.1)
		const msgs = 50
		for i := 0; i < msgs; i++ {
			r.qpB.PostRecv(RecvWR{WRID: uint64(i), SGEs: []SGE{{Addr: 0x100000, Len: 1024, LKey: mrB.LKey}}})
		}
		for i := 0; i < msgs; i++ {
			if err := r.qpA.PostSend(SendWR{WRID: uint64(i), Opcode: OpSend, Signaled: true,
				SGEs: []SGE{{Addr: 0x100000, Len: 1024, LKey: mrA.LKey}}}); err != nil {
				t.Error(err)
				return
			}
		}
		got := pollN(r.a.cq, msgs)
		for i, c := range got {
			if c.WRID != uint64(i) || c.Status != WCSuccess {
				t.Errorf("send CQE %d = %+v", i, c)
			}
		}
		r.net.SetLoss("hostA", 0)
		r.net.SetLoss("hostB", 0)
		r.s.Sleep(5 * time.Millisecond)
		rkey := mrB.RKey
		r.b.dev.DeregMR(mrB)
		if len(dereg) != 1 || dereg[0] != rkey {
			t.Errorf("dereg events = %v, want [%#x]", dereg, rkey)
		}
	})
	r.s.Run()
	if len(cqes) == 0 || len(acks) == 0 || len(exps) == 0 {
		t.Fatalf("listeners saw %d CQEs, %d acks, %d expPSN advances", len(cqes), len(acks), len(exps))
	}
	for i := 1; i < len(acks); i++ {
		if acks[i].qpn == acks[i-1].qpn && acks[i].psn <= acks[i-1].psn {
			t.Fatalf("acked PSN regressed under loss: %d after %d", acks[i].psn, acks[i-1].psn)
		}
	}
	for i := 1; i < len(exps); i++ {
		if exps[i].qpn == exps[i-1].qpn && exps[i].psn <= exps[i-1].psn {
			t.Fatalf("expPSN regressed under loss: %d after %d", exps[i].psn, exps[i-1].psn)
		}
	}
}
