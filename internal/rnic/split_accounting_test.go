package rnic

import (
	"bytes"
	"testing"

	"migrrdma/internal/metrics"
)

// TestSwitchDuplicatesDoNotCountAsRetransmits is the regression test
// for the metric conflation fix: before the split, a switch-duplicated
// mid-message fragment restarted the responder's reassembly, turned the
// discarded tail into an apparent sequence gap, and the resulting
// go-back-N round inflated the retransmission count — polluting any
// comparison between cutover modes. With every inbound frame duplicated
// and nothing lost, the transport must deliver exactly once with zero
// genuine retransmissions, and the redundant copies must land in
// duplicated_packets instead.
func TestSwitchDuplicatesDoNotCountAsRetransmits(t *testing.T) {
	const msgLen = 10000 // 3 fragments at the default 4096 MTU
	var got []byte
	r := newRig(t, Config{}, func(r *rig) {
		r.net.SetDuplicate("hostB", 1.0)
		mrA := r.a.regMR(t, 0x100000, 32768)
		mrB := r.b.regMR(t, 0x100000, 32768)
		msg := make([]byte, msgLen)
		for i := range msg {
			msg[i] = byte(i * 7)
		}
		r.a.as.Write(0x100000, msg)
		r.qpB.PostRecv(RecvWR{WRID: 9, SGEs: []SGE{{Addr: 0x100000, Len: 32768, LKey: mrB.LKey}}})
		if err := r.qpA.PostSend(SendWR{WRID: 1, Opcode: OpSend, Signaled: true,
			SGEs: []SGE{{Addr: 0x100000, Len: msgLen, LKey: mrA.LKey}}}); err != nil {
			t.Error(err)
			return
		}
		sc := pollN(r.a.cq, 1)[0]
		if sc.Status != WCSuccess {
			t.Errorf("send CQE = %+v", sc)
		}
		rcs := pollN(r.b.cq, 1)
		if rcs[0].Status != WCSuccess || int(rcs[0].ByteLen) != msgLen {
			t.Errorf("recv CQE = %+v", rcs[0])
		}
		// Exactly-once: no second receive completion may ever appear.
		if extra := r.b.cq.Poll(8); len(extra) != 0 {
			t.Errorf("message delivered twice: extra CQEs %+v", extra)
		}
		got = make([]byte, msgLen)
		r.b.as.Read(0x100000, got)
		if want := msg; !bytes.Equal(got, want) {
			t.Error("payload corrupted across duplicated fragments")
		}
	})
	r.s.Run()

	if retx := r.a.dev.Metrics().Snapshot().Sum("rnic", "retx_packets"); retx != 0 {
		t.Errorf("retx_packets = %d, want 0 (duplicates must not trigger go-back-N)", retx)
	}
	dup := r.b.dev.Metrics().Counter("rnic", "duplicated_packets",
		metrics.L("node", "hostB")).Value()
	if dup == 0 {
		t.Error("duplicated_packets = 0, want > 0 (redundant copies unaccounted)")
	}
}

// TestSplitAccountingCountsGenuineRetransmits is the other half of the
// split: with loss (and no duplication) the go-back-N recovery must
// show up in retx_packets while duplicated_packets stays
// almost untouched (a retransmission racing an in-flight ack may be
// re-acked as a duplicate, but the full dup-storm of the conflation bug
// cannot reappear).
func TestSplitAccountingCountsGenuineRetransmits(t *testing.T) {
	const msgLen = 10000
	r := newRig(t, Config{}, func(r *rig) {
		mrA := r.a.regMR(t, 0x100000, 32768)
		mrB := r.b.regMR(t, 0x100000, 32768)
		r.a.as.Write(0x100000, make([]byte, msgLen))
		r.qpB.PostRecv(RecvWR{WRID: 9, SGEs: []SGE{{Addr: 0x100000, Len: 32768, LKey: mrB.LKey}}})
		// Force one lost data frame, then let recovery run clean.
		r.net.SetLoss("hostB", 1.0)
		if err := r.qpA.PostSend(SendWR{WRID: 1, Opcode: OpSend, Signaled: true,
			SGEs: []SGE{{Addr: 0x100000, Len: msgLen, LKey: mrA.LKey}}}); err != nil {
			t.Error(err)
			return
		}
		r.s.Sleep(50e3) // first fragment(s) transmitted and dropped
		r.net.SetLoss("hostB", 0)
		pollN(r.a.cq, 1)
		pollN(r.b.cq, 1)
	})
	r.s.Run()

	if retx := r.a.dev.Metrics().Snapshot().Sum("rnic", "retx_packets"); retx == 0 {
		t.Error("retx_packets = 0 after forced loss, want > 0")
	}
}
