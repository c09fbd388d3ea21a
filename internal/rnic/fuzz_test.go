package rnic

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"migrrdma/internal/mem"
)

// TestPropPacketRoundTrip: any packet survives encode→decode.
func TestPropPacketRoundTrip(t *testing.T) {
	f := func(dst, src, psn, ack uint32, frag uint16, last, hasImm bool,
		op, syndrome uint8, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		p := &packet{
			Type:     packetType(op % 8),
			DstQPN:   dst & 0xFFFFFF,
			SrcQPN:   src & 0xFFFFFF,
			PSN:      psn & 0xFFFFFF,
			Frag:     frag,
			Last:     last,
			Opcode:   Opcode(op % 8),
			HasImm:   hasImm,
			AckPSN:   ack & 0xFFFFFF,
			Syndrome: syndrome,
			Payload:  payload,
		}
		q, err := decodePacket(p.encode())
		if err != nil {
			return false
		}
		if q.DstQPN != p.DstQPN || q.SrcQPN != p.SrcQPN || q.PSN != p.PSN ||
			q.Frag != p.Frag || q.Last != p.Last || q.Opcode != p.Opcode ||
			q.HasImm != p.HasImm || q.AckPSN != p.AckPSN || q.Syndrome != p.Syndrome ||
			len(q.Payload) != len(p.Payload) {
			return false
		}
		for i := range payload {
			if q.Payload[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeGarbageNeverPanics: arbitrary bytes must decode or error,
// never crash the receive path.
func TestDecodeGarbageNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if recover() != nil {
				t.Error("decodePacket panicked")
			}
		}()
		_, _ = decodePacket(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodePacket: arbitrary bytes either fail to decode or decode to
// a packet that survives an encode→decode round trip unchanged, zero
// flag and payload length included. The corpus seeds every wire packet
// type, including the NAK and RNR-NAK control packets, and a zero data
// packet (a header-only frame; an all-0xFF header decodes as one too).
func FuzzDecodePacket(f *testing.F) {
	seeds := []*packet{
		{Type: ptData, DstQPN: 7, SrcQPN: 3, PSN: 42, Frag: 1, Opcode: OpSend, Payload: []byte("frag")},
		{Type: ptData, DstQPN: 7, SrcQPN: 3, PSN: 42, Frag: 2, Last: true, Opcode: OpSendImm, HasImm: true, Imm: 99, Payload: []byte("tail")},
		{Type: ptAck, DstQPN: 3, SrcQPN: 7, AckPSN: 42, Last: true},
		{Type: ptNak, DstQPN: 3, SrcQPN: 7, AckPSN: 43, Syndrome: nakSeqErr, Last: true},
		{Type: ptNak, DstQPN: 3, SrcQPN: 7, AckPSN: 43, Syndrome: nakRemoteAccess, Last: true},
		{Type: ptRnrNak, DstQPN: 3, SrcQPN: 7, AckPSN: 44, Last: true},
		{Type: ptReadReq, DstQPN: 7, SrcQPN: 3, PSN: 50, RemoteAddr: 0x200000, RKey: 0xBEEF, DLen: 4096, Last: true},
		{Type: ptAtomicResp, DstQPN: 3, SrcQPN: 7, PSN: 51, CompareAdd: 1 << 40, Last: true, Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Type: ptData, DstQPN: 7, SrcQPN: 3, PSN: 52, Last: true, Opcode: OpWrite, RemoteAddr: 0x300000, DLen: 4096, Payload: mem.Zeros(4096)},
	}
	for _, p := range seeds {
		f.Add(p.encode())
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, packetHeaderLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := decodePacket(data)
		if err != nil {
			return
		}
		q, err := decodePacket(p.encode())
		if err != nil {
			t.Fatalf("re-decode of valid packet failed: %v", err)
		}
		if q.Type != p.Type || q.DstQPN != p.DstQPN || q.SrcQPN != p.SrcQPN ||
			q.PSN != p.PSN || q.Frag != p.Frag || q.Last != p.Last ||
			q.Opcode != p.Opcode || q.RemoteAddr != p.RemoteAddr || q.RKey != p.RKey ||
			q.DLen != p.DLen || q.CompareAdd != p.CompareAdd || q.Swap != p.Swap ||
			q.Imm != p.Imm || q.HasImm != p.HasImm || q.AckPSN != p.AckPSN ||
			q.Syndrome != p.Syndrome || !bytes.Equal(q.Payload, p.Payload) ||
			mem.IsZeros(q.Payload) != mem.IsZeros(p.Payload) {
			t.Fatalf("round trip changed packet:\n  in  %+v\n  out %+v", p, q)
		}
	})
}

// faultScriptResult reports what a fault script exercised.
type faultScriptResult struct {
	accepted  int // signaled sends the device took
	completed int // send CQEs observed
	naks      int64
	rnrs      int64
	goBackN   int64
}

// runFaultScript interprets script bytes as operations on a connected
// RC pair with fault injection: 0 = post recv, 1 = post send (next byte
// scales the size across the multi-fragment boundary), 2/5 = set loss
// toward the responder/requester (next byte scales the probability),
// 3 = clear faults and sleep past one RTO, 4 = short sleep. Whatever
// the script does, every accepted signaled send must complete exactly
// once — success, retry-exceeded or flush — and never twice.
func runFaultScript(t *testing.T, script []byte) faultScriptResult {
	var res faultScriptResult
	r := newRig(t, Config{RNRRetries: 3}, func(r *rig) {
		checkWQEs(t, r)
		mrA := r.a.regMR(t, 0x100000, 1<<20)
		mrB := r.b.regMR(t, 0x100000, 1<<20)
		next := 0
		rd := func() byte {
			if next >= len(script) {
				return 0
			}
			b := script[next]
			next++
			return b
		}
		recvs := 0
		for next < len(script) {
			switch rd() % 6 {
			case 0:
				if recvs < 128 {
					r.qpB.PostRecv(RecvWR{WRID: uint64(1000 + recvs),
						SGEs: []SGE{{Addr: 0x100000, Len: 16384, LKey: mrB.LKey}}})
					recvs++
				}
			case 1:
				if res.accepted < 64 {
					size := 256 + 48*uint32(rd())
					err := r.qpA.PostSend(SendWR{WRID: uint64(res.accepted), Opcode: OpSend, Signaled: true,
						SGEs: []SGE{{Addr: 0x100000, Len: size, LKey: mrA.LKey}}})
					if err == nil {
						res.accepted++
					}
				}
			case 2:
				r.net.SetLoss("hostB", float64(rd())/255)
			case 3:
				r.net.SetLoss("hostA", 0)
				r.net.SetLoss("hostB", 0)
				r.s.Sleep(700 * time.Microsecond)
			case 4:
				r.s.Sleep(150 * time.Microsecond)
			case 5:
				r.net.SetLoss("hostA", float64(rd())/255)
			}
		}
		r.net.SetLoss("hostA", 0)
		r.net.SetLoss("hostB", 0)
		// Drain: generous budget for RTO/RNR back-off chains, then assert
		// exactly-once delivery of send completions.
		seen := make(map[uint64]int)
		for i := 0; i < 300 && res.completed < res.accepted; i++ {
			r.s.Sleep(500 * time.Microsecond)
			for _, e := range r.a.cq.Poll(64) {
				seen[e.WRID]++
				res.completed++
			}
		}
		for id, n := range seen {
			if n != 1 {
				t.Errorf("send WRID %d completed %d times", id, n)
			}
		}
		if res.completed != res.accepted {
			t.Errorf("%d of %d accepted sends completed", res.completed, res.accepted)
		}
		// Nothing may trickle in afterwards (late duplicates).
		r.s.Sleep(10 * time.Millisecond)
		if n := r.a.cq.Len(); n != 0 {
			t.Errorf("%d extra send CQEs after drain", n)
		}
		if r.qpB.NRecvDone > uint64(recvs) {
			t.Errorf("NRecvDone %d exceeds %d posted recvs", r.qpB.NRecvDone, recvs)
		}
		res.naks = r.qpB.mNaks.Value()
		res.rnrs = r.qpB.mRNRs.Value()
		res.goBackN = r.qpA.mGoBackN.Value()
	})
	r.s.Run()
	return res
}

// Named corpus scripts, each steering the transport into a different
// recovery branch. faultScriptCorpus seeds the fuzzer with all of them;
// TestFaultScriptCorpusReachesBranches proves they reach their targets.
var faultScriptCorpus = map[string][]byte{
	// Plain traffic with receives posted first.
	"clean": {0, 0, 0, 0, 1, 50, 1, 50, 1, 50, 4, 3},
	// Sends with no receive posted: responder RNR-NAKs until the
	// requester's RNR retry budget is exhausted.
	"rnr": {1, 100, 1, 100, 1, 100, 4, 4, 3},
	// Full blackhole toward the responder across more than one RTO:
	// requester times out and goes back N, then recovers.
	"rto-go-back-n": {0, 0, 0, 0, 2, 255, 1, 100, 1, 100, 4, 4, 4, 4, 3, 3},
	// ~30% loss under a longer run of multi-fragment messages: sequence
	// gaps at the responder trigger NAK-driven go-back-N. (Higher loss
	// rates tend to kill every Last fragment instead, which recovers
	// via RTO without a NAK.)
	"seq-nak": {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 77,
		1, 255, 1, 255, 1, 255, 1, 255, 1, 255, 1, 255, 1, 255, 1, 255, 4, 4, 3, 3},
	// Loss toward the requester: ACKs vanish, data is retransmitted and
	// the responder exercises its duplicate-PSN path.
	"ack-loss": {0, 0, 0, 0, 5, 153, 1, 80, 1, 80, 4, 4, 4, 4, 3},
}

func FuzzRCFaultScript(f *testing.F) {
	for _, script := range faultScriptCorpus {
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		runFaultScript(t, script)
	})
}

// TestFaultScriptCorpusReachesBranches runs the seed corpus outside of
// fuzzing mode and asserts each script actually drives the transport
// into the branch it was written for (the rig's seed is fixed, so this
// is deterministic).
func TestFaultScriptCorpusReachesBranches(t *testing.T) {
	for name, script := range faultScriptCorpus {
		res := runFaultScript(t, script)
		t.Logf("%-14s accepted=%d naks=%d rnrs=%d goBackN=%d",
			name, res.accepted, res.naks, res.rnrs, res.goBackN)
		if res.accepted == 0 {
			t.Errorf("%s: no sends accepted (vacuous script)", name)
		}
		switch name {
		case "rnr":
			if res.rnrs == 0 {
				t.Errorf("rnr script never took the RNR-NAK branch")
			}
		case "rto-go-back-n":
			if res.goBackN == 0 {
				t.Errorf("rto script never took the go-back-N branch")
			}
		case "seq-nak":
			if res.naks == 0 {
				t.Errorf("seq-nak script never made the responder NAK")
			}
			if res.goBackN == 0 {
				t.Errorf("seq-nak script never triggered go-back-N")
			}
		case "ack-loss":
			if res.goBackN == 0 {
				t.Errorf("ack-loss script never retransmitted")
			}
		}
	}
}

// TestPropPSNOrdering: psnLess is a strict ordering within the window.
func TestPropPSNOrdering(t *testing.T) {
	f := func(a, d uint32) bool {
		a &= 0xFFFFFF
		delta := d % (1 << 23)
		if delta == 0 {
			return !psnLess(a, a)
		}
		b := psnAdd(a, delta)
		return psnLess(a, b) && !psnLess(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRTOFiresAtLastArmPlusRTO: the QP's one retransmission timer is
// moved to the tail of its device's RTO lane by every ACK (sim.Lane), so
// the lane's heap entry is queued under a deadline long past by the time
// traffic stops — and the timer must still fire one RTO after the last
// arm, not when that entry surfaces. onRTO checks the instant against
// the last arm itself, under every test that reaches it (the
// fault-script corpus above, the fuzzer's seeds, the chaos goldens);
// here the instants are read off the retry counter: the first fire one
// RTO after the blackholed send went out, the following ones one RTO
// after the fire before, until the budget is spent.
func TestRTOFiresAtLastArmPlusRTO(t *testing.T) {
	const acked = 40
	var fires []time.Duration
	var posted time.Duration
	var cfg Config
	r := newRig(t, Config{}, func(r *rig) {
		cfg = r.a.dev.cfg
		mrA := r.a.regMR(t, 0x100000, 1<<20)
		mrB := r.b.regMR(t, 0x100000, 1<<20)
		for i := 0; i <= acked; i++ {
			r.qpB.PostRecv(RecvWR{WRID: uint64(i), SGEs: []SGE{{Addr: 0x100000, Len: 4096, LKey: mrB.LKey}}})
		}
		send := func(id uint64) {
			if err := r.qpA.PostSend(SendWR{WRID: id, Opcode: OpSend, Signaled: true,
				SGEs: []SGE{{Addr: 0x100000, Len: 1024, LKey: mrA.LKey}}}); err != nil {
				t.Error(err)
			}
		}
		// ACKed traffic spread over several RTOs: every ACK re-arms.
		for i := 0; i < acked; i++ {
			send(uint64(i))
			r.s.Sleep(rto / 8)
		}
		if got := len(pollN(r.a.cq, acked)); got != acked {
			t.Fatalf("%d of %d sends completed before the blackhole", got, acked)
		}
		r.net.SetLoss("hostB", 1)
		posted = r.s.Now()
		send(acked)
		for last := 0; len(fires) < cfg.MaxRetries+1; {
			r.s.Sleep(time.Microsecond)
			if r.qpA.retries != last {
				last = r.qpA.retries
				fires = append(fires, r.s.Now())
			}
			if r.s.Now() > posted+time.Duration(cfg.MaxRetries+3)*rto {
				break
			}
		}
		if e := pollN(r.a.cq, 1); len(e) != 1 || e[0].Status != WCRetryExceeded {
			t.Errorf("blackholed send completed as %+v, want retry-exceeded", e)
		}
	})
	r.s.Run()
	if len(fires) != cfg.MaxRetries+1 {
		t.Fatalf("saw %d RTO fires, want %d", len(fires), cfg.MaxRetries+1)
	}
	// The send is on the wire a doorbell and a serialisation after the
	// post; the sampler rounds up to the next microsecond.
	if d := fires[0] - posted - rto; d < 0 || d > 20*time.Microsecond {
		t.Errorf("first RTO %v after the post, want one RTO (%v) plus the time to transmit", fires[0]-posted, rto)
	}
	for i := 1; i < len(fires); i++ {
		if d := fires[i] - fires[i-1]; d != rto {
			t.Errorf("RTO fire %d came %v after fire %d, want %v", i, d, i-1, rto)
		}
	}
}
