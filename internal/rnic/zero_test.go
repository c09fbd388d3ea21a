package rnic

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"migrrdma/internal/fabric"
	"migrrdma/internal/mem"
	"migrrdma/internal/sim"
)

// TestZeroSendMovesNoPayload: a SEND from never-written memory puts a
// header-only frame on the wire, whose Size is still that of a frame
// carrying the bytes.
func TestZeroSendMovesNoPayload(t *testing.T) {
	var frames, early []fabric.Frame
	r := newRig(t, Config{}, func(r *rig) {
		mrA := r.a.regMR(t, 0x100000, 1<<16)
		r.net.SetHandler("hostB", func(f fabric.Frame) { frames = append(frames, f) })
		r.a.as.Write(0x108000, bytes.Repeat([]byte{0xAB}, 4096))
		for i, addr := range []mem.Addr{0x100000, 0x108000} {
			if err := r.qpA.PostSend(SendWR{WRID: uint64(i), Opcode: OpSend,
				SGEs: []SGE{{Addr: addr, Len: 4096, LKey: mrA.LKey}}}); err != nil {
				t.Error(err)
			}
		}
		r.s.Sleep(100 * time.Microsecond) // both sent, before any RTO
		early = frames
	})
	r.s.Run()
	if len(early) != 2 {
		t.Fatalf("%d frames on the wire, want 2", len(early))
	}
	zero, dense := early[0], early[1]
	if len(zero.Data) != packetHeaderLen {
		t.Errorf("zero SEND frame carries %d bytes, want the %d-byte header alone", len(zero.Data), packetHeaderLen)
	}
	if len(dense.Data) != packetHeaderLen+4096 {
		t.Errorf("dense SEND frame carries %d bytes, want %d", len(dense.Data), packetHeaderLen+4096)
	}
	if zero.Size != dense.Size {
		t.Errorf("zero frame Size %d, dense frame Size %d: a zero payload must cost the same wire time", zero.Size, dense.Size)
	}
	if p, err := decodePacket(zero.Data); err != nil || len(p.Payload) != 4096 || !mem.IsZeros(p.Payload) {
		t.Errorf("zero frame decodes to %d payload bytes (shared zeros %v), err %v", len(p.Payload), mem.IsZeros(p.Payload), err)
	}
}

// TestZeroPacketCodec: dense and zero packets of every payload size the
// length field can carry keep their wire size through encode, frameFor
// and WireSizeOf, and decode back to the same length and zero flag; a
// flagged frame carrying payload bytes is rejected.
func TestZeroPacketCodec(t *testing.T) {
	s := sim.New(1)
	defer s.Close()
	net := fabric.New(s, fabric.Config{})
	d := NewDevice(net, fabric.NewMux(net, "h"), "h", Config{})
	for _, n := range []int{1, d.cfg.MTU, 65535} {
		for _, zero := range []bool{false, true} {
			payload := bytes.Repeat([]byte{0x5A}, n)
			if zero {
				payload = mem.Zeros(n)
			}
			mk := func() *packet {
				return &packet{Type: ptData, DstQPN: 7, PSN: 3, Last: true, Opcode: OpSend, DLen: uint32(n), Payload: payload}
			}
			p := mk()
			b := p.encode()
			if got, want := WireSizeOf(b), p.wireSize(); got != want {
				t.Errorf("n=%d zero=%v: WireSizeOf %d, wireSize %d", n, zero, got, want)
			}
			if zero && len(b) != packetHeaderLen {
				t.Errorf("n=%d: zero packet encodes to %d bytes, want the header alone", n, len(b))
			}
			q, err := decodePacket(b)
			if err != nil || len(q.Payload) != n || mem.IsZeros(q.Payload) != zero || !q.Last {
				t.Fatalf("n=%d zero=%v: decoded %d bytes, zero %v, last %v, err %v", n, zero, len(q.Payload), mem.IsZeros(q.Payload), q.Last, err)
			}
			if !bytes.Equal(q.Payload, payload) {
				t.Errorf("n=%d zero=%v: payload bytes changed", n, zero)
			}
			f := d.frameFor("peer", mk())
			if f.Size != p.wireSize() || !bytes.Equal(f.Data, b) {
				t.Errorf("n=%d zero=%v: frameFor Size %d (want %d), %d data bytes (want %d)", n, zero, f.Size, p.wireSize(), len(f.Data), len(b))
			}
			if zero {
				if _, err := decodePacket(append(b, 0)); err == nil {
					t.Errorf("n=%d: a flagged frame carrying a payload byte decoded", n)
				}
			}
		}
	}
}

// zeroMsgPage is what one page under a differential message holds.
type zeroMsgPage int

const (
	pageNever      zeroMsgPage = iota // never written: a zero source
	pageZeroed                        // written only with zeros: a zero source
	pageDense                         // bytes of its own, some of them zero
	pagePrivZeroed                    // bytes of its own, all of them zero
)

// writeZeroMsgPage gives the page at a on as the content kind k.
func writeZeroMsgPage(as *mem.AddressSpace, rng *rand.Rand, a mem.Addr, k zeroMsgPage) {
	switch k {
	case pageZeroed:
		as.Write(a, make([]byte, mem.PageSize))
	case pageDense:
		b := make([]byte, mem.PageSize)
		for i := 0; i < 64; i++ {
			b[rng.Intn(len(b))] = byte(1 + rng.Intn(255))
		}
		as.Write(a, b)
	case pagePrivZeroed:
		as.Write(a, []byte{0x77})
		as.Write(a, []byte{0})
	}
}

// zeroMsg is one differential message: slot-relative offset and length
// over a slot of zeroSlotPages pages, and each page's content kind.
type zeroMsg struct {
	off, len uint32
	pages    []zeroMsgPage
}

const zeroSlotPages = 4

// zeroMsgs returns the seeded message mix: fixed zero-then-dense,
// dense-then-zero and alternating multi-fragment messages first, then
// random ones at random offsets. maxLen caps a message (one MTU for UD).
func zeroMsgs(rng *rand.Rand, count int, maxLen uint32) []zeroMsg {
	var out []zeroMsg
	if maxLen > mem.PageSize {
		for _, ks := range [][]zeroMsgPage{
			{pageNever, pageDense},
			{pageDense, pageNever},
			{pageNever, pageDense, pageZeroed},
			{pageDense, pageZeroed, pageDense},
			{pageNever, pageNever, pageNever},
			{pagePrivZeroed, pageNever, pageDense},
		} {
			out = append(out, zeroMsg{len: uint32(len(ks))*mem.PageSize - 100, pages: ks})
		}
	}
	for len(out) < count {
		m := zeroMsg{off: uint32(rng.Intn(mem.PageSize)), len: 1 + uint32(rng.Intn(int(maxLen)))}
		for i := 0; i < zeroSlotPages; i++ {
			m.pages = append(m.pages, zeroMsgPage(rng.Intn(4)))
		}
		out = append(out, m)
	}
	return out
}

// zeroDiff is the state of one differential run: the receiver's
// address space and a reference that gets a plain Write of every
// message the receiver is sent.
type zeroDiff struct {
	t        *testing.T
	rng      *rand.Rand
	src, dst *mem.AddressSpace
	ref      *mem.AddressSpace
	checked  int
}

func newZeroDiff(t *testing.T, seed int64, src, dst *mem.AddressSpace) *zeroDiff {
	ref := mem.NewAddressSpace()
	if _, err := ref.Map(0x100000, 1<<20, "arena"); err != nil {
		t.Fatal(err)
	}
	return &zeroDiff{t: t, rng: rand.New(rand.NewSource(seed)), src: src, dst: dst, ref: ref}
}

// prepare lays message m out in slot i of the sender and gives some
// destination pages bytes of their own (on the receiver and the
// reference alike). It returns the source and destination addresses.
func (z *zeroDiff) prepare(i int, m zeroMsg) (mem.Addr, mem.Addr) {
	slot := mem.Addr(0x100000 + i*zeroSlotPages*mem.PageSize)
	for p, k := range m.pages {
		writeZeroMsgPage(z.src, z.rng, slot+mem.Addr(p*mem.PageSize), k)
		if z.rng.Intn(3) == 0 {
			a := slot + mem.Addr(p*mem.PageSize)
			b := []byte{byte(1 + z.rng.Intn(255))}
			z.dst.Write(a, b)
			z.ref.Write(a, b)
		}
	}
	return slot + mem.Addr(m.off), slot + mem.Addr(m.off)
}

// check applies the delivered message to the reference and compares.
func (z *zeroDiff) check(i int, src, dst mem.Addr, n uint32) {
	z.t.Helper()
	b := make([]byte, n)
	z.src.Read(src, b)
	z.ref.Write(dst, b)
	got, want := make([]byte, mem.PageSize), make([]byte, mem.PageSize)
	for a := mem.Addr(0x100000); a < 0x100000+1<<20; a += mem.PageSize {
		z.dst.Read(a, got)
		z.ref.Read(a, want)
		if !bytes.Equal(got, want) {
			z.t.Fatalf("message %d: receiver page %#x differs from the reference", i, a)
		}
	}
	if g, w := z.dst.DirtyPages(), z.ref.DirtyPages(); !slices.Equal(g, w) {
		z.t.Fatalf("message %d: dirty pages %#x, reference %#x", i, g, w)
	}
	if g, w := z.dst.PopulatedPages(), z.ref.PopulatedPages(); !slices.Equal(g, w) {
		z.t.Fatalf("message %d: populated pages %#x, reference %#x", i, g, w)
	}
	z.checked++
}

// TestZeroPayloadDifferential: seeded messages mixing zero and dense
// fragments, over SEND, SEND_IMM, WRITE and UD SEND with loss and
// duplication on, leave the receiver exactly as a plain Write of the
// sender's bytes leaves a reference: bytes, dirty pages and populated
// pages. The shared zero run is still all zeros at the end.
func TestZeroPayloadDifferential(t *testing.T) {
	const msgs = 40 // fits 1 MB of four-page slots with room to spare
	for _, op := range []Opcode{OpSend, OpSendImm, OpWrite} {
		var z *zeroDiff
		r := newRig(t, Config{}, func(r *rig) {
			mrA := r.a.regMR(t, 0x100000, 1<<20)
			mrB := r.b.regMR(t, 0x100000, 1<<20)
			for _, h := range []string{"hostA", "hostB"} {
				r.net.SetLoss(h, 0.05)
				r.net.SetDuplicate(h, 0.2)
			}
			z = newZeroDiff(t, int64(op), r.a.as, r.b.as)
			for i, m := range zeroMsgs(z.rng, msgs, 3*mem.PageSize) {
				src, dst := z.prepare(i, m)
				wr := SendWR{WRID: uint64(i), Opcode: op, Signaled: true, Imm: uint32(i),
					SGEs: []SGE{{Addr: src, Len: m.len, LKey: mrA.LKey}}}
				if op == OpWrite {
					wr.RemoteAddr, wr.RKey = dst, mrB.RKey
				} else {
					r.qpB.PostRecv(RecvWR{WRID: uint64(i), SGEs: []SGE{{Addr: dst, Len: m.len, LKey: mrB.LKey}}})
				}
				if err := r.qpA.PostSend(wr); err != nil {
					t.Fatal(err)
				}
				if c := pollN(r.a.cq, 1)[0]; c.Status != WCSuccess {
					t.Fatalf("%v message %d: send CQE %+v", op, i, c)
				}
				if op != OpWrite {
					c := pollN(r.b.cq, 1)[0]
					if c.Status != WCSuccess || c.ByteLen != m.len || c.HasImm != (op == OpSendImm) {
						t.Fatalf("%v message %d: recv CQE %+v", op, i, c)
					}
				}
				z.check(i, src, dst, m.len)
			}
		})
		r.s.Run()
		if z == nil || z.checked != msgs {
			t.Fatalf("%v: the differential did not check all %d messages", op, msgs)
		}
	}
	t.Run("UD", testZeroPayloadUD)
	if !mem.AllZero(mem.Zeros(mem.ZeroRunLen)) {
		t.Fatal("the shared zero run was written")
	}
}

// testZeroPayloadUD is the differential over UD datagrams (one MTU at
// most). A lost datagram is sent again; one receive is posted at a time
// and stragglers are let die before the next, so a duplicate never
// lands in another message's buffer.
func testZeroPayloadUD(t *testing.T) {
	s := sim.New(42)
	defer s.Close()
	net := fabric.New(s, fabric.Config{})
	devA := NewDevice(net, fabric.NewMux(net, "hostA"), "hostA", Config{})
	devB := NewDevice(net, fabric.NewMux(net, "hostB"), "hostB", Config{})
	asA, asB := mem.NewAddressSpace(), mem.NewAddressSpace()
	asA.Map(0x100000, 1<<20, "a")
	asB.Map(0x100000, 1<<20, "b")
	var z *zeroDiff
	s.Go("ud", func() {
		pdA, pdB := devA.AllocPD(), devB.AllocPD()
		cqA, cqB := devA.CreateCQ(256, nil), devB.CreateCQ(256, nil)
		qpA := devA.CreateQP(pdA, UD, cqA, cqA, nil, QPCaps{})
		qpB := devB.CreateQP(pdB, UD, cqB, cqB, nil, QPCaps{})
		for _, qp := range []*QP{qpA, qpB} {
			for _, st := range []QPState{StateInit, StateRTR, StateRTS} {
				qp.Modify(ModifyAttr{State: st})
			}
		}
		mrA, _ := devA.RegMR(pdA, asA, 0x100000, 1<<20, AccessLocalWrite)
		mrB, _ := devB.RegMR(pdB, asB, 0x100000, 1<<20, AccessLocalWrite)
		net.SetLoss("hostB", 0.1)
		net.SetDuplicate("hostB", 0.3)
		z = newZeroDiff(t, 9, asA, asB)
		for i, m := range zeroMsgs(z.rng, 40, uint32(devA.MTU())) {
			src, dst := z.prepare(i, m)
			qpB.PostRecv(RecvWR{WRID: uint64(i), SGEs: []SGE{{Addr: dst, Len: m.len, LKey: mrB.LKey}}})
			for cqB.Len() == 0 {
				qpA.PostSend(SendWR{WRID: uint64(i), Opcode: OpSend, Signaled: true,
					SGEs:       []SGE{{Addr: src, Len: m.len, LKey: mrA.LKey}},
					RemoteNode: "hostB", RemoteQPN: qpB.QPN})
				s.Sleep(50 * time.Microsecond)
				cqA.Poll(8)
			}
			if c := cqB.Poll(1)[0]; c.Status != WCSuccess || c.ByteLen != m.len {
				t.Fatalf("UD message %d: recv CQE %+v", i, c)
			}
			z.check(i, src, dst, m.len)
		}
	})
	s.Run()
	if z == nil || z.checked != 40 {
		t.Fatal("the UD differential did not check all 40 messages")
	}
}

// TestZeroReadResponses: a zero, a dense and a mixed three-fragment
// READ each return the source bytes exactly, over a destination that
// held other bytes.
func TestZeroReadResponses(t *testing.T) {
	const n = 3*mem.PageSize - 100
	r := newRig(t, Config{}, func(r *rig) {
		mrA := r.a.regMR(t, 0x100000, 1<<20)
		mrB := r.b.regMR(t, 0x100000, 1<<20)
		rng := rand.New(rand.NewSource(3))
		for i, ks := range [][]zeroMsgPage{
			{pageNever, pageNever, pageZeroed},
			{pageDense, pageDense, pageDense},
			{pageNever, pageDense, pageZeroed},
		} {
			src := mem.Addr(0x100000 + i*0x10000)
			for p, k := range ks {
				writeZeroMsgPage(r.b.as, rng, src+mem.Addr(p*mem.PageSize), k)
			}
			dst := mem.Addr(0x180000)
			r.a.as.Write(dst, bytes.Repeat([]byte{0xEE}, n))
			r.qpA.PostSend(SendWR{WRID: uint64(i), Opcode: OpRead, Signaled: true,
				SGEs:       []SGE{{Addr: dst, Len: n, LKey: mrA.LKey}},
				RemoteAddr: src, RKey: mrB.RKey})
			if c := pollN(r.a.cq, 1)[0]; c.Status != WCSuccess {
				t.Fatalf("READ %d: CQE %+v", i, c)
			}
			want, got := make([]byte, n), make([]byte, n)
			r.b.as.Read(src, want)
			r.a.as.Read(dst, got)
			if !bytes.Equal(got, want) {
				t.Errorf("READ %d (%v) returned other bytes than the source", i, ks)
			}
		}
	})
	r.s.Run()
	if !mem.AllZero(mem.Zeros(mem.ZeroRunLen)) {
		t.Fatal("the shared zero run was written")
	}
}
