package core

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/task"

	"migrrdma/internal/rnic"
	"migrrdma/internal/verbs"
)

func TestQPNTableBasics(t *testing.T) {
	var tbl qpnTable
	tbl.set(0x1234, 0x9999)
	if v, ok := tbl.lookup(0x1234); !ok || v != 0x9999 {
		t.Fatalf("lookup = %#x,%v", v, ok)
	}
	if _, ok := tbl.lookup(0x1235); ok {
		t.Fatal("lookup of unmapped QPN succeeded")
	}
	// Entries can be rebound (partner maps a new physical to the same
	// virtual) and cleared.
	tbl.set(0x1234, 0x8888)
	if v, _ := tbl.lookup(0x1234); v != 0x8888 {
		t.Fatalf("rebind lookup = %#x", v)
	}
	tbl.clear(0x1234)
	if _, ok := tbl.lookup(0x1234); ok {
		t.Fatal("cleared entry still resolves")
	}
	// The directory reaches as far as the highest leaf in use, no
	// further; a QPN beyond it is unmapped and clearing it is a no-op.
	if len(tbl.leaves) != 0x1234/qpnLeafSz+1 {
		t.Fatalf("directory has %d entries for one leaf at index %d", len(tbl.leaves), 0x1234/qpnLeafSz)
	}
	if _, ok := tbl.lookup(0xFFFFFF); ok {
		t.Fatal("lookup beyond the directory succeeded")
	}
	tbl.clear(0xFFFFFF)
}

func TestQPNTableFullRange(t *testing.T) {
	var tbl qpnTable
	// Virtual QPN 0 is a legal value and must be distinguishable from
	// "unmapped".
	tbl.set(0xFFFFFF, 0)
	if v, ok := tbl.lookup(0xFFFFFF); !ok || v != 0 {
		t.Fatalf("max QPN with virtual 0: %#x,%v", v, ok)
	}
	if _, ok := tbl.lookup(0xFFFFFE); ok {
		t.Fatal("neighbour entry leaked")
	}
}

func TestQPNTablePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 25-bit QPN")
		}
	}()
	var tbl qpnTable
	tbl.set(1<<24, 1)
}

func TestKeyTableDenseAssignment(t *testing.T) {
	var kt keyTable
	// §3.3: virtual keys are assigned one by one.
	for i := 0; i < 100; i++ {
		v := kt.assign(uint32(i * 7))
		if v != uint32(i)+keyBase {
			t.Fatalf("assign %d returned %d, want dense %d", i, v, i+keyBase)
		}
	}
	for i := 0; i < 100; i++ {
		phys, ok := kt.lookup(uint32(i) + keyBase)
		if !ok || phys != uint32(i*7) {
			t.Fatalf("lookup %d = %d,%v", i, phys, ok)
		}
	}
	if _, ok := kt.lookup(0); ok {
		t.Fatal("virtual key 0 must be invalid")
	}
	if _, ok := kt.lookup(101); ok {
		t.Fatal("unassigned key resolved")
	}
	kt.update(keyBase, 0xAAAA)
	if phys, _ := kt.lookup(keyBase); phys != 0xAAAA {
		t.Fatal("update did not rebind")
	}
}

func TestPropKeyTableRoundTrip(t *testing.T) {
	f := func(phys []uint32) bool {
		var kt keyTable
		for i, p := range phys {
			if kt.assign(p) != uint32(i)+keyBase {
				return false
			}
		}
		for i, p := range phys {
			got, ok := kt.lookup(uint32(i) + keyBase)
			if !ok || got != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIndirectionRoadmap(t *testing.T) {
	ind := NewIndirection()
	ind.Record(verbs.Event{Kind: verbs.EvAllocPD, ID: 1})
	ind.Record(verbs.Event{Kind: verbs.EvCreateCQ, ID: 2, CQCap: 64})
	ind.Record(verbs.Event{Kind: verbs.EvCreateQP, ID: 3, PD: 1, SendCQ: 2, RecvCQ: 2})
	ind.Record(verbs.Event{Kind: verbs.EvModifyQP, ID: 3, Attr: rnic.ModifyAttr{State: rnic.StateInit}})
	live := ind.live()
	if len(live) != 3 {
		t.Fatalf("live = %d records, want 3", len(live))
	}
	if len(live[2].Modifies) != 1 {
		t.Fatalf("QP record has %d modifies, want 1", len(live[2].Modifies))
	}
	// §3.2: destroying a resource deletes its creation record.
	ind.Record(verbs.Event{Kind: verbs.EvDestroyQP, ID: 3})
	live = ind.live()
	if len(live) != 2 {
		t.Fatalf("after destroy: %d records, want 2", len(live))
	}
	for _, r := range live {
		if r.Ev.ID == 3 {
			t.Fatal("destroyed record still in roadmap")
		}
	}
}

// TestModifyLogIsInline: a QP's INIT, RTR and RTS transitions fill the
// log its record carries, so they allocate nothing; a fourth spills to
// the heap, and the log keeps all four in order.
func TestModifyLogIsInline(t *testing.T) {
	ind := NewIndirection()
	const qps = 200
	for id := verbs.ObjID(1); id <= qps; id++ {
		ind.Record(verbs.Event{Kind: verbs.EvCreateQP, ID: id})
	}
	attrs := []rnic.ModifyAttr{
		{State: rnic.StateInit},
		{State: rnic.StateRTR, RemoteNode: "peer", RemoteQPN: 0x11b},
		{State: rnic.StateRTS},
	}
	id := verbs.ObjID(0)
	allocs := testing.AllocsPerRun(qps-1, func() { // one QP each, the warm-up's too
		id++
		for _, a := range attrs {
			ind.Record(verbs.Event{Kind: verbs.EvModifyQP, ID: id, Attr: a})
		}
	})
	if allocs != 0 {
		t.Fatalf("a QP's three transitions allocate %.0f times, want 0", allocs)
	}
	ind.Record(verbs.Event{Kind: verbs.EvModifyQP, ID: id, Attr: rnic.ModifyAttr{State: rnic.StateError}})
	want := append(slices.Clone(attrs), rnic.ModifyAttr{State: rnic.StateError})
	if got := ind.recs[id].Modifies; !slices.Equal(got, want) {
		t.Fatalf("log %+v, want %+v", got, want)
	}
}

// TestIndirectionDestroyKeepsCreationOrder: destroying records in any
// order — each finds its own slot, and the list is squeezed whenever the
// holes outnumber the records — leaves the survivors in creation order,
// and records created afterwards behind them.
func TestIndirectionDestroyKeepsCreationOrder(t *testing.T) {
	ind := NewIndirection()
	const n = 64
	for id := verbs.ObjID(1); id <= n; id++ {
		ind.Record(verbs.Event{Kind: verbs.EvCreateQP, ID: id})
	}
	ind.Record(verbs.Event{Kind: verbs.EvDestroyQP, ID: 999}) // never created: ignored
	// Reclaim most of the process: every ID but the multiples of 8,
	// from the back, the way a source's teardown does.
	for id := verbs.ObjID(n); id >= 1; id-- {
		if id%8 != 0 {
			ind.Record(verbs.Event{Kind: verbs.EvDestroyQP, ID: id})
		}
	}
	ind.Record(verbs.Event{Kind: verbs.EvCreateCQ, ID: 100})
	ind.Record(verbs.Event{Kind: verbs.EvDestroyQP, ID: 8})
	var got []verbs.ObjID
	for _, r := range ind.live() {
		got = append(got, r.Ev.ID)
	}
	want := []verbs.ObjID{16, 24, 32, 40, 48, 56, 64, 100}
	if !slices.Equal(got, want) {
		t.Fatalf("live records %v, want %v", got, want)
	}
	if len(ind.order) > 2*len(want) {
		t.Fatalf("order list holds %d slots for %d records", len(ind.order), len(want))
	}
}

func TestBlobRoundTrip(t *testing.T) {
	b := &Blob{
		Proc: "p1",
		Records: []RecordDTO{
			{Ev: verbs.Event{Kind: verbs.EvCreateQP, ID: 9, QPType: rnic.RC, Caps: rnic.QPCaps{MaxSend: 32}}},
		},
		Destroyed: []verbs.ObjID{4, 5},
		QPs:       []QPMeta{{ID: 9, VQPN: 0x123, State: rnic.StateRTS, RemoteNode: "x", RemoteQPN: 7, NSent: 42}},
		MRs:       []MRMeta{{ID: 2, VLKey: 1, VRKey: 1}},
	}
	data, err := encodeBlob(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBlob(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Proc != "p1" || len(got.Records) != 1 || len(got.Destroyed) != 2 ||
		got.QPs[0].VQPN != 0x123 || got.QPs[0].NSent != 42 || got.MRs[0].VLKey != 1 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestTranslationProbePaths(t *testing.T) {
	p := NewTranslationProbe()
	// Each path must run repeatedly without touching the scheduler.
	for i := 0; i < 1000; i++ {
		p.TranslateSend()
		p.TranslateWrite()
		p.TranslateRead()
		p.TranslateRecv()
		p.TranslateCQE()
		p.CopySendBaseline()
		p.CopyRecvBaseline()
		p.CopyCQEBaseline()
	}
	// The write path must have resolved the rkey from the warm cache,
	// not refetched it.
	if p.sess.RKeyFetches != 1 {
		t.Fatalf("RKeyFetches = %d, want 1 (cache must absorb the rest)", p.sess.RKeyFetches)
	}
}

func TestSessionClose(t *testing.T) {
	cl := cluster.New(cluster.Config{Seed: 6}, "h")
	d := NewDaemon(cl.Host("h"))
	cl.Sched.Go("test", func() {
		p := task.New(cl.Sched, "p")
		s := NewSession(p, d)
		p.AS.Map(0x100000, 1<<16, "buf")
		pd := s.AllocPD()
		cq := s.CreateCQ(64, nil)
		mr, err := s.RegMR(pd, 0x100000, 1<<16, rnic.AccessLocalWrite)
		if err != nil {
			t.Error(err)
			return
		}
		qp := s.CreateQP(pd, QPConfig{Type: rnic.RC, SendCQ: cq, RecvCQ: cq})
		phys := qp.v.QPN()
		_ = mr
		if len(s.ind.live()) == 0 {
			t.Error("roadmap empty before close")
		}
		s.Close()
		if len(s.ind.live()) != 0 {
			t.Errorf("roadmap still holds %d records after close", len(s.ind.live()))
		}
		if _, ok := d.translateQPN(phys); ok {
			t.Error("QPN mapping survived close")
		}
		for _, reg := range d.sessions {
			if reg == s {
				t.Error("session still registered")
			}
		}
	})
	cl.Sched.RunFor(time.Second)
}
