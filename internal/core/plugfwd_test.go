package core

import (
	"bytes"
	"testing"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/fabric"
	"migrrdma/internal/mem"
	"migrrdma/internal/metrics"
	"migrrdma/internal/rnic"
)

// TestPlugForwardKeepsFrameSizes: a zero data frame (a header-only
// frame that stands for a full payload) and a dense one, sent by a peer
// to a suspended source QP, are tunneled into the destination's plug
// and re-injected at the flush with the Size they had on the peer's
// wire. WireSizeOf is where the tunnel recomputes it.
func TestPlugForwardKeepsFrameSizes(t *testing.T) {
	const oldQPN, newQPN = 0x4242, 0x4343
	cl := cluster.New(cluster.Config{Seed: 13}, "peer", "src", "dst")
	defer cl.Close()
	ds, dd := NewDaemon(cl.Host("src")), NewDaemon(cl.Host("dst"))
	var flushed []fabric.Frame
	cl.Host("dst").Mux.Register(rnic.PortRDMA, func(f fabric.Frame) { flushed = append(flushed, f) })
	var txBytes, txFrames int64
	cl.Sched.Go("test", func() {
		peer := cl.Host("peer").Dev
		as := mem.NewAddressSpace()
		as.Map(0x100000, 1<<16, "buf")
		as.Write(0x108000, bytes.Repeat([]byte{0xAB}, 4096))
		pd := peer.AllocPD()
		cq := peer.CreateCQ(16, nil)
		mr, err := peer.RegMR(pd, as, 0x100000, 1<<16, rnic.AccessLocalWrite)
		if err != nil {
			t.Error(err)
			return
		}
		qp := peer.CreateQP(pd, rnic.RC, cq, cq, nil, rnic.QPCaps{MaxSend: 4, MaxRecv: 4})
		for _, a := range []rnic.ModifyAttr{
			{State: rnic.StateInit},
			{State: rnic.StateRTR, RemoteNode: "src", RemoteQPN: oldQPN},
			{State: rnic.StateRTS},
		} {
			if err := qp.Modify(a); err != nil {
				t.Error(err)
				return
			}
		}
		if err := ds.installForward("m", map[uint32]bool{oldQPN: true}, "dst"); err != nil {
			t.Error(err)
			return
		}
		if err := dd.installPlug("m", map[uint32]uint32{oldQPN: newQPN}); err != nil {
			t.Error(err)
			return
		}
		for i, addr := range []mem.Addr{0x100000, 0x108000} { // never written, then dense
			if err := qp.PostSend(rnic.SendWR{WRID: uint64(i), Opcode: rnic.OpSend,
				SGEs: []rnic.SGE{{Addr: addr, Len: 4096, LKey: mr.LKey}}}); err != nil {
				t.Error(err)
				return
			}
		}
		cl.Sched.Sleep(100 * time.Microsecond) // tunneled, and before any RTO
		reg := peer.Metrics()
		txBytes = reg.Counter("rnic", "tx_bytes", metrics.L("node", "peer")).Value()
		txFrames = reg.Counter("rnic", "tx_frames", metrics.L("node", "peer")).Value()
		dd.flushPlug("m")
	})
	cl.Sched.RunFor(10 * time.Millisecond)
	if len(flushed) != 2 || txFrames != 2 {
		t.Fatalf("the flush delivered %d frames of the peer's %d, want 2", len(flushed), txFrames)
	}
	if n := len(flushed[0].Data); n >= len(flushed[1].Data) {
		t.Errorf("the zero frame carries %d bytes, the dense one %d: the zero payload crossed the tunnel as bytes", n, len(flushed[1].Data))
	}
	for i, f := range flushed {
		if int64(f.Size) != txBytes/txFrames {
			t.Errorf("frame %d re-injected with Size %d, sent with %d", i, f.Size, txBytes/txFrames)
		}
		if qpn, _ := rnic.PeekDstQPN(f.Data); qpn != newQPN {
			t.Errorf("frame %d re-injected for QPN %#x, want %#x", i, qpn, newQPN)
		}
	}
}
