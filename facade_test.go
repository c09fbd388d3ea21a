package migrrdma

// Facade smoke test: the whole quickstart flow driven purely through
// the re-exported public surface.

import (
	"testing"
	"time"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	tb := NewTestbed(1, "a", "b", "spare")
	defer tb.Close()
	sched := tb.CL.Sched

	var peerReady bool
	var peerQPN, peerRKey uint32
	peer := NewContainer(tb, "b", "peer")
	peer.Start(func(p *Process) {
		sess := NewSession(p, tb.Daemons["b"])
		p.AS.Map(0x100000, 1<<20, "region")
		pd := sess.AllocPD()
		cq := sess.CreateCQ(64, nil)
		mr, err := sess.RegMR(pd, 0x100000, 1<<20, AccessLocalWrite|AccessRemoteWrite)
		if err != nil {
			t.Error(err)
			return
		}
		qp := sess.CreateQP(pd, QPConfig{SendCQ: cq, RecvCQ: cq})
		qp.Modify(ModifyAttr{State: StateInit})
		peerQPN, peerRKey = qp.VQPN(), mr.RKey()
		peerReady = true
		for facadeAppQPN == 0 {
			sched.Sleep(time.Millisecond)
		}
		qp.Modify(ModifyAttr{State: StateRTR, RemoteNode: "a", RemoteQPN: facadeAppQPN})
		qp.Modify(ModifyAttr{State: StateRTS})
	})

	wrote := 0
	app := NewContainer(tb, "a", "app")
	app.Start(func(p *Process) {
		for !peerReady {
			sched.Sleep(time.Millisecond)
		}
		sess := NewSession(p, tb.Daemons["a"])
		p.AS.Map(0x200000, 1<<20, "buf")
		pd := sess.AllocPD()
		cq := sess.CreateCQ(64, nil)
		mr, err := sess.RegMR(pd, 0x200000, 1<<20, AccessLocalWrite)
		if err != nil {
			t.Error(err)
			return
		}
		qp := sess.CreateQP(pd, QPConfig{SendCQ: cq, RecvCQ: cq})
		qp.Modify(ModifyAttr{State: StateInit})
		facadeAppQPN = qp.VQPN()
		qp.Modify(ModifyAttr{State: StateRTR, RemoteNode: "b", RemoteQPN: peerQPN})
		qp.Modify(ModifyAttr{State: StateRTS})
		write := func() {
			if err := qp.PostSend(SendWR{
				WRID: 1, Opcode: OpWrite, Signaled: true,
				SGEs:       []SGE{{Addr: 0x200000, Len: 32, LKey: mr.LKey()}},
				RemoteAddr: 0x100000, RKey: peerRKey,
			}); err != nil {
				t.Error(err)
				return
			}
			cq.WaitNonEmpty()
			for _, e := range cq.Poll(4) {
				if e.Status == 0 {
					wrote++
				}
			}
		}
		write()
		for sess.Node() == "a" {
			p.Compute(300 * time.Microsecond)
		}
		write()
	})

	var rep *MigrationReport
	err := tb.Run(Horizon, func() (err error) {
		for facadeAppQPN == 0 {
			sched.Sleep(time.Millisecond)
		}
		sched.Sleep(5 * time.Millisecond)
		if rep, err = tb.Migrate(app, "a", "spare", DefaultMigrateOptions()); err != nil {
			return err
		}
		for wrote < 2 {
			sched.Sleep(time.Millisecond)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if wrote != 2 {
		t.Fatalf("completed %d writes, want one per side of the migration", wrote)
	}
	if rep == nil || rep.ServiceBlackout == 0 {
		t.Fatalf("no migration report: %+v", rep)
	}
	_ = rep
}

var facadeAppQPN uint32
