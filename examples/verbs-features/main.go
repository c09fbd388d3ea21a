// verbs-features: exercises the less-common ib_verbs features the paper
// explicitly supports (§3.1) — completion channels (interrupt mode),
// on-chip device memory, and memory windows — and carries all three
// across a live migration.
//
//	go run ./examples/verbs-features
package main

import (
	"fmt"
	"time"

	migrrdma "migrrdma"
	"migrrdma/internal/oob"
)

func main() {
	tb := migrrdma.NewTestbed(77, "src", "dst", "peer")
	defer tb.Close()
	sched := tb.CL.Sched

	appDone := false
	var peerReady bool
	var peerQPN, mwRKey uint32
	var peerBase migrrdma.Addr

	// Peer: exposes a MEMORY WINDOW over a subrange of its MR, so the
	// app can only write inside the window.
	peerCont := migrrdma.NewContainer(tb, "peer", "peer")
	peerCont.Start(func(p *migrrdma.Process) {
		sess := migrrdma.NewSession(p, tb.Daemons["peer"])
		p.AS.Map(0x100000, 1<<20, "exposed")
		pd := sess.AllocPD()
		cq := sess.CreateCQ(128, nil)
		mr, err := sess.RegMR(pd, 0x100000, 1<<20,
			migrrdma.AccessLocalWrite|migrrdma.AccessRemoteWrite|migrrdma.AccessRemoteRead)
		if err != nil {
			panic(err)
		}
		// Window over one page in the middle of the MR.
		mw, err := sess.BindMW(mr, 0x104000, 4096, migrrdma.AccessRemoteWrite)
		if err != nil {
			panic(err)
		}
		qp := sess.CreateQP(pd, migrrdma.QPConfig{SendCQ: cq, RecvCQ: cq})
		qp.Modify(migrrdma.ModifyAttr{State: migrrdma.StateInit})
		ep := tb.Daemons["peer"].Host().Hub.Endpoint("feat")
		ep.Handle("open", func(m oob.Msg) []byte {
			var cqpn uint32
			for i := 0; i < 4; i++ {
				cqpn = cqpn<<8 | uint32(m.Body[i])
			}
			qp.Modify(migrrdma.ModifyAttr{State: migrrdma.StateRTR, RemoteNode: m.FromNode, RemoteQPN: cqpn})
			qp.Modify(migrrdma.ModifyAttr{State: migrrdma.StateRTS})
			return nil
		})
		peerQPN, mwRKey, peerBase = qp.VQPN(), mw.RKey(), 0x104000
		peerReady = true
	})

	// App: uses a completion CHANNEL (interrupt mode) and ON-CHIP
	// memory as its send buffer.
	appCont := migrrdma.NewContainer(tb, "src", "app")
	appCont.Start(func(p *migrrdma.Process) {
		for !peerReady {
			sched.Sleep(time.Millisecond)
		}
		sess := migrrdma.NewSession(p, tb.Daemons["src"])
		pd := sess.AllocPD()
		ch := sess.CreateCompChannel()
		cq := sess.CreateCQ(128, ch)
		dm, err := sess.AllocDM(8192) // NIC on-chip memory, mapped into the process
		if err != nil {
			panic(err)
		}
		fmt.Printf("on-chip memory mapped at %#x\n", uint64(dm.Addr()))
		mr, err := sess.RegMR(pd, dm.Addr(), 8192, migrrdma.AccessLocalWrite)
		if err != nil {
			panic(err)
		}
		qp := sess.CreateQP(pd, migrrdma.QPConfig{SendCQ: cq, RecvCQ: cq})
		qp.Modify(migrrdma.ModifyAttr{State: migrrdma.StateInit})
		var req [4]byte
		v := qp.VQPN()
		req[0], req[1], req[2], req[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
		tb.Daemons["src"].Host().Hub.Endpoint("feat-cli").Call("peer", "feat", "open", req[:])
		qp.Modify(migrrdma.ModifyAttr{State: migrrdma.StateRTR, RemoteNode: "peer", RemoteQPN: peerQPN})
		qp.Modify(migrrdma.ModifyAttr{State: migrrdma.StateRTS})

		writeViaWindow := func(tag string) {
			p.AS.Write(dm.Addr(), []byte(tag))
			cq.ReqNotify() // arm the interrupt
			err := qp.PostSend(migrrdma.SendWR{
				WRID: 7, Opcode: migrrdma.OpWrite, Signaled: true,
				SGEs:       []migrrdma.SGE{{Addr: dm.Addr(), Len: uint32(len(tag)), LKey: mr.LKey()}},
				RemoteAddr: peerBase, RKey: mwRKey,
			})
			if err != nil {
				panic(err)
			}
			got := ch.Get() // block on the completion event
			for _, e := range got.Poll(8) {
				fmt.Printf("  event-mode completion: %v wrid=%d (%s, on %s)\n",
					e.Status, e.WRID, tag, sess.Node())
			}
		}
		dmAddrBefore := dm.Addr()
		writeViaWindow("before-migration")
		for sess.Node() == "src" {
			p.Compute(300 * time.Microsecond)
		}
		writeViaWindow("after-migration")
		if dm.Addr() != dmAddrBefore {
			panic("on-chip memory address changed across migration")
		}
		fmt.Printf("on-chip memory still at %#x after migration (mremap'd, §3.3)\n", uint64(dm.Addr()))
		appDone = true
	})

	err := tb.Run(migrrdma.Horizon, func() error {
		for !peerReady {
			sched.Sleep(time.Millisecond)
		}
		sched.Sleep(10 * time.Millisecond)
		rep, err := tb.Migrate(appCont, "src", "dst", migrrdma.DefaultMigrateOptions())
		if err != nil {
			return err
		}
		fmt.Printf("migrated with completion channel + DM + MW intact; blackout %v\n",
			rep.ServiceBlackout.Round(time.Millisecond))
		for !appDone {
			sched.Sleep(time.Millisecond)
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
}
