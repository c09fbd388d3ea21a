// Quickstart: bring up two simulated hosts, open a MigrRDMA session,
// connect an RC queue pair, do an RDMA WRITE — then live-migrate the
// process to a third host and do another WRITE through the *same*
// application handles.
//
// The point to notice in the output: the virtual QPN and keys the
// application uses do not change across the migration, while the
// physical values underneath do (§3.3).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"migrrdma/internal/core"
	"migrrdma/internal/experiments"
	"migrrdma/internal/mem"
	"migrrdma/internal/rnic"
	"migrrdma/internal/runc"
	"migrrdma/internal/task"
)

func main() {
	// A three-server testbed: the app starts on "src", its peer runs on
	// "peer", and we migrate to "dst".
	rig := experiments.NewRig(1, "src", "dst", "peer")
	defer rig.Close()
	sched := rig.CL.Sched

	// --- Peer: a passive process exposing one registered buffer -------
	peerReady := false
	var peerQPN, peerRKey uint32
	peerCont := runc.NewContainer(rig.CL.Host("peer"), "peer")
	peerCont.Start(func(p *task.Process) {
		sess := core.NewSession(p, rig.Daemons["peer"])
		p.AS.Map(0x100000, 1<<20, "kv-region")
		pd := sess.AllocPD()
		cq := sess.CreateCQ(256, nil)
		mr, err := sess.RegMR(pd, 0x100000, 1<<20,
			rnic.AccessLocalWrite|rnic.AccessRemoteRead|rnic.AccessRemoteWrite)
		if err != nil {
			panic(err)
		}
		qp := sess.CreateQP(pd, core.QPConfig{Type: rnic.RC, SendCQ: cq, RecvCQ: cq})
		qp.Modify(rnic.ModifyAttr{State: rnic.StateInit})
		peerQPN, peerRKey = qp.VQPN(), mr.RKey()
		peerReady = true
		// Wait for the app to announce its QPN (stand-in for the
		// out-of-band socket exchange a real app performs), then finish
		// our side of the connection.
		for appQPN == 0 {
			sched.Sleep(100 * time.Microsecond)
		}
		qp.Modify(rnic.ModifyAttr{State: rnic.StateRTR, RemoteNode: "src", RemoteQPN: appQPN})
		qp.Modify(rnic.ModifyAttr{State: rnic.StateRTS})
	})

	// --- The migratable application ------------------------------------
	appCont := runc.NewContainer(rig.CL.Host("src"), "app")
	appDone := false
	appCont.Start(func(p *task.Process) {
		for !peerReady {
			sched.Sleep(100 * time.Microsecond)
		}
		sess := core.NewSession(p, rig.Daemons["src"])
		p.AS.Map(0x200000, 1<<20, "buffer")
		pd := sess.AllocPD()
		cq := sess.CreateCQ(256, nil)
		mr, err := sess.RegMR(pd, 0x200000, 1<<20, rnic.AccessLocalWrite)
		if err != nil {
			panic(err)
		}
		qp := sess.CreateQP(pd, core.QPConfig{Type: rnic.RC, SendCQ: cq, RecvCQ: cq})
		qp.Modify(rnic.ModifyAttr{State: rnic.StateInit})
		appQPN = qp.VQPN()
		qp.Modify(rnic.ModifyAttr{State: rnic.StateRTR, RemoteNode: "peer", RemoteQPN: peerQPN})
		qp.Modify(rnic.ModifyAttr{State: rnic.StateRTS})
		fmt.Printf("app connected: virtual QPN %#x, lkey %#x (node %s)\n",
			qp.VQPN(), mr.LKey(), sess.Node())

		write := func(msg string) {
			p.AS.Write(0x200000, []byte(msg))
			err := qp.PostSend(rnic.SendWR{
				WRID: 1, Opcode: rnic.OpWrite, Signaled: true,
				SGEs:       []rnic.SGE{{Addr: 0x200000, Len: uint32(len(msg)), LKey: mr.LKey()}},
				RemoteAddr: 0x100000, RKey: peerRKey,
			})
			if err != nil {
				panic(err)
			}
			cq.WaitNonEmpty()
			for _, e := range cq.Poll(8) {
				fmt.Printf("  WRITE %q completed: status=%v on virtual QPN %#x (app runs on %s)\n",
					msg, e.Status, e.QPN, sess.Node())
			}
		}
		write("hello before migration")
		// Keep working; the migration happens underneath us.
		for sess.Node() == "src" {
			p.Compute(200 * time.Microsecond)
		}
		write("hello after migration")
		fmt.Printf("app still holds virtual QPN %#x and lkey %#x — unchanged across hosts\n",
			qp.VQPN(), mr.LKey())
		appDone = true
	})

	// --- Operator: live-migrate the app once it is running -------------
	err := rig.Run(experiments.Horizon, func() error {
		for !peerReady {
			sched.Sleep(time.Millisecond)
		}
		sched.Sleep(10 * time.Millisecond)
		fmt.Println("operator: migrating app src → dst ...")
		rep, err := rig.Migrate(appCont, "src", "dst", runc.DefaultMigrateOptions())
		if err != nil {
			return err
		}
		fmt.Printf("operator: migration done, service blackout %v\n",
			rep.ServiceBlackout.Round(time.Microsecond))
		// The run ends when this function returns: let the app finish.
		for !appDone {
			sched.Sleep(time.Millisecond)
		}
		return nil
	})
	if err != nil {
		panic(err) // a hang names the procs that are parked for good
	}
	_ = mem.PageSize
}

// appQPN carries the app's virtual QPN to the peer.
var appQPN uint32
