package experiments

import (
	"fmt"
	"time"

	"migrrdma/internal/perftest"
	"migrrdma/internal/rnic"
	"migrrdma/internal/runc"
)

// Fig3Row is one bar of the Fig. 3 blackout breakdown.
type Fig3Row struct {
	QPs      int
	Sender   bool // migrate the sender side (a,c) vs the receiver (b,d)
	PreSetup bool

	DumpRDMA    time.Duration
	DumpOthers  time.Duration
	Transfer    time.Duration
	RestoreRDMA time.Duration
	FullRestore time.Duration
	Blackout    time.Duration

	// ServiceBlackout is freeze→thaw and CommBlackout suspension→
	// resumption (runc.Report); the figure does not print them, §6
	// reads them.
	ServiceBlackout time.Duration
	CommBlackout    time.Duration
}

// String renders a table row.
func (r Fig3Row) String() string {
	side, mode := "recv", "nopresetup"
	if r.Sender {
		side = "send"
	}
	if r.PreSetup {
		mode = "presetup"
	}
	return fmt.Sprintf("%4d QPs %s %-10s  DumpRDMA=%-10v DumpOthers=%-10v Transfer=%-10v RestoreRDMA=%-10v FullRestore=%-10v Blackout=%v",
		r.QPs, side, mode,
		r.DumpRDMA.Round(time.Microsecond), r.DumpOthers.Round(time.Microsecond),
		r.Transfer.Round(time.Microsecond), r.RestoreRDMA.Round(time.Microsecond),
		r.FullRestore.Round(time.Microsecond), r.Blackout.Round(time.Microsecond))
}

// Fig3 runs one blackout-breakdown migration: a perftest SEND/RECV pair
// at queue depth 64 with 4 KB messages and n QPs; either the sender or
// the receiver container migrates, with or without RDMA pre-setup
// (§5.2).
func Fig3(n int, sender, preSetup bool) (_ Fig3Row, err error) {
	defer wrapErr(&err, "fig3 n=%d sender=%v presetup=%v", n, sender, preSetup)
	r := NewRig(11, "src", "dst", "partner")
	defer r.Close()
	opts := perftest.Options{
		Verb: rnic.OpSend, MsgSize: 4096, QueueDepth: 64, NumQPs: n, Messages: 0,
	}
	// Large-N runs measure control-path costs; throttle the data plane
	// so the simulation stays tractable (the blackout breakdown does not
	// depend on offered load).
	switch {
	case n > 512:
		opts.QueueDepth = 4
		opts.PostGap = 50 * time.Microsecond
	case n > 128:
		opts.QueueDepth = 16
		opts.PostGap = 10 * time.Microsecond
	}
	// The migrating container holds the sender (client) or the receiver
	// (server).
	var pair *Pair
	var cont *runc.Container
	if sender {
		pair = r.StartPair("src", "partner", opts)
		cont = pair.ClientCont
	} else {
		pair = r.StartPair("partner", "src", opts)
		cont = pair.ServerCont
	}
	var rep *runc.Report
	err = r.Run(Horizon, func() (err error) {
		pair.Client.WaitReady()
		r.CL.Sched.Sleep(settle)
		mopts := runc.DefaultMigrateOptions()
		mopts.PreSetup = preSetup
		if rep, err = r.Migrate(cont, "src", "dst", mopts); err != nil {
			return err
		}
		// Drain a little, then stop the workload.
		r.CL.Sched.Sleep(2 * time.Millisecond)
		pair.Stop()
		return nil
	})
	if err != nil {
		return Fig3Row{}, err
	}
	if errs := pair.Errors(); len(errs) > 0 {
		return Fig3Row{}, fmt.Errorf("%d workload errors, first %s", len(errs), errs[0])
	}
	return Fig3Row{
		QPs: n, Sender: sender, PreSetup: preSetup,
		DumpRDMA: rep.DumpRDMA, DumpOthers: rep.DumpOthers,
		Transfer: rep.Transfer, RestoreRDMA: rep.RestoreRDMA,
		FullRestore: rep.FullRestore, Blackout: rep.Blackout(),
		ServiceBlackout: rep.ServiceBlackout, CommBlackout: rep.CommBlackout,
	}, nil
}

// Fig3Sweep runs the full figure: both sides (the sender first), both
// modes (without pre-setup first), over the QP counts.
func Fig3Sweep(qpCounts []int) ([]Fig3Row, error) {
	n := len(qpCounts)
	return sweep(4*n, func(i int) (Fig3Row, error) { return Fig3(qpCounts[i%n], i/n/2 == 0, i/n%2 == 1) })
}
