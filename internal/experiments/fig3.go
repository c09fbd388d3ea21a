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
func Fig3(n int, sender, preSetup bool) (Fig3Row, error) {
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
	var cont = ""
	if sender {
		pair = r.StartPair("src", "partner", opts)
		cont = "client"
	} else {
		pair = r.StartPair("partner", "src", opts)
		cont = "server"
	}
	var rep *runc.Report
	var err error
	r.CL.Sched.Go("driver", func() {
		pair.Client.WaitReady()
		r.CL.Sched.Sleep(settle)
		mopts := runc.DefaultMigrateOptions()
		mopts.PreSetup = preSetup
		c := pair.ClientCont
		if cont == "server" {
			c = pair.ServerCont
		}
		rep, err = r.Migrate(c, "src", "dst", mopts)
		// Drain a little, then stop the workload.
		r.CL.Sched.Sleep(2 * time.Millisecond)
		pair.Client.Stop()
		pair.Client.Wait()
		pair.Server.Stop()
		r.CL.Sched.Stop() // all measured; skip the idle tail to the horizon
	})
	r.CL.Sched.RunFor(10 * time.Minute)
	if err != nil {
		return Fig3Row{}, err
	}
	if rep == nil {
		return Fig3Row{}, fmt.Errorf("fig3: migration did not complete (n=%d)", n)
	}
	if len(pair.Client.Stats.Errors) > 0 {
		return Fig3Row{}, fmt.Errorf("fig3: client errors: %v", pair.Client.Stats.Errors[0])
	}
	if len(pair.Server.Stats.Errors) > 0 {
		return Fig3Row{}, fmt.Errorf("fig3: server errors: %v", pair.Server.Stats.Errors[0])
	}
	return Fig3Row{
		QPs: n, Sender: sender, PreSetup: preSetup,
		DumpRDMA: rep.DumpRDMA, DumpOthers: rep.DumpOthers,
		Transfer: rep.Transfer, RestoreRDMA: rep.RestoreRDMA,
		FullRestore: rep.FullRestore, Blackout: rep.Blackout(),
	}, nil
}

// Fig3Sweep runs the full figure: both sides, both modes, over the QP
// counts.
func Fig3Sweep(qpCounts []int) ([]Fig3Row, error) {
	var rows []Fig3Row
	for _, sender := range []bool{true, false} {
		for _, pre := range []bool{false, true} {
			for _, n := range qpCounts {
				row, err := Fig3(n, sender, pre)
				if err != nil {
					return rows, err
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}
