package experiments

import (
	"fmt"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/fabric"
	"migrrdma/internal/perftest"
	"migrrdma/internal/rnic"
	"migrrdma/internal/runc"
)

// Fig4Row is one point of the Fig. 4 wait-before-stop study.
type Fig4Row struct {
	QPs      int
	MsgSize  int
	Partners int

	// WBS is the measured source-side wait-before-stop time; Theory is
	// inflight_bytes/link_rate (footnote 2 of §5.4).
	WBS      time.Duration
	Theory   time.Duration
	Blackout time.Duration
	Comm     time.Duration
}

// String renders a table row.
func (r Fig4Row) String() string {
	return fmt.Sprintf("QPs=%-4d msg=%-7d partners=%d  WBS=%-12v theory=%-12v (x%.2f)  blackout=%-10v comm=%v",
		r.QPs, r.MsgSize, r.Partners,
		r.WBS.Round(time.Microsecond), r.Theory.Round(time.Microsecond),
		float64(r.WBS)/float64(max64(1, int64(r.Theory))),
		r.Blackout.Round(time.Microsecond), r.Comm.Round(time.Microsecond))
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// fig4BaseSeed is the seed the Fig. 4 sweeps run at. The rig draws no
// fault, so the rows do not depend on it.
const fig4BaseSeed = 13

// Fig4Seeded measures wait-before-stop with n QPs of msgSize messages
// spread over the given partner nodes (queue depth 64, §5.4). The
// migrated container is the sender, so the full send window is in
// flight at suspension time.
func Fig4Seeded(n, msgSize, partners int, seed int64) (_ Fig4Row, err error) {
	defer wrapErr(&err, "fig4 n=%d msg=%d partners=%d seed=%d", n, msgSize, partners, seed)
	r := newFig4Rig(partners, seed)
	defer r.Close()
	return r.fig4(n, msgSize, partners)
}

// newFig4Rig builds Fig. 4's hosts: the source, the destination and one
// partner node per perftest server (the paper's one-to-many mode).
// Wait-before-stop is independent of checkpoint costs; the light CRIU
// configuration keeps the line-rate traffic window (and thus the
// simulated message count) small.
func newFig4Rig(partners int, seed int64) *Rig {
	nodes := []string{"src", "dst"}
	for i := 0; i < partners; i++ {
		nodes = append(nodes, fmt.Sprintf("p%d", i))
	}
	return NewRigCfg(cluster.FastCheckpointTestbed(seed), nodes...)
}

// fig4 runs one Fig. 4 point on a rig newFig4Rig built.
func (r *Rig) fig4(n, msgSize, partners int) (_ Fig4Row, err error) {
	at := make([]serverAt, partners)
	for i := range at {
		node := fmt.Sprintf("p%d", i)
		at[i] = serverAt{node, "server-" + node}
	}
	opts := perftest.Options{Verb: rnic.OpSend, MsgSize: msgSize, QueueDepth: 64, NumQPs: n, Messages: 0}
	pair, servers := r.start("src", "cli", "client", "srv", opts, at...)
	cli := pair.Client

	var rep *runc.Report
	err = r.Run(Horizon, func() (err error) {
		cli.WaitReady()
		r.CL.Sched.Sleep(settle)
		if rep, err = r.Migrate(pair.ClientCont, "src", "dst", runc.DefaultMigrateOptions()); err != nil {
			return err
		}
		r.CL.Sched.Sleep(time.Millisecond)
		cli.Stop()
		cli.Wait()
		for _, srv := range servers {
			srv.Stop()
		}
		return nil
	})
	if err != nil {
		return Fig4Row{}, err
	}
	if rep.WBS.TimedOut {
		return Fig4Row{}, fmt.Errorf("wait-before-stop timed out")
	}
	theory := time.Duration(rep.WBS.InflightBytes * 8 * int64(time.Second) / fabric.LinkRate)
	return Fig4Row{
		QPs: n, MsgSize: msgSize, Partners: partners,
		WBS: rep.WBS.Elapsed, Theory: theory,
		Blackout: rep.Blackout(), Comm: rep.CommBlackout,
	}, nil
}

// Fig4a sweeps the QP count (message size 4 KB, one partner).
func Fig4a(qps []int) ([]Fig4Row, error) {
	return sweep(len(qps), func(i int) (Fig4Row, error) {
		return Fig4Seeded(qps[i], 4096, 1, fig4BaseSeed)
	})
}

// Fig4b sweeps the message size (16 QPs, one partner).
func Fig4b(sizes []int) ([]Fig4Row, error) {
	return sweep(len(sizes), func(i int) (Fig4Row, error) {
		return Fig4Seeded(16, sizes[i], 1, fig4BaseSeed)
	})
}

// Fig4c sweeps the number of partners, one QP per partner.
func Fig4c(partners []int) ([]Fig4Row, error) {
	return sweep(len(partners), func(i int) (Fig4Row, error) {
		return Fig4Seeded(partners[i], 4096, partners[i], fig4BaseSeed)
	})
}
