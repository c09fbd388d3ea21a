package experiments

import (
	"fmt"
	"time"

	"migrrdma/internal/hdfs"
	"migrrdma/internal/runc"
	"migrrdma/internal/task"
)

// Fig6Row is one bar group of the Fig. 6 Hadoop study: job completion
// time and application-perceived throughput for baseline, MigrRDMA
// migration, and Hadoop-native failover.
type Fig6Row struct {
	Job      hdfs.JobKind
	Scenario string // "baseline" | "migrrdma" | "failover"
	JCT      time.Duration
	TputGbps float64
	Pi       float64
}

// String renders a table row.
func (r Fig6Row) String() string {
	s := fmt.Sprintf("%-10s %-9s JCT=%v", r.Job, r.Scenario, r.JCT.Round(time.Millisecond))
	if r.Job == hdfs.TestDFSIO {
		s += fmt.Sprintf("  Tput=%.1f Gbps", r.TputGbps)
	} else {
		s += fmt.Sprintf("  pi=%.4f", r.Pi)
	}
	return s
}

// fig6Rig builds the HDFS testbed: master, datanode, an active worker
// in a container on w1, and (for failover) a backup worker on w2.
type fig6Rig struct {
	rig    *Rig
	master *hdfs.Master
	worker *hdfs.Worker
	backup *hdfs.Worker
	wCont  *runc.Container
}

func newFig6Rig(withBackup bool) *fig6Rig {
	r := NewRig(23, "master", "datanode", "w1", "w2", "spare")
	f := &fig6Rig{rig: r}
	f.master = hdfs.NewMaster(r.CL.Sched, r.CL.Host("master").Hub)
	dn := hdfs.NewDataNode(r.CL.Sched, "dn0")
	dnCont := runc.NewContainer(r.CL.Host("datanode"), "dn")
	dnCont.Start(func(p *task.Process) { dn.Run(p, r.Daemons["datanode"]) })

	f.worker = hdfs.NewWorker(r.CL.Sched, "w1", "master", "datanode", "dn0")
	f.wCont = runc.NewContainer(r.CL.Host("w1"), "worker")
	r.CL.Sched.Go("start-worker", func() {
		dn.WaitReady()
		f.wCont.Start(func(p *task.Process) { f.worker.Run(p, r.Daemons["w1"]) })
	})
	if withBackup {
		f.backup = hdfs.NewWorker(r.CL.Sched, "w2", "master", "datanode", "dn0")
		bCont := runc.NewContainer(r.CL.Host("w2"), "backup")
		r.CL.Sched.Go("start-backup", func() {
			dn.WaitReady()
			bCont.Start(func(p *task.Process) { f.backup.Run(p, r.Daemons["w2"]) })
		})
	}
	return f
}

// fig6Specs are the two Hadoop-provided tasks (§5.6), sized so the jobs
// run for tens of seconds like the paper's.
func fig6Spec(kind hdfs.JobKind) hdfs.JobSpec {
	if kind == hdfs.TestDFSIO {
		return hdfs.JobSpec{Kind: hdfs.TestDFSIO, Blocks: 300, BlockSize: 8 << 20, BlockCompute: 100 * time.Millisecond}
	}
	return hdfs.JobSpec{Kind: hdfs.EstimatePI, Rounds: 120, RoundTime: 250 * time.Millisecond, Samples: 50000}
}

// Fig6 runs one scenario of one job kind and returns the row.
func Fig6(kind hdfs.JobKind, scenario string) (Fig6Row, error) {
	f := newFig6Rig(scenario == "failover")
	r := f.rig
	defer r.Close()
	var res hdfs.JobResult
	err := r.Run(Horizon, func() error {
		f.worker.WaitReady()
		if f.backup != nil {
			f.backup.WaitReady()
		}
		f.master.Submit(fig6Spec(kind), "w1")
		switch scenario {
		case "migrrdma":
			// Operator maintenance mid-job: live-migrate the worker.
			r.CL.Sched.Sleep(5 * time.Second)
			if _, err := r.Migrate(f.wCont, "w1", "spare", runc.DefaultMigrateOptions()); err != nil {
				return err
			}
		case "failover":
			r.CL.Sched.Go("failover-monitor", func() { f.master.MonitorFailover("w2") })
			r.CL.Sched.Sleep(5 * time.Second)
			f.worker.Kill()
		}
		res = f.master.Wait()
		return nil
	})
	if err != nil {
		return Fig6Row{}, fmt.Errorf("fig6 %v/%s: %w", kind, scenario, err)
	}
	return Fig6Row{Job: kind, Scenario: scenario, JCT: res.JCT, TputGbps: res.TputGbps, Pi: res.Pi}, nil
}

// Fig6Sweep runs every scenario for both jobs.
func Fig6Sweep() ([]Fig6Row, error) {
	kinds := []hdfs.JobKind{hdfs.TestDFSIO, hdfs.EstimatePI}
	scenarios := []string{"baseline", "migrrdma", "failover"}
	return sweep(len(kinds)*len(scenarios), func(i int) (Fig6Row, error) {
		return Fig6(kinds[i/len(scenarios)], scenarios[i%len(scenarios)])
	})
}
