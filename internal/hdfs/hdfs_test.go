package hdfs

import (
	"math"
	"testing"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/core"
	"migrrdma/internal/runc"
	"migrrdma/internal/task"
)

// rig is one HDFS testbed: master + datanode + worker (+ backup).
type rig struct {
	cl      *cluster.Cluster
	daemons map[string]*core.Daemon
	master  *Master
	dn      *DataNode
	worker  *Worker
	backup  *Worker
	wCont   *runc.Container
}

func newRig(t *testing.T, withBackup bool) *rig {
	t.Helper()
	names := []string{"master", "datanode", "w1", "w2", "spare"}
	cl := cluster.New(cluster.Config{Seed: 3}, names...)
	r := &rig{cl: cl, daemons: make(map[string]*core.Daemon)}
	for _, n := range names {
		r.daemons[n] = core.NewDaemon(cl.Host(n))
	}
	r.master = NewMaster(cl.Sched, cl.Host("master").Hub)
	r.dn = NewDataNode(cl.Sched, "dn0")
	dnCont := runc.NewContainer(cl.Host("datanode"), "dn")
	dnCont.Start(func(p *task.Process) { r.dn.Run(p, r.daemons["datanode"]) })

	r.worker = NewWorker(cl.Sched, "w1", "master", "datanode", "dn0")
	r.wCont = runc.NewContainer(cl.Host("w1"), "worker")
	cl.Sched.Go("start-worker", func() {
		r.dn.WaitReady()
		r.wCont.Start(func(p *task.Process) { r.worker.Run(p, r.daemons["w1"]) })
	})
	if withBackup {
		r.backup = NewWorker(cl.Sched, "w2", "master", "datanode", "dn0")
		bCont := runc.NewContainer(cl.Host("w2"), "backup")
		cl.Sched.Go("start-backup", func() {
			r.dn.WaitReady()
			bCont.Start(func(p *task.Process) { r.backup.Run(p, r.daemons["w2"]) })
		})
	}
	return r
}

func dfsioSpec() JobSpec {
	return JobSpec{Kind: TestDFSIO, Blocks: 40, BlockSize: 4 << 20}
}

func piSpec() JobSpec {
	return JobSpec{Kind: EstimatePI, Rounds: 20, RoundTime: 20 * time.Millisecond, Samples: 20000}
}

func TestDFSIOBaseline(t *testing.T) {
	r := newRig(t, false)
	var res JobResult
	r.cl.Sched.Go("driver", func() {
		r.worker.WaitReady()
		r.master.Submit(dfsioSpec(), "w1")
		res = r.master.Wait()
	})
	r.cl.Sched.RunFor(120 * time.Second)
	if res.JCT == 0 {
		t.Fatalf("job did not finish: done=%d/%d; blocked: %s", r.master.job.doneCount, len(r.master.job.done), r.cl.Sched.BlockedReport())
	}
	if res.TputGbps < 5 {
		t.Fatalf("DFSIO throughput %.1f Gbps implausibly low", res.TputGbps)
	}
	if res.FailedOver {
		t.Fatal("baseline run reported failover")
	}
	t.Logf("baseline: JCT=%v Tput=%.1f Gbps", res.JCT, res.TputGbps)
}

func TestEstimatePIBaseline(t *testing.T) {
	r := newRig(t, false)
	var res JobResult
	r.cl.Sched.Go("driver", func() {
		r.worker.WaitReady()
		r.master.Submit(piSpec(), "w1")
		res = r.master.Wait()
	})
	r.cl.Sched.RunFor(120 * time.Second)
	if res.JCT == 0 {
		t.Fatal("job did not finish")
	}
	if math.Abs(res.Pi-math.Pi) > 0.05 {
		t.Fatalf("estimated pi = %v", res.Pi)
	}
	t.Logf("pi: JCT=%v pi=%.4f", res.JCT, res.Pi)
}

func TestDFSIOWithLiveMigration(t *testing.T) {
	r := newRig(t, false)
	var res JobResult
	var mErr error
	r.cl.Sched.Go("driver", func() {
		r.worker.WaitReady()
		r.master.Submit(dfsioSpec(), "w1")
		// Migrate the worker mid-job to the spare server.
		r.cl.Sched.Sleep(3 * time.Millisecond)
		m := &runc.Migrator{C: r.wCont, Dst: r.cl.Host("spare"),
			Plug: core.NewPlugin(r.daemons["w1"], r.daemons["spare"]),
			Opts: runc.DefaultMigrateOptions()}
		_, mErr = m.Migrate()
		res = r.master.Wait()
	})
	r.cl.Sched.RunFor(120 * time.Second)
	if mErr != nil {
		t.Fatalf("migration: %v", mErr)
	}
	if res.JCT == 0 {
		t.Fatal("job did not finish after migration")
	}
	if res.FailedOver {
		t.Fatal("migration run must not trigger failover")
	}
	if r.worker.Sess.Node() != "spare" {
		t.Fatalf("worker on %s, want spare", r.worker.Sess.Node())
	}
	t.Logf("migrated: JCT=%v Tput=%.1f Gbps", res.JCT, res.TputGbps)
}

func TestDFSIOFailoverSlower(t *testing.T) {
	// Baseline JCT.
	rb := newRig(t, false)
	var base JobResult
	rb.cl.Sched.Go("driver", func() {
		rb.worker.WaitReady()
		rb.master.Submit(dfsioSpec(), "w1")
		base = rb.master.Wait()
	})
	rb.cl.Sched.RunFor(120 * time.Second)

	// Failover run: kill the worker mid-job, recover on the backup.
	r := newRig(t, true)
	var res JobResult
	r.cl.Sched.Go("driver", func() {
		r.worker.WaitReady()
		r.backup.WaitReady()
		r.master.Submit(dfsioSpec(), "w1")
		r.cl.Sched.Go("failover-monitor", func() { r.master.MonitorFailover("w2") })
		r.cl.Sched.Sleep(3 * time.Millisecond)
		r.worker.Kill()
		res = r.master.Wait()
	})
	r.cl.Sched.RunFor(300 * time.Second)
	if res.JCT == 0 {
		t.Fatal("job did not finish after failover")
	}
	if !res.FailedOver {
		t.Fatal("failover was not triggered")
	}
	extra := res.JCT - base.JCT
	if extra < 5*time.Second {
		t.Fatalf("failover extra JCT %v implausibly small (detection timeout alone is 10s)", extra)
	}
	t.Logf("baseline JCT=%v, failover JCT=%v (+%v)", base.JCT, res.JCT, extra)
}

func TestDFSIOWithReplication(t *testing.T) {
	names := []string{"master", "dn1", "dn2", "w1"}
	cl := cluster.New(cluster.Config{Seed: 4}, names...)
	daemons := map[string]*core.Daemon{}
	for _, n := range names {
		daemons[n] = core.NewDaemon(cl.Host(n))
	}
	master := NewMaster(cl.Sched, cl.Host("master").Hub)
	dnA, dnB := NewDataNode(cl.Sched, "dnA"), NewDataNode(cl.Sched, "dnB")
	runc.NewContainer(cl.Host("dn1"), "a").Start(func(p *task.Process) { dnA.Run(p, daemons["dn1"]) })
	runc.NewContainer(cl.Host("dn2"), "b").Start(func(p *task.Process) { dnB.Run(p, daemons["dn2"]) })
	w := NewWorker(cl.Sched, "w1", "master", "dn1", "dnA")
	w.Replicas = []Replica{{Node: "dn2", Name: "dnB"}}
	runc.NewContainer(cl.Host("w1"), "w").Start(func(p *task.Process) {
		dnA.WaitReady()
		dnB.WaitReady()
		w.Run(p, daemons["w1"])
	})
	var res JobResult
	cl.Sched.Go("driver", func() {
		w.WaitReady()
		master.Submit(JobSpec{Kind: TestDFSIO, Blocks: 20, BlockSize: 2 << 20}, "w1")
		res = master.Wait()
	})
	cl.Sched.RunFor(2 * time.Minute)
	if res.JCT == 0 {
		t.Fatal("replicated job did not finish")
	}
	// Both datanodes received the block bytes.
	snap := cl.Metrics.Snapshot()
	dn1, _ := snap.Get("fabric/rx_bytes{node=dn1}")
	dn2, _ := snap.Get("fabric/rx_bytes{node=dn2}")
	rx1, rx2 := dn1.Value, dn2.Value
	want := int64(20 * (2 << 20))
	if rx1 < want || rx2 < want {
		t.Fatalf("replica traffic rx1=%d rx2=%d, want ≥%d each", rx1, rx2, want)
	}
	t.Logf("replicated DFSIO: JCT=%v rx1=%dMB rx2=%dMB", res.JCT, rx1>>20, rx2>>20)
}
