package experiments

import (
	"testing"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/perftest"
	"migrrdma/internal/rnic"
	"migrrdma/internal/runc"
	"migrrdma/internal/task"
)

// TestDebugFig4Stall reproduces the Fig4 rig at small scale with state
// dumps; kept as a regression canary for the light-CRIU configuration.
func TestDebugFig4Stall(t *testing.T) {
	r := NewRigCfg(cluster.FastCheckpointTestbed(13), "src", "dst", "p0")
	defer r.Close()
	opts := perftest.Options{Verb: rnic.OpSend, MsgSize: 4096, QueueDepth: 64, NumQPs: 8, Messages: 0}
	srv := perftest.NewServer(r.CL.Sched, "srv", opts)
	cont := runc.NewContainer(r.CL.Host("p0"), "server")
	cont.Start(func(tp *task.Process) { srv.Run(tp, r.Daemons["p0"]) })
	cli := perftest.NewClient(r.CL.Sched, "cli", opts, perftest.Target{Node: "p0", Name: "srv"})
	cliCont := runc.NewContainer(r.CL.Host("src"), "client")
	r.CL.Sched.Go("start-client", func() {
		srv.WaitReady()
		cliCont.Start(func(tp *task.Process) { cli.Run(tp, r.Daemons["src"]) })
	})
	migDone := false
	err := r.Run(Horizon, func() error {
		cli.WaitReady()
		r.CL.Sched.Sleep(settle)
		if _, err := r.Migrate(cliCont, "src", "dst", runc.DefaultMigrateOptions()); err != nil {
			return err
		}
		migDone = true
		r.CL.Sched.Sleep(time.Millisecond)
		cli.Stop()
		cli.Wait()
		srv.Stop()
		return nil
	})
	if err != nil {
		if migDone {
			// The runner's error names the parked procs; this is what the
			// client's queue pairs looked like when it failed to drain.
			for i, st := range cli.QPStates() {
				t.Logf("qp %d: %s", i, st)
			}
			t.Logf("client errors: %v", cli.Stats.Errors)
			t.Logf("server errors: %v", srv.Stats.Errors)
		}
		t.Fatal(err)
	}
}
