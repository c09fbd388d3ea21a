package metrics_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/experiments"
	"migrrdma/internal/metrics"
	"migrrdma/internal/migmgr"
	"migrrdma/internal/perftest"
	"migrrdma/internal/rnic"
	"migrrdma/internal/runc"
	"migrrdma/internal/sim"
)

// TestEmitWithoutListenerIsFree: with no listener — or no registry —
// Emit is a branch and allocates nothing, whatever the event carries.
func TestEmitWithoutListenerIsFree(t *testing.T) {
	var nilReg *metrics.Registry
	reg := metrics.New(nil)
	node := fmt.Sprint("host", 1)
	allocs := testing.AllocsPerRun(1000, func() {
		_ = reg.Emit(metrics.Event{Kind: "cqe", Node: node, QPN: 7, Seq: 9})
		_ = nilReg.Emit(metrics.Event{Kind: "stage", Mig: "m1", Note: "predump"})
	})
	if allocs != 0 {
		t.Fatalf("Emit with no listener allocates %.1f times, want 0", allocs)
	}
}

// TestEventsInEmissionOrderOnVirtualTime: the listener sees every event
// synchronously, in emission order, stamped by the registry's clock; its
// error comes back from Emit; Listen(nil) turns the stream off.
func TestEventsInEmissionOrderOnVirtualTime(t *testing.T) {
	s := sim.New(1)
	reg := metrics.New(s.Now)
	var got []string
	refuse := fmt.Errorf("refused")
	reg.Listen(func(e metrics.Event) error {
		got = append(got, fmt.Sprintf("%v %s %d", e.T, e.Kind, e.Seq))
		if e.Kind == "stage" {
			return refuse
		}
		return nil
	})
	s.Go("emitter", func() {
		reg.Emit(metrics.Event{Kind: "cqe", Seq: 1})
		reg.Emit(metrics.Event{Kind: "cqe", Seq: 2, T: time.Hour}) // T is the registry's to stamp
		s.Sleep(3 * time.Microsecond)
		if err := reg.Emit(metrics.Event{Kind: "stage", Seq: 3}); err != refuse {
			t.Errorf("Emit returned %v, want the listener's error", err)
		}
		reg.Listen(nil)
		if err := reg.Emit(metrics.Event{Kind: "stage", Seq: 4}); err != nil {
			t.Errorf("Emit with no listener returned %v", err)
		}
	})
	s.Run()
	want := []string{"0s cqe 1", "0s cqe 2", "3µs stage 3"}
	if !slices.Equal(got, want) {
		t.Fatalf("events %q, want %q", got, want)
	}
}

// TestManagedPlugForwardMigrationEmitsEveryKind: one plug-forward
// migration of a WRITE server through the manager delivers every kind
// of event the chaos ledger is built from, each from its own layer —
// rnic (cqe, ack, exp, rkey, dereg), runc (stage), fabric (plug) and
// pagechan (pchan) — on the one cluster registry.
func TestManagedPlugForwardMigrationEmitsEveryKind(t *testing.T) {
	r := experiments.NewRigCfg(cluster.FastCheckpointTestbed(35), "src", "dst", "partner")
	defer r.Close()
	seen := make(map[string]int)
	r.CL.Metrics.Listen(func(e metrics.Event) error {
		seen[e.Kind]++
		if e.Kind == "stage" && e.Mig != "m1" {
			t.Errorf("stage %s of migration %q, want m1", e.Note, e.Mig)
		}
		return nil
	})
	pair := r.StartPair("partner", "src", perftest.Options{
		Verb: rnic.OpWrite, MsgSize: 2048, QueueDepth: 8, NumQPs: 2,
		PostGap: 50 * time.Microsecond, RecvDepth: 64,
	})
	opts := runc.DefaultMigrateOptions()
	opts.Cutover = runc.CutoverPlugForward
	mgr := migmgr.New(r.CL, r.Daemons, 1)
	err := r.Run(experiments.Horizon, func() error {
		pair.Client.WaitReady()
		r.CL.Sched.Sleep(2 * time.Millisecond)
		j, err := mgr.Submit(migmgr.Spec{C: pair.ServerCont, Dst: "dst", Opts: opts})
		if err != nil {
			return err
		}
		j.Wait()
		r.CL.Sched.Sleep(2 * time.Millisecond) // source reclaim runs off the critical path
		pair.Stop()
		return j.Err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"cqe", "ack", "exp", "rkey", "stage", "plug", "pchan", "dereg"} {
		if seen[kind] == 0 {
			t.Errorf("no %s events (saw %v)", kind, seen)
		}
	}
}
