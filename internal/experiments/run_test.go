package experiments

import (
	"errors"
	"strings"
	"testing"

	"migrrdma/internal/sim"
)

// TestRunNamesTheProcAHungDriverParkedIn: a drive that never returns
// ends the run at the horizon with an error that says where it parked,
// not with a bare "did not complete".
func TestRunNamesTheProcAHungDriverParkedIn(t *testing.T) {
	r := NewRig(1, "a")
	defer r.Close()
	err := r.Run(Horizon, func() error {
		sim.NewCond(r.CL.Sched, "a wake-up nobody sends").Wait()
		return nil
	})
	if err == nil {
		t.Fatal("a driver parked forever was reported as a completed run")
	}
	for _, want := range []string{"did not complete within 10m0s", "driver (blocked at: wait a wake-up nobody sends)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if now := r.CL.Sched.Now(); now != Horizon {
		t.Errorf("the hung run ended at %v, want the horizon %v", now, Horizon)
	}
}

// TestRunStopsWhenTheDriverReturns: the run ends at the instant drive
// returns, with drive's error, however far away the horizon is.
func TestRunStopsWhenTheDriverReturns(t *testing.T) {
	r := NewRig(1, "a")
	defer r.Close()
	sched := r.CL.Sched
	ticks := 0
	sched.Go("ticker", func() {
		for {
			sched.Sleep(settle)
			ticks++
		}
	})
	failed := errors.New("drive failed")
	err := r.Run(Horizon, func() error {
		sched.Sleep(10 * settle)
		return failed
	})
	if err != failed {
		t.Fatalf("Run returned %v, want drive's error", err)
	}
	if ticks < 9 || ticks > 10 {
		t.Errorf("the ticker ran %d times: the run did not end when drive returned", ticks)
	}
}
