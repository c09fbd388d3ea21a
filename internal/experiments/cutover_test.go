package experiments

import (
	"runtime"
	"testing"

	"migrrdma/internal/runc"
)

// TestCutoverComparison pins the claim the plug-and-forward cutover
// exists to make: against the same deterministic workload and migration
// timeline, at every measured message size it completes the cutover
// with zero retransmissions, fewer wire bytes, and a lower p99 than
// go-back-N. The workload is sized so the blackout-straddling operation
// lands inside the p99 (one stalled op per QP, 50 samples per QP).
func TestCutoverComparison(t *testing.T) {
	rows, err := CutoverComparison([]int{2048, 8192}, []int{2}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows)%2 != 0 {
		t.Fatalf("odd row count %d, want go-back-N/plug-forward pairs", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		gbn, plug := rows[i], rows[i+1]
		t.Log(gbn)
		t.Log(plug)
		if gbn.Mode != runc.CutoverGoBackN || plug.Mode != runc.CutoverPlugForward {
			t.Fatalf("row order: got %v then %v", gbn.Mode, plug.Mode)
		}
		if gbn.MsgSize != plug.MsgSize || gbn.QPs != plug.QPs || gbn.Samples != plug.Samples {
			t.Fatalf("rows not comparable: %+v vs %+v", gbn, plug)
		}
		// Go-back-N pays for the cutover in retransmissions; the plug
		// absorbs the same frames instead.
		if gbn.Retransmitted == 0 {
			t.Errorf("msg=%d: go-back-N cutover produced no retransmissions; the comparison is vacuous", gbn.MsgSize)
		}
		if plug.Retransmitted != 0 {
			t.Errorf("msg=%d: plug-forward retransmitted %d packets, want 0", plug.MsgSize, plug.Retransmitted)
		}
		if plug.PlugFlushed == 0 {
			t.Errorf("msg=%d: plug-forward flushed nothing; the plug never saw the blackout traffic", plug.MsgSize)
		}
		// The retransmissions are wire bytes go-back-N burns and
		// plug-forward does not.
		if plug.WireBytes >= gbn.WireBytes {
			t.Errorf("msg=%d: plug-forward wire bytes %d >= go-back-N %d", plug.MsgSize, plug.WireBytes, gbn.WireBytes)
		}
		// The latency tail: RNR/RTO quantization delays go-back-N's
		// blackout-straddling ops past plug-forward's flush.
		if plug.P99 >= gbn.P99 {
			t.Errorf("msg=%d: plug-forward p99 %v >= go-back-N p99 %v", plug.MsgSize, plug.P99, gbn.P99)
		}
		// Steady-state is untouched: both modes serve the same p50.
		if plug.P50 != gbn.P50 {
			t.Errorf("msg=%d: p50 differs across modes: %v vs %v", plug.MsgSize, plug.P50, gbn.P50)
		}
	}
}

// TestRepsLeaveNothingBehind: an experiment closes its rig, so running
// many in one process costs the heap of one. 300 cutover reps (the
// benchmark's cutover-gbn configuration) end with the live heap within
// 4 MB of what it was after rep 10 and with no goroutine more. Without
// the Close every rep strands its parked procs and the rig they pin:
// about 0.9 MB and one goroutine a rep.
func TestRepsLeaveNothingBehind(t *testing.T) {
	liveHeap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var heap10 uint64
	var goroutines10 int
	for rep := 1; rep <= 300; rep++ {
		if _, err := RunCutoverSeeded(runc.CutoverGoBackN, 8192, 2, 50, int64(rep)); err != nil {
			t.Fatal(err)
		}
		if rep == 10 {
			heap10, goroutines10 = liveHeap(), runtime.NumGoroutine()
		}
	}
	if heap := liveHeap(); heap > heap10+4<<20 {
		t.Errorf("live heap %.1f MB after 300 reps, %.1f MB after 10", float64(heap)/(1<<20), float64(heap10)/(1<<20))
	}
	if n := runtime.NumGoroutine(); n > goroutines10 {
		t.Errorf("%d goroutines after 300 reps, %d after 10", n, goroutines10)
	}
}

// TestCutoverRepAllocationBudget guards what a rep of the benchmark's
// cutover-gbn configuration allocates: at most 0.6 MB after a warm rep
// (about 0.29 MB with the shared zero page, dump records that point at
// the frames pages borrow, reserved rings and one inline SGE; 1.24 MB
// without them). It is not parallel, so nothing else allocates while it
// reads the allocator's total.
func TestCutoverRepAllocationBudget(t *testing.T) {
	repAllocationBudget(t, "cutover-gbn", 0.6, func() error {
		_, err := RunCutoverSeeded(runc.CutoverGoBackN, 8192, 2, 50, 1)
		return err
	})
}

// TestPageHogRepAllocationBudget guards what a rep of the benchmark's
// pagehog-mono configuration allocates: at most 1.0 MB after a warm rep
// (about 0.5 MB when the hog's pages borrow its tables, dump records
// point at those frames and restore installs records instead of copying
// them; 5.35 MB when every step copied the page).
func TestPageHogRepAllocationBudget(t *testing.T) {
	repAllocationBudget(t, "pagehog-mono", 1.0, func() error {
		_, err := RunPageChanSeeded(runc.TransferMonolithic, 8192, 2, 400, 1)
		return err
	})
}

// repAllocationBudget runs rep once to warm up, then fails the test if
// a second rep allocates more than budget MB.
func repAllocationBudget(t *testing.T, name string, budget float64, rep func() error) {
	if err := rep(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := rep(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("a %s rep allocates %.3f MB", name, mb)
	if mb > budget {
		t.Fatalf("a %s rep allocates %.3f MB, budget %.1f MB", name, mb, budget)
	}
}
