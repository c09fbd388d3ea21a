package experiments

import "testing"

// TestDrainExpPlacementContrast runs one point of each drain variant
// and checks the shape the experiment exists to show: the half-racks
// drain leaves same-rack headroom so the prefer-same-rack policy keeps
// every migration off the spine, while evacuating whole racks forces
// every placement across it — and the forced crossings bill more
// uplink traffic for the same drain.
func TestDrainExpPlacementContrast(t *testing.T) {
	half, err := drainHalfRacksPar4()
	if err != nil {
		t.Fatal(err)
	}
	whole, err := RunDrainExpSeeded(DrainWholeRacks, 4, drainExpSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []DrainPoint{half, whole} {
		if p.Migrations != DrainExpEvacuated {
			t.Errorf("%s: %d migrations, want %d", p.Variant, p.Migrations, DrainExpEvacuated)
		}
		if p.P50 <= 0 || p.Elapsed <= 0 {
			t.Errorf("%s: empty timings: %s", p.Variant, p)
		}
		if p.SLOMisses != 0 {
			t.Errorf("%s: %d SLO misses at a %v SLO", p.Variant, p.SLOMisses, drainExpSLO)
		}
	}
	if half.SameRackDst != DrainExpEvacuated {
		t.Errorf("half-racks placed %d/%d same-rack, want all", half.SameRackDst, DrainExpEvacuated)
	}
	if whole.SameRackDst != 0 {
		t.Errorf("whole-racks placed %d migrations same-rack, want none", whole.SameRackDst)
	}
	if whole.SpineBytes <= half.SpineBytes {
		t.Errorf("cross-rack placement did not cost spine traffic: half=%d whole=%d",
			half.SpineBytes, whole.SpineBytes)
	}
}

// TestDrainExpParallelismShrinksWindow pins the MaxParallel knob: 8×
// the parallelism must shrink the drain window several-fold without
// moving the per-migration blackout materially.
func TestDrainExpParallelismShrinksWindow(t *testing.T) {
	p1, err := RunDrainExpSeeded(DrainHalfRacks, 1, drainExpSeed)
	if err != nil {
		t.Fatal(err)
	}
	p8, err := RunDrainExpSeeded(DrainHalfRacks, 8, drainExpSeed)
	if err != nil {
		t.Fatal(err)
	}
	if p8.Elapsed*4 > p1.Elapsed {
		t.Errorf("par=8 window %v not ≥4× shorter than par=1's %v", p8.Elapsed, p1.Elapsed)
	}
	if p8.P99 > 2*p1.P99 {
		t.Errorf("parallelism inflated blackout: p99 %v → %v", p1.P99, p8.P99)
	}
}
