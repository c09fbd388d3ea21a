package experiments

import (
	"testing"
	"time"

	"migrrdma/internal/fabric"
	"migrrdma/internal/hdfs"
	"migrrdma/internal/rnic"
	"migrrdma/internal/sim"
)

func TestFig4aTheoryShape(t *testing.T) {
	rows, err := Fig4a([]int{8, 32})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%s", r)
		if r.Theory == 0 {
			t.Fatalf("zero theory value: %s", r)
		}
		// §5.4: measured ≤ theory for 4 KB messages (NIC already
		// completed part of the window), within polling slack.
		if r.WBS > r.Theory*3 {
			t.Errorf("WBS %v far above theory %v", r.WBS, r.Theory)
		}
	}
	if rows[1].WBS <= rows[0].WBS {
		t.Errorf("WBS did not grow with QPs: %v vs %v", rows[0].WBS, rows[1].WBS)
	}
}

// TestFig4TimerHeapStaysSmall: at line rate the timer heap does not grow
// with the frames in flight or with the QPs. A port's deliveries and a
// device's retransmission timers each take one heap entry (sim.Lane), and
// a parked completion poller takes none (it waits on its CQ's cond), so
// a 16-QP Fig. 4 point peaks at 10 entries. With one entry per frame in
// flight and one per QP it peaked at 313; with a 100 µs wait slice per
// parked poller, at 12.
func TestFig4TimerHeapStaysSmall(t *testing.T) {
	r := newFig4Rig(1, fig4BaseSeed)
	defer r.Close()
	if _, err := r.fig4(16, 4096, 1); err != nil {
		t.Fatal(err)
	}
	if peak := r.CL.Sched.TimerHeapPeak(); peak > 10 {
		t.Errorf("timer heap peaked at %d entries, want at most 10", peak)
	}
}

func TestFig4bSmallMessagesCPUBound(t *testing.T) {
	rows, err := Fig4b([]int{512, 65536})
	if err != nil {
		t.Fatal(err)
	}
	small, large := rows[0], rows[1]
	t.Logf("small: %s", small)
	t.Logf("large: %s", large)
	ratioSmall := float64(small.WBS) / float64(small.Theory)
	ratioLarge := float64(large.WBS) / float64(large.Theory)
	// §5.4: at 512 B the CPU cost of completion processing dominates
	// (measured ≈ 6× theory); at large sizes the wire dominates.
	if ratioSmall < 2 {
		t.Errorf("512B WBS/theory = %.2f, want CPU-bound (≥2)", ratioSmall)
	}
	if ratioLarge > 2 {
		t.Errorf("64KB WBS/theory = %.2f, want wire-bound (≤2)", ratioLarge)
	}
}

func TestFig4cPartners(t *testing.T) {
	rows, err := Fig4c([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%s", r)
	}
}

func TestFig5SenderTimeline(t *testing.T) {
	res, err := fig5Sender()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", res)
	if res.BaselineGbps < 50 {
		t.Errorf("baseline %.1f Gbps, want near line rate", res.BaselineGbps)
	}
	if res.ObservedBlackout == 0 {
		t.Error("no blackout observed in the timeline")
	}
	if res.ObservedBlackout > 2*time.Second {
		t.Errorf("blackout %v implausibly long", res.ObservedBlackout)
	}
	if res.RecoveredGbps < res.BaselineGbps/2 {
		t.Errorf("throughput did not recover: %.1f vs baseline %.1f", res.RecoveredGbps, res.BaselineGbps)
	}
}

func TestFig5ReceiverTimeline(t *testing.T) {
	res, err := Fig5(false)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", res)
	if res.ObservedBlackout == 0 {
		t.Error("no blackout observed")
	}
	if res.RecoveredGbps < res.BaselineGbps/2 {
		t.Errorf("throughput did not recover: %.1f vs %.1f", res.RecoveredGbps, res.BaselineGbps)
	}
}

// TestSamplerSeries: the Fig. 5 sampler reads the device's byte counter
// from the registry, so raw fabric frames (no device pacer) leave the
// series well-formed and zero.
func TestSamplerSeries(t *testing.T) {
	s := sim.New(1)
	net := fabric.New(s, fabric.Config{})
	dev := rnic.NewDevice(net, fabric.NewMux(net, "a"), "a", rnic.Config{})
	fabric.NewMux(net, "b")
	smp := newSampler(dev, 5*time.Millisecond, false)
	s.Go("sampler", smp.Run)
	s.Go("traffic", func() {
		// Idle 20 ms, then raw frames out of "a" for 30 ms, then idle.
		s.Sleep(20 * time.Millisecond)
		for i := 0; i < 30; i++ {
			net.Send(fabric.Frame{Src: "a", Dst: "b", Port: "x", Size: 1 << 20})
			s.Sleep(time.Millisecond)
		}
		s.Sleep(30 * time.Millisecond)
		smp.Stop()
	})
	s.RunFor(time.Second)
	if len(smp.samples) < 10 {
		t.Fatalf("only %d samples", len(smp.samples))
	}
	if _, max := smp.MinMax(0, time.Second); max != 0 {
		t.Fatalf("unexpected device throughput %v", max)
	}
	if z := smp.ZeroSpan(0, 80*time.Millisecond); z < 50*time.Millisecond {
		t.Fatalf("zero span %v, want most of the window", z)
	}
}

func TestTable4OverheadBand(t *testing.T) {
	for _, r := range table4Rows() {
		t.Logf("%s", r)
		if r.OverheadPct <= 0 {
			t.Errorf("%s: non-positive overhead", r.Op)
		}
		// The paper's band is 3–9% in C; Go's call/copy overheads put the
		// uncontended measurement around 15–35% here (see EXPERIMENTS.md
		// for the methodology). The structural claim — a small constant
		// per-op cost, independent of the number of MRs — is what must
		// hold; the bound below only guards against regressions that
		// reintroduce per-op allocation or list walks.
		if r.OverheadPct > 80 {
			t.Errorf("%s: overhead %.1f%% — translation is no longer O(1)-cheap", r.Op, r.OverheadPct)
		}
		if r.AddedNS > 100 {
			t.Errorf("%s: added %.1f ns per op — per-op allocation crept back in", r.Op, r.AddedNS)
		}
	}
}

func TestFig6MigrationBeatsFailover(t *testing.T) {
	base, err := Fig6(hdfs.TestDFSIO, "baseline")
	if err != nil {
		t.Fatal(err)
	}
	mig, err := Fig6(hdfs.TestDFSIO, "migrrdma")
	if err != nil {
		t.Fatal(err)
	}
	fo, err := Fig6(hdfs.TestDFSIO, "failover")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", base)
	t.Logf("%s", mig)
	t.Logf("%s", fo)
	extraMig := mig.JCT - base.JCT
	extraFO := fo.JCT - base.JCT
	if extraMig <= 0 {
		t.Errorf("migration extra JCT %v should be positive", extraMig)
	}
	if extraFO < 4*extraMig {
		t.Errorf("failover extra %v not clearly worse than migration extra %v", extraFO, extraMig)
	}
	if mig.TputGbps <= fo.TputGbps {
		t.Errorf("migration Tput %.2f should beat failover %.2f", mig.TputGbps, fo.TputGbps)
	}
}

func TestAblationKeyTable(t *testing.T) {
	rows := AblationKeyTable([]int{64, 1024})
	for _, r := range rows {
		t.Logf("%s", r)
		if !r.Skewed && r.ListNS < r.ArrayNS {
			t.Errorf("MRs=%d uniform: list %0.1fns beat array %0.1fns", r.MRs, r.ListNS, r.ArrayNS)
		}
	}
}

func TestAblationRKeyCache(t *testing.T) {
	row, err := rkeyCache300()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", row)
	if row.CachedOps <= row.UncachedOps {
		t.Errorf("cache should speed up one-sided ops: %.0f vs %.0f", row.CachedOps, row.UncachedOps)
	}
	if row.Fetches > 4 {
		t.Errorf("cached run fetched %d times, want ~1", row.Fetches)
	}
}

// TestMigrOSCompareRows: §6 on measured rows. MigrRDMA's side is the
// Fig. 3 pre-setup sender migration to the nanosecond; MigrOS waits as
// long, its blackout is longer, and the gap grows with QPs (PAPER.md,
// the MigrOS row).
func TestMigrOSCompareRows(t *testing.T) {
	var gaps []time.Duration
	for _, run := range []func() (Fig3Row, error){
		fig3Send16PreSetup,
		func() (Fig3Row, error) { return Fig3(256, true, true) },
	} {
		f, err := run()
		if err != nil {
			t.Fatal(err)
		}
		r := migrOSRow(f)
		t.Logf("%s", r)
		if r.MigrRDMA.Transfer != f.ServiceBlackout || r.MigrRDMA.Total() != f.CommBlackout {
			t.Errorf("QPs=%d: MigrRDMA transfer/total %v/%v, the run measured %v/%v",
				f.QPs, r.MigrRDMA.Transfer, r.MigrRDMA.Total(), f.ServiceBlackout, f.CommBlackout)
		}
		if r.MigrOS.Wait != r.MigrRDMA.Wait {
			t.Errorf("QPs=%d: wait differs: MigrOS %v, MigrRDMA %v", f.QPs, r.MigrOS.Wait, r.MigrRDMA.Wait)
		}
		if r.MigrOS.Total() <= r.MigrRDMA.Total() {
			t.Errorf("QPs=%d: MigrOS %v not longer than MigrRDMA %v", f.QPs, r.MigrOS.Total(), r.MigrRDMA.Total())
		}
		gaps = append(gaps, r.MigrOS.Total()-r.MigrRDMA.Total())
	}
	if gaps[1] <= gaps[0] {
		t.Errorf("gap did not grow from 16 to 256 QPs: %v, %v", gaps[0], gaps[1])
	}
}
