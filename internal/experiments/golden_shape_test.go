package experiments

import (
	"math"
	"testing"
)

// Golden shape tests for the experiment generators: they pin the
// structural properties every regenerated figure must keep
// (monotonicity, non-empty series, row ordering) without asserting
// exact values, mirroring fig3_test.go.

func TestFig4bShapeMonotoneInMsgSize(t *testing.T) {
	sizes := []int{1024, 16384, 65536}
	rows, err := Fig4b(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(sizes) {
		t.Fatalf("%d rows for %d sizes", len(rows), len(sizes))
	}
	for i, r := range rows {
		t.Logf("%s", r)
		if r.MsgSize != sizes[i] {
			t.Fatalf("row %d is size %d, want %d", i, r.MsgSize, sizes[i])
		}
		if r.WBS <= 0 || r.Theory <= 0 || r.Blackout <= 0 {
			t.Fatalf("empty row: %s", r)
		}
	}
	// The in-flight window grows with message size, so both the theory
	// value (inflight/rate) and the measured WBS must be monotone.
	for i := 1; i < len(rows); i++ {
		if rows[i].Theory <= rows[i-1].Theory {
			t.Errorf("theory not monotone in msg size: %v then %v", rows[i-1].Theory, rows[i].Theory)
		}
		if rows[i].WBS <= rows[i-1].WBS {
			t.Errorf("WBS not monotone in msg size: %v then %v", rows[i-1].WBS, rows[i].WBS)
		}
	}
}

func TestFig4cShapeNonEmptySeries(t *testing.T) {
	partners := []int{1, 2, 3}
	rows, err := Fig4c(partners)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(partners) {
		t.Fatalf("%d rows for %d partner counts", len(rows), len(partners))
	}
	for i, r := range rows {
		t.Logf("%s", r)
		if r.Partners != partners[i] {
			t.Fatalf("row %d has %d partners, want %d", i, r.Partners, partners[i])
		}
		if r.WBS <= 0 || r.Theory <= 0 || r.Blackout <= 0 || r.Comm <= 0 {
			t.Fatalf("empty row: %s", r)
		}
		// Suspending every partner QP cannot beat the one-partner
		// theory floor of the same total window.
		if r.WBS > r.Theory*10 {
			t.Errorf("partners=%d WBS %v wildly above theory %v", r.Partners, r.WBS, r.Theory)
		}
	}
}

func TestFig5ShapeTimelineSeries(t *testing.T) {
	res, err := fig5Sender()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", res)
	if len(res.Samples) == 0 {
		t.Fatal("empty sample series")
	}
	for i := 1; i < len(res.Samples); i++ {
		if res.Samples[i].T <= res.Samples[i-1].T {
			t.Fatalf("sample timestamps not strictly increasing at %d: %v then %v",
				i, res.Samples[i-1].T, res.Samples[i].T)
		}
	}
	if res.MigStart <= 0 || res.MigEnd <= res.MigStart {
		t.Fatalf("migration window [%v, %v] malformed", res.MigStart, res.MigEnd)
	}
	if last := res.Samples[len(res.Samples)-1].T; last <= res.MigEnd {
		t.Fatalf("series ends at %v, before migration end %v — recovery not sampled", last, res.MigEnd)
	}
	if res.Report == nil {
		t.Fatal("no migration report attached")
	}
	// The timeline must actually show the dip: some sample inside the
	// migration window is below the pre-migration baseline.
	dipped := false
	for _, s := range res.Samples {
		if s.T >= res.MigStart && s.T <= res.MigEnd && s.Gbps < res.BaselineGbps/2 {
			dipped = true
			break
		}
	}
	if !dipped {
		t.Error("no throughput dip visible inside the migration window")
	}
}

func TestFig6ShapeEstimatePI(t *testing.T) {
	base, err := fig6PiBaseline()
	if err != nil {
		t.Fatal(err)
	}
	mig, err := fig6PiMigrRDMA()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", base)
	t.Logf("%s", mig)
	for _, r := range []Fig6Row{base, mig} {
		if r.JCT <= 0 {
			t.Fatalf("%s: empty JCT", r.Scenario)
		}
		// The job's output must survive migration intact: the Monte
		// Carlo estimate still converges to π.
		if math.Abs(r.Pi-math.Pi) > 0.2 {
			t.Errorf("%s: pi estimate %.4f drifted from π", r.Scenario, r.Pi)
		}
	}
	if mig.JCT < base.JCT {
		t.Errorf("migrated JCT %v below baseline %v", mig.JCT, base.JCT)
	}
}

func TestTable4ShapeRowOrder(t *testing.T) {
	rows := table4Rows()
	want := []string{"send", "recv", "write", "read"}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		t.Logf("%s", r)
		if r.Op != want[i] {
			t.Errorf("row %d is %q, want %q", i, r.Op, want[i])
		}
		if r.GoBaseNS <= 0 || r.AddedNS <= 0 {
			t.Errorf("%s: non-positive timings", r.Op)
		}
		if r.PaperBaseCycles <= 0 || r.PaperOverheadPct <= 0 {
			t.Errorf("%s: paper comparison columns empty", r.Op)
		}
	}
}
