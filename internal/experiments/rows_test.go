package experiments

import (
	"fmt"
	"sync"
	"testing"

	"migrrdma/internal/hdfs"
	"migrrdma/internal/runc"
	"migrrdma/internal/sim"
)

// Rows that more than one test reads are simulated once per test binary.
var (
	fig3Send16NoPreSetup = sync.OnceValues(func() (Fig3Row, error) { return Fig3(16, true, false) })
	fig3Send16PreSetup   = sync.OnceValues(func() (Fig3Row, error) { return Fig3(16, true, true) })
	fig5Sender           = sync.OnceValues(func() (Fig5Result, error) { return Fig5(true) })
	table4Rows           = sync.OnceValue(Table4)
	fig6PiBaseline       = sync.OnceValues(func() (Fig6Row, error) { return Fig6(hdfs.EstimatePI, "baseline") })
	fig6PiMigrRDMA       = sync.OnceValues(func() (Fig6Row, error) { return Fig6(hdfs.EstimatePI, "migrrdma") })
	rkeyCache300         = sync.OnceValues(func() (RKeyCacheRow, error) { return AblationRKeyCache(300) })
	drainHalfRacksPar4   = sync.OnceValues(func() (DrainPoint, error) {
		return RunDrainExpSeeded(DrainHalfRacks, 4, drainExpSeed)
	})
	tenancyGoBackN64 = sync.OnceValues(func() (TenancyRow, error) {
		return RunTenancySeeded(runc.CutoverGoBackN, 64, tenancySeed)
	})
	tenancyTransferPipelined128 = sync.OnceValues(func() (TenancyRow, error) {
		return RunTenancyTransferSeeded(runc.CutoverPlugForward, runc.TransferPipelined, 128, tenancySeed)
	})
	fig4Partners1      = sync.OnceValues(func() (Fig4Row, error) { return Fig4Seeded(1, 4096, 1, fig4BaseSeed) })
	cutoverGoBackN8192 = sync.OnceValues(func() (CutoverRow, error) {
		return RunCutoverSeeded(runc.CutoverGoBackN, 8192, 2, 50, cutoverSeed)
	})
	pagechanPipelined8192 = sync.OnceValues(func() (PageChanRow, error) {
		return RunPageChanSeeded(runc.TransferPipelined, 8192, 2, 400, pagechanSeed)
	})
)

// TestRowsUnchangedByTheRunner is the experiments' own golden: the
// rendered row of one cheap point per experiment the fixed benchmark
// does not pin, captured at commit 1655918, the last one where every
// experiment hand-rolled its driver. A refactor of how rigs are driven
// reproduces every line; a change that means to move a simulated number
// re-captures the lines it moves and says why. Commit 27c4e13
// re-captured five of today's rows (fig4 partners=4, rkey cache, both
// tenancy rows, drain): control frames shrank with the codec, so each
// moved in its last digits and none later or slower. The four cutover
// and pagechan rows, captured at commit 0bbc9e2, pin the cutover and
// transfer comparisons, which share one latency-mode server migration,
// and the page hog the transfer rows run. The §6 row, captured at the
// change that built it on the Fig. 3 migration, pins MigrRDMA's
// measured side and MigrOS's modelled one.
func TestRowsUnchangedByTheRunner(t *testing.T) {
	row := func(r any, err error) (string, error) { return fmt.Sprint(r), err }
	for _, c := range []struct {
		name string
		run  func() (string, error)
		want string
	}{
		{"fig4 partners=1", func() (string, error) { return row(fig4Partners1()) },
			"QPs=1    msg=4096    partners=1  WBS=29µs         theory=21µs         (x1.39)  blackout=2.183ms    comm=3.212ms"},
		{"fig4 partners=2", func() (string, error) { return row(Fig4Seeded(2, 4096, 2, fig4BaseSeed)) },
			"QPs=2    msg=4096    partners=2  WBS=52µs         theory=42µs         (x1.25)  blackout=2.311ms    comm=3.363ms"},
		{"fig4 partners=4", func() (string, error) { return row(Fig4Seeded(4, 4096, 4, fig4BaseSeed)) },
			"QPs=4    msg=4096    partners=4  WBS=99µs         theory=84µs         (x1.18)  blackout=2.589ms    comm=3.688ms"},
		{"fig6 pi baseline", func() (string, error) { return row(fig6PiBaseline()) },
			"EstimatePI baseline  JCT=30.001s  pi=3.1425"},
		{"fig6 pi migrrdma", func() (string, error) { return row(fig6PiMigrRDMA()) },
			"EstimatePI migrrdma  JCT=30.001s  pi=3.1425"},
		{"fig6 pi failover", func() (string, error) { return row(Fig6(hdfs.EstimatePI, "failover")) },
			"EstimatePI failover  JCT=43.001s  pi=3.1425"},
		{"latency", func() (string, error) { return row(LatencyAcrossMigration()) },
			"ops=452 p50=4µs p99=4µs max=125ms (service blackout 125ms)"},
		{"rkey cache", func() (string, error) { return row(rkeyCache300()) },
			"msgs=300    cached=246339 ops/s (fetches=1)  uncached=123732 ops/s  speedup=x2.0"},
		{"tenancy go-back-N 64", func() (string, error) { return row(tenancyGoBackN64()) },
			"go-back-n    sessions=64    blackout=4.143ms   replay=0s        total=20.689ms  pages=53     acked=256    drain=7µs      "},
		{"tenancy plug-forward 64", func() (string, error) {
			return row(RunTenancySeeded(runc.CutoverPlugForward, 64, tenancySeed))
		},
			"plug-forward sessions=64    blackout=4.147ms   replay=0s        total=20.693ms  pages=53     acked=256    drain=7µs      "},
		{"drain half-racks par=4", func() (string, error) { return row(drainHalfRacksPar4()) },
			"half-racks  par=4  migs=32  qps=2048  p50=8.69ms    p95=8.69ms    p99=8.69ms    max=8.69ms    elapsed=577.535ms  samerack=32/32 spine=159MB slo-miss=0"},
		{"cutover go-back-N", func() (string, error) { return row(cutoverGoBackN8192()) },
			"go-back-n    msg=8192   qps=2  ops=100   p50=250µs     p99=2.233ms   max=2.233ms   retx=4    dup=4    wire=870774    flushed=0   fwd=0"},
		{"cutover plug-forward", func() (string, error) {
			return row(RunCutoverSeeded(runc.CutoverPlugForward, 8192, 2, 50, cutoverSeed))
		},
			"plug-forward msg=8192   qps=2  ops=100   p50=250µs     p99=2.171ms   max=2.171ms   retx=0    dup=0    wire=853700    flushed=4   fwd=0"},
		{"pagechan monolithic", func() (string, error) {
			return row(RunPageChanSeeded(runc.TransferMonolithic, 8192, 2, 400, pagechanSeed))
		},
			"monolithic   msg=8192   ops=800   p50=250µs     p99=250µs     blackout=3.503ms   pages=1013  distinct=227   elided=0     wire=4167431   finalwire=827334   rounds=5"},
		{"pagechan pipelined", func() (string, error) { return row(pagechanPipelined8192()) },
			"pipelined    msg=8192   ops=800   p50=250µs     p99=250µs     blackout=3.384ms   pages=617   distinct=225   elided=392   wire=928231    finalwire=112134   rounds=3"},
		{"migros 16", func() (string, error) {
			f, err := fig3Send16PreSetup()
			return row(migrOSRow(f), err)
		},
			"QPs=16    MigrOS: wait=361µs xfer=129.545ms total=129.906ms | MigrRDMA: wait=361µs xfer=127.544ms total=127.906ms  gap=+1.6%"},
	} {
		got, err := c.run()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		} else if got != c.want {
			t.Errorf("%s moved:\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}

// TestRowsDoNotDependOnTheSeed: a rig that draws no fault never calls
// the scheduler's random source, so one cheap point of every seeded
// entry point the fixed benchmark runs, and of the tenancy sweep's,
// renders the same row at its canonical seed and at the seed the
// benchmark's first rep derives from it. It is why each figure point
// is one simulation with no replicas to take a median over, and what
// the benchmark's blackout gate relies on; comparing two runs also
// catches run-to-run nondeterminism.
func TestRowsDoNotDependOnTheSeed(t *testing.T) {
	t.Run("fig4", func(t *testing.T) {
		sameAtDerivedSeed(t, fig4Partners1, fig4BaseSeed, func(seed int64) (Fig4Row, error) {
			return Fig4Seeded(1, 4096, 1, seed)
		})
	})
	t.Run("cutover", func(t *testing.T) {
		sameAtDerivedSeed(t, cutoverGoBackN8192, cutoverSeed, func(seed int64) (CutoverRow, error) {
			return RunCutoverSeeded(runc.CutoverGoBackN, 8192, 2, 50, seed)
		})
	})
	t.Run("pagechan", func(t *testing.T) {
		sameAtDerivedSeed(t, pagechanPipelined8192, pagechanSeed, func(seed int64) (PageChanRow, error) {
			return RunPageChanSeeded(runc.TransferPipelined, 8192, 2, 400, seed)
		})
	})
	t.Run("tenancy", func(t *testing.T) {
		sameAtDerivedSeed(t, tenancyGoBackN64, tenancySeed, func(seed int64) (TenancyRow, error) {
			return RunTenancySeeded(runc.CutoverGoBackN, 64, seed)
		})
	})
	t.Run("tenancy-transfer", func(t *testing.T) {
		sameAtDerivedSeed(t, tenancyTransferPipelined128, tenancySeed, func(seed int64) (TenancyRow, error) {
			return RunTenancyTransferSeeded(runc.CutoverPlugForward, runc.TransferPipelined, 128, seed)
		})
	})
	t.Run("drain", func(t *testing.T) {
		sameAtDerivedSeed(t, drainHalfRacksPar4, drainExpSeed, func(seed int64) (DrainPoint, error) {
			return RunDrainExpSeeded(DrainHalfRacks, 4, seed)
		})
	})
}

// sameAtDerivedSeed fails the test unless the row at seed's first
// derived seed equals the canonical row, simulated at seed.
func sameAtDerivedSeed[R comparable](t *testing.T, canonical func() (R, error), seed int64, at func(seed int64) (R, error)) {
	want, err := canonical()
	if err != nil {
		t.Fatal(err)
	}
	derived := sim.DeriveSeed(seed, 1)
	got, err := at(derived)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("seed %d and seed %d diverged:\n  %v\n  %v", seed, derived, want, got)
	}
}
