package chaos

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// tier returns the catalogue entries named "<tier>/…".
func tier(t *testing.T, name string) []Scenario {
	t.Helper()
	var out []Scenario
	for _, sc := range Scenarios() {
		if strings.HasPrefix(sc.Name, name+"/") {
			out = append(out, sc)
		}
	}
	if len(out) == 0 {
		t.Fatalf("catalogue has no %q tier", name)
	}
	return out
}

// scenario returns one catalogue entry.
func scenario(t *testing.T, name string) Scenario {
	t.Helper()
	sc, ok := ScenarioByName(name)
	if !ok {
		t.Fatalf("scenario %s missing", name)
	}
	return sc
}

// seedsTo returns 1..n.
func seedsTo(n int64) []int64 {
	var out []int64
	for s := int64(1); s <= n; s++ {
		out = append(out, s)
	}
	return out
}

// sweep is the one table-driven acceptance test behind every per-tier
// sweep: each scenario at each seed, as subtest <schedule>/seed<n>, must
// come back with no violation. Everything a tier used to assert next to
// its loop — final stage, completed traffic, the vacuity guards — is a
// checker or a MustMove entry of the scenario now, so it is judged here
// and by every migrchaos run alike.
func sweep(t *testing.T, scenarios []Scenario, seeds []int64) {
	for _, sc := range scenarios {
		_, short, _ := strings.Cut(sc.Name, "/")
		t.Run(short, func(t *testing.T) {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					rep := Run(seed, sc)
					if !rep.OK() {
						t.Errorf("%s\n  %s\nreplay with: go run ./cmd/migrchaos -scenario %s -seed %d -v",
							rep, strings.Join(rep.Violations, "\n  "), sc.Name, seed)
					}
				})
			}
		})
	}
}

// withCap returns copies of the scenarios with their MaxParallel
// overridden (the goldens pin cap 2; cap 3 lets all three concurrent
// migrations overlap, cap 1 serializes them).
func withCap(cap int, scenarios ...Scenario) []Scenario {
	out := append([]Scenario(nil), scenarios...)
	for i := range out {
		out[i].Migrate.Cap = cap
	}
	return out
}

// The per-tier sweeps. Seed counts keep each inside the package budget;
// the golden seeds are the ones the golden gate pins.
func TestChaosSweep(t *testing.T)               { sweep(t, tier(t, "single"), seedsTo(32)) }
func TestAbortRecovery(t *testing.T)            { sweep(t, tier(t, "abort"), []int64{1, 7}) }
func TestPlugSchedulesAcrossSeeds(t *testing.T) { sweep(t, tier(t, "plug"), GoldenSeeds) }
func TestPlugAbortSweep(t *testing.T)           { sweep(t, tier(t, "plug-abort"), GoldenSeeds) }
func TestPipelinedChaosSweep(t *testing.T)      { sweep(t, tier(t, "pipelined"), seedsTo(8)) }
func TestPipelinedAbortRecovery(t *testing.T)   { sweep(t, tier(t, "pipelined-abort"), []int64{1, 7}) }
func TestTenantSchedules(t *testing.T)          { sweep(t, tier(t, "tenant"), GoldenSeeds) }
func TestDrainSchedulesPass(t *testing.T)       { sweep(t, tier(t, "drain"), []int64{7}) }
func TestConcurrentChaosSweep(t *testing.T) {
	sweep(t, withCap(3, tier(t, "concurrent")...), seedsTo(6))
}

// sameSeedSameHashes pins the determinism contract for the named
// scenarios: re-running any (seed, scenario) yields byte-identical
// behaviour and telemetry hashes, event counts and traffic totals — an
// abort and its rollback are as replayable as a successful migration.
func sameSeedSameHashes(t *testing.T, scenarios []Scenario, seeds []int64) {
	for _, sc := range scenarios {
		_, short, _ := strings.Cut(sc.Name, "/")
		t.Run(short, func(t *testing.T) {
			for _, seed := range seeds {
				a, b := Run(seed, sc), Run(seed, sc)
				if a.Behaviour != b.Behaviour {
					t.Fatalf("seed %d: behaviour hash differs across runs:\n  %s\n  %s", seed, a.Behaviour, b.Behaviour)
				}
				if a.Telemetry != b.Telemetry {
					t.Fatalf("seed %d: telemetry hash differs across runs:\n  %s\n  %s", seed, a.Telemetry, b.Telemetry)
				}
				if a.Events == 0 {
					t.Fatalf("seed %d: empty ledger", seed)
				}
				if a.Events != b.Events || a.Completed != b.Completed || a.Dropped != b.Dropped {
					t.Fatalf("seed %d: run diverged: %s vs %s", seed, a, b)
				}
			}
		})
	}
}

func TestSameSeedSameHash(t *testing.T) {
	sameSeedSameHashes(t, tier(t, "single"), []int64{3, 17})
}
func TestAbortDeterminism(t *testing.T) {
	sameSeedSameHashes(t, []Scenario{scenario(t, "abort/finalize")}, []int64{3})
}
func TestPlugDeterminism(t *testing.T) {
	sameSeedSameHashes(t, []Scenario{scenario(t, "plug/clean-plug"), scenario(t, "plug/forward-stragglers")}, []int64{1})
}
func TestPipelinedSameSeedSameHash(t *testing.T) {
	sameSeedSameHashes(t, []Scenario{scenario(t, "pipelined/pipe-clean"), scenario(t, "pipelined/pipe-loss-burst")}, []int64{3, 17})
}
func TestPipelinedAbortDeterminism(t *testing.T) {
	sameSeedSameHashes(t, []Scenario{scenario(t, "pipelined-abort/final#2")}, []int64{3})
}
func TestTenantDeterminism(t *testing.T) {
	sameSeedSameHashes(t, []Scenario{scenario(t, "tenant/tenant-freeze-partition")}, []int64{7})
}
func TestDrainDeterminism(t *testing.T) {
	sc := scenario(t, "drain/drain-uplink-loss")
	sameSeedSameHashes(t, []Scenario{sc}, []int64{3})
	if Run(3, sc).Behaviour == Run(4, sc).Behaviour {
		t.Fatal("behaviour hash insensitive to seed")
	}
}

// TestConcurrentSameSeedSameHashAndMetrics extends the determinism
// contract to overlapping migrations: identical hashes and rendered
// snapshots, and the counters must see all three migrations.
func TestConcurrentSameSeedSameHashAndMetrics(t *testing.T) {
	sc := withCap(3, scenario(t, "concurrent/concurrent-loss"))
	sameSeedSameHashes(t, sc, []int64{7})
	a, b := Run(7, sc[0]), Run(7, sc[0])
	if ra, rb := a.Metrics.String(), b.Metrics.String(); ra != rb {
		t.Fatalf("metric snapshots differ across identical runs:\n--- a ---\n%s\n--- b ---\n%s", ra, rb)
	}
	if got := a.Metrics.Sum("migr", "migrations"); got != 3 {
		t.Errorf("migrations counter = %d, want 3", got)
	}
	if got := a.Metrics.Sum("migmgr", "completed"); got != 3 {
		t.Errorf("migmgr completed counter = %d, want 3", got)
	}
}

// TestSameSeedSameMetrics extends the determinism contract to the
// metrics layer: two identical seeded runs must render byte-identical
// registry snapshots (which the telemetry hash folds in).
func TestSameSeedSameMetrics(t *testing.T) {
	sc := scenario(t, "single/loss-burst")
	a, b := Run(7, sc), Run(7, sc)
	ra, rb := a.Metrics.String(), b.Metrics.String()
	if ra != rb {
		t.Fatalf("metric snapshots differ across identical runs:\n--- a ---\n%s\n--- b ---\n%s", ra, rb)
	}
	if a.Metrics.Hash() != b.Metrics.Hash() {
		t.Fatal("snapshot hashes differ despite identical renders")
	}
	// The snapshot must actually carry the instrumented layers.
	for _, key := range []string{"fabric/", "rnic/", "core/", "migr/"} {
		if !strings.Contains(ra, key) {
			t.Errorf("snapshot missing %s* series:\n%s", key, ra)
		}
	}
	if a.Metrics.Sum("rnic", "cqes") == 0 {
		t.Error("no CQEs counted over a full chaos run")
	}
	if a.Metrics.Sum("migr", "migrations") != 1 {
		t.Errorf("migrations counter = %d, want 1", a.Metrics.Sum("migr", "migrations"))
	}
}

// TestDistinctSeedsDistinctTraces guards against a hash that ignores
// its inputs: different seeds must (overwhelmingly) produce different
// ledgers once faults draw from the RNG.
func TestDistinctSeedsDistinctTraces(t *testing.T) {
	sc := scenario(t, "single/loss-burst")
	a, b := Run(101, sc), Run(102, sc)
	if a.Behaviour == b.Behaviour {
		t.Fatalf("seeds 101 and 102 produced identical ledgers (%s)", a.Behaviour)
	}
}

// TestPlugScheduleByName covers the lookup used by cmd/migrchaos, and
// that catalogue names are unique (they are golden and replay keys).
func TestPlugScheduleByName(t *testing.T) {
	if _, ok := ScenarioByName("plug/clean-plug"); !ok {
		t.Error("plug/clean-plug not found")
	}
	if _, ok := ScenarioByName("no-such/scenario"); ok {
		t.Error("lookup invented a scenario")
	}
	seen := make(map[string]bool)
	for _, sc := range Scenarios() {
		if seen[sc.Name] {
			t.Errorf("catalogue lists %s twice", sc.Name)
		}
		seen[sc.Name] = true
	}
}

// TestPhaseFaultLandsInWindow verifies a phase-armed fault actually
// fires during its stage rather than being dropped.
func TestPhaseFaultLandsInWindow(t *testing.T) {
	rep := Run(2, scenario(t, "single/mid-freeze-partition"))
	if rep.FaultsArmed == 0 {
		t.Fatal("no phase fault armed")
	}
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	mrep := rep.Migrations[0].Report
	if mrep == nil {
		t.Fatal("no migration report")
	}
	if mrep.WBS.Elapsed <= 0 {
		t.Fatal("wait-before-stop did not run")
	}
}

// TestRunStaysInBudget keeps one run cheap enough that the full sweep
// fits the package budget with a wide margin.
func TestRunStaysInBudget(t *testing.T) {
	start := time.Now()
	rep := Run(42, scenario(t, "single/clean"))
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("single run took %v", wall)
	}
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
}

// TestPlugVsGoBackN is the §1 zero-loss cutover claim as a direct
// contrast: the identical fault-free server migration retransmits
// nothing in plug-forward mode and plenty in go-back-N mode, with both
// modes delivering exactly-once in order.
func TestPlugVsGoBackN(t *testing.T) {
	sc := scenario(t, "plug/clean-plug")
	plug := Run(1, sc)
	// The contrast run keeps the rig and workload and drops the mode,
	// and with it the plug's guards and checker.
	sc.Migrate.Cutover = 0
	sc.MustMove, sc.Checkers = nil, []Checker{ledgerChecker}
	gbn := Run(1, sc)
	for _, v := range plug.Violations {
		t.Errorf("plug: %s", v)
	}
	for _, v := range gbn.Violations {
		t.Errorf("go-back-N: %s", v)
	}
	if pRetx := plug.Metrics.Sum("rnic", "retx_packets"); pRetx != 0 {
		t.Errorf("plug-forward retransmitted %d packets, want 0", pRetx)
	}
	if gbn.Metrics.Sum("rnic", "retx_packets") == 0 {
		t.Error("go-back-N cutover retransmitted nothing — the contrast is vacuous")
	}
	if plug.Metrics.Sum("fabric", "plug_buffered_packets") == 0 {
		t.Error("plug-forward mode never buffered a frame")
	}
	if gbn.Metrics.Sum("fabric", "plug_buffered_packets") != 0 {
		t.Error("go-back-N mode buffered frames in a plug that should not exist")
	}
}

// TestConcurrentFullOverlap pins the concurrent tier's acceptance shape:
// under cap 3 on the clean schedule, all three migrations must actually
// overlap in time — every one starts before the first one finishes —
// covering the node that is simultaneously source (cli1), destination
// (cli2), and partner (cli3).
func TestConcurrentFullOverlap(t *testing.T) {
	rep := Run(7, withCap(3, scenario(t, "concurrent/concurrent-clean"))[0])
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if len(rep.Migrations) != 3 {
		t.Fatalf("%d migrations, want 3", len(rep.Migrations))
	}
	var maxStart, minFinish time.Duration
	for i, j := range rep.Migrations {
		if j.Started > maxStart {
			maxStart = j.Started
		}
		if i == 0 || j.Finished < minFinish {
			minFinish = j.Finished
		}
	}
	if maxStart >= minFinish {
		t.Fatalf("migrations did not overlap: last start %v >= first finish %v", maxStart, minFinish)
	}
	// Each source host's executor job IDs must be visible in the metrics
	// labels.
	snap := rep.Metrics.String()
	for _, id := range []string{"mig=a/m1", "mig=b/m1", "mig=c/m1"} {
		if !strings.Contains(snap, id) {
			t.Errorf("metrics snapshot missing label %s", id)
		}
	}
}

// TestConcurrentCapSerializes verifies MaxParallel: with cap 1 the
// three migrations must run strictly one after another, and later ones
// must start after the first.
func TestConcurrentCapSerializes(t *testing.T) {
	rep := Run(7, withCap(1, scenario(t, "concurrent/concurrent-clean"))[0])
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	for i := 1; i < len(rep.Migrations); i++ {
		prev, cur := rep.Migrations[i-1], rep.Migrations[i]
		if cur.Started < prev.Finished {
			t.Fatalf("%s started at %v before %s finished at %v under cap 1",
				cur.ID, cur.Started, prev.ID, prev.Finished)
		}
		// Everything was submitted together, so later migrations must
		// have waited at least one full predecessor migration.
		if cur.Started <= rep.Migrations[0].Started {
			t.Fatalf("%s reports no queue wait under cap 1", cur.ID)
		}
	}
}
