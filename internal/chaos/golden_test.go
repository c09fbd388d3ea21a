package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"migrrdma/internal/metrics"
)

const goldenPath = "testdata/golden_hashes.json"

// goldenDrift says how a run departs from its golden entry, or "" when
// it does not. The two failures mean different things and are fixed
// differently (DESIGN.md "Chaos harness"), so they read differently.
func goldenDrift(got, want GoldenResult) string {
	switch {
	case got.Behaviour != want.Behaviour:
		return fmt.Sprintf("event order or timing changed: behaviour hash\n  want %s\n  got  %s\n"+
			"  (a data-path or control-message change moved an event; re-baseline with\n"+
			"  UPDATE_CHAOS_GOLDENS=behaviour only if every checker passes and CHANGES.md explains the diff)",
			want.Behaviour, got.Behaviour)
	case got.Telemetry != want.Telemetry:
		return fmt.Sprintf("only counters moved; UPDATE_CHAOS_GOLDENS=telemetry: telemetry hash\n  want %s\n  got  %s\n"+
			"  (the ledger is byte-identical; `go run ./cmd/migrctl stats` at parent and change shows which metric)",
			want.Telemetry, got.Telemetry)
	}
	return ""
}

// rebaseline applies the re-baseline protocol: mode "behaviour" accepts
// the new results whole; mode "telemetry" accepts them only if every
// behaviour hash — and the set of runs — is what the golden file already
// holds, so a counter change can never smuggle a behaviour change in.
func rebaseline(mode string, got, want []GoldenResult) ([]GoldenResult, error) {
	switch mode {
	case "behaviour":
		return got, nil
	case "telemetry":
		wantBy := make(map[string]GoldenResult, len(want))
		for _, w := range want {
			wantBy[w.Key()] = w
		}
		if len(got) != len(want) {
			return nil, fmt.Errorf("telemetry re-baseline refused: %d runs, golden file has %d (a new or removed scenario is a behaviour change)", len(got), len(want))
		}
		for _, g := range got {
			w, ok := wantBy[g.Key()]
			if !ok {
				return nil, fmt.Errorf("telemetry re-baseline refused: %s has no golden (a new scenario is a behaviour change)", g.Key())
			}
			if g.Behaviour != w.Behaviour {
				return nil, fmt.Errorf("telemetry re-baseline refused: %s: %s", g.Key(), goldenDrift(g, w))
			}
		}
		return got, nil
	}
	return nil, fmt.Errorf("UPDATE_CHAOS_GOLDENS=%q: want behaviour or telemetry", mode)
}

func readGoldens(t *testing.T) []GoldenResult {
	t.Helper()
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing goldens (capture with UPDATE_CHAOS_GOLDENS=behaviour): %v", err)
	}
	var want []GoldenResult
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// goldenGate runs the whole catalogue at the golden seeds on a pool of
// the given size and requires every hash to match the checked-in file.
func goldenGate(t *testing.T, workers int) {
	got := Goldens(Scenarios(), workers)
	want := readGoldens(t)
	wantBy := make(map[string]GoldenResult, len(want))
	for _, w := range want {
		wantBy[w.Key()] = w
	}
	for _, g := range got {
		w, ok := wantBy[g.Key()]
		if !ok {
			t.Errorf("%s: no golden recorded (a new scenario: capture it with UPDATE_CHAOS_GOLDENS=behaviour)", g.Key())
			continue
		}
		delete(wantBy, g.Key())
		if drift := goldenDrift(g, w); drift != "" {
			t.Errorf("workers=%d %s: %s", workers, g.Key(), drift)
		}
	}
	for key := range wantBy {
		t.Errorf("%s: golden exists but the catalogue no longer has the scenario", key)
	}
}

// TestGoldenHashes is the cross-seed determinism regression gate: the
// behaviour and telemetry hashes of every catalogue entry at the golden
// seeds must match the checked-in goldens byte for byte.
//
// Re-baseline (DESIGN.md "Chaos harness" says when each is allowed):
//
//	UPDATE_CHAOS_GOLDENS=telemetry go test ./internal/chaos -run TestGoldenHashes
//	UPDATE_CHAOS_GOLDENS=behaviour go test ./internal/chaos -run TestGoldenHashes
func TestGoldenHashes(t *testing.T) {
	mode := os.Getenv("UPDATE_CHAOS_GOLDENS")
	if mode == "" {
		goldenGate(t, 1)
		return
	}
	var prev []GoldenResult
	if _, err := os.Stat(goldenPath); err == nil || mode == "telemetry" {
		prev = readGoldens(t)
	}
	next, err := rebaseline(mode, Goldens(Scenarios(), 1), prev)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.MarshalIndent(next, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d goldens to %s (%s)\n%s", len(next), goldenPath, mode, movedKeys(prev, next))
}

// movedKeys renders what a re-baseline changed, grouped by tier and by
// column — the table the CHANGES.md entry has to explain.
func movedKeys(prev, next []GoldenResult) string {
	prevBy := make(map[string]GoldenResult, len(prev))
	for _, w := range prev {
		prevBy[w.Key()] = w
	}
	var tiers []string
	moved := make(map[string][]string) // "tier column" → keys
	for _, g := range next {
		tier, _, _ := strings.Cut(g.Scenario, "/")
		note := func(col string) {
			if !slices.Contains(tiers, tier) {
				tiers = append(tiers, tier)
			}
			moved[tier+" "+col] = append(moved[tier+" "+col], g.Key())
		}
		w, ok := prevBy[g.Key()]
		if !ok {
			note("new")
			continue
		}
		if g.Behaviour != w.Behaviour {
			note("behaviour")
		}
		if g.Telemetry != w.Telemetry {
			note("telemetry")
		}
	}
	var b strings.Builder
	for _, tier := range tiers {
		for _, col := range []string{"new", "behaviour", "telemetry"} {
			if keys := moved[tier+" "+col]; len(keys) > 0 {
				fmt.Fprintf(&b, "moved: %-16s %-9s %3d  %s\n", tier, col, len(keys), strings.Join(keys, " "))
			}
		}
	}
	if b.Len() == 0 {
		return "moved: nothing"
	}
	return b.String()
}

// TestParallelGoldenEquivalence is the second golden pass, on a pool of
// four workers: a divergence from the sequential pass means shared
// mutable state leaked between simulations (a package-level variable, a
// shared RNG, a shared registry). Under -race the four workers are
// real, so the detector sees that sharing as well as the hashes do.
func TestParallelGoldenEquivalence(t *testing.T) {
	goldenGate(t, 4)
}

// TestRunGoldenJobsOrderStable: results come back in input order no matter
// the completion order of the pool.
func TestRunGoldenJobsOrderStable(t *testing.T) {
	scs := Scenarios()[:2]
	seq, par := Goldens(scs, 1), Goldens(scs, 4)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("slot %d: sequential %+v != parallel %+v", i, seq[i], par[i])
		}
	}
}

// TestGoldenGateTellsBehaviourFromTelemetry drives the gate's two
// failure messages and the telemetry re-baseline's refusal with a
// one-event-perturbed ledger.
func TestGoldenGateTellsBehaviourFromTelemetry(t *testing.T) {
	ledger := &recorder{events: []metrics.Event{
		{T: 10, Kind: "stage", Note: "predump"},
		{T: 20, Kind: "cqe", Node: "src", QPN: 7, Seq: 1},
		{T: 30, Kind: "stage", Note: "done"},
	}}
	golden := GoldenResult{Scenario: "single/clean", Seed: 1, Behaviour: ledger.hash(), Telemetry: "t0"}

	// Same ledger, different counters: a telemetry drift, re-baselined freely.
	counted := golden
	counted.Telemetry = "t1"
	if msg := goldenDrift(counted, golden); !strings.Contains(msg, "only counters moved; UPDATE_CHAOS_GOLDENS=telemetry") {
		t.Errorf("telemetry drift reads %q", msg)
	}
	next, err := rebaseline("telemetry", []GoldenResult{counted}, []GoldenResult{golden})
	if err != nil || next[0].Telemetry != "t1" || next[0].Behaviour != golden.Behaviour {
		t.Errorf("telemetry re-baseline of a pure counter change: %v, %+v", err, next)
	}

	// One event 1 ns later: a behaviour drift, whatever the counters say.
	ledger.events[1].T++
	moved := counted
	moved.Behaviour = ledger.hash()
	if msg := goldenDrift(moved, golden); !strings.Contains(msg, "event order or timing changed") {
		t.Errorf("behaviour drift reads %q", msg)
	}
	if _, err := rebaseline("telemetry", []GoldenResult{moved}, []GoldenResult{golden}); err == nil ||
		!strings.Contains(err.Error(), "refused") {
		t.Errorf("telemetry re-baseline accepted a behaviour change: %v", err)
	}
	if next, err := rebaseline("behaviour", []GoldenResult{moved}, nil); err != nil || next[0] != moved {
		t.Errorf("behaviour re-baseline: %v, %+v", err, next)
	}

	// A new scenario is a behaviour change too; any other mode is a typo.
	added := GoldenResult{Scenario: "single/new", Seed: 1, Behaviour: "b", Telemetry: "t"}
	if _, err := rebaseline("telemetry", []GoldenResult{golden, added}, []GoldenResult{golden}); err == nil {
		t.Error("telemetry re-baseline accepted a new scenario")
	}
	if _, err := rebaseline("1", nil, nil); err == nil {
		t.Error("unknown re-baseline mode accepted")
	}
	if goldenDrift(golden, golden) != "" {
		t.Error("identical results reported as drift")
	}
}
