package chaos

import (
	"strconv"

	"migrrdma/internal/sim"
)

// Every catalogue entry is pinned at every golden seed as an independent
// job. Each job is one self-contained simulation (its own Scheduler,
// Network, hosts), so jobs share no mutable state and any worker count
// must reproduce the sequential hashes byte for byte — TestGoldenHashes
// pins that against testdata/golden_hashes.json at workers 1 and 4.

// GoldenSeeds are the fixed seeds the determinism goldens are captured
// at. Three seeds per scenario catches reorderings that a single seed's
// event pattern happens to mask.
var GoldenSeeds = []int64{1, 7, 13}

// GoldenResult is the pinned outcome of one (scenario, seed) run and
// the on-disk shape of a golden entry. Behaviour and Telemetry are
// Report.Behaviour and Report.Telemetry.
type GoldenResult struct {
	Scenario  string `json:"scenario"`
	Seed      int64  `json:"seed"`
	Behaviour string `json:"behaviour"`
	Telemetry string `json:"telemetry"`
}

// Key identifies the run in diagnostics and golden lookups.
func (r GoldenResult) Key() string {
	return r.Scenario + "/" + strconv.FormatInt(r.Seed, 10)
}

// Goldens runs every scenario at every golden seed on a pool of
// workers and returns the results scenario-major, in input order
// regardless of completion order.
func Goldens(scenarios []Scenario, workers int) []GoldenResult {
	out := make([]GoldenResult, len(scenarios)*len(GoldenSeeds))
	sim.RunIndexed(len(out), workers, func(i int) {
		sc, seed := scenarios[i/len(GoldenSeeds)], GoldenSeeds[i%len(GoldenSeeds)]
		rep := Run(seed, sc)
		out[i] = GoldenResult{Scenario: sc.Name, Seed: seed,
			Behaviour: rep.Behaviour, Telemetry: rep.Telemetry}
	})
	return out
}
