package experiments

import (
	"testing"

	"migrrdma/internal/runc"
)

// TestTenancyScaling runs the sweep at small session counts (the
// thousand-session points live in cmd/migrbench and the fixed
// benchmark's tenancy-2000) and checks the shape the experiment exists to show: every session's
// burst survives the migration exactly-once in both cutover modes,
// and the RDMA replay cost does not grow with the tenant count —
// sessions are process state, not verbs resources.
func TestTenancyScaling(t *testing.T) {
	rows, err := TenancySweep([]int{32, 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	var replaySmall, replayBig int64
	for _, r := range rows {
		if r.Acked != int64(r.Sessions*2*tenancyBurst) {
			t.Errorf("%s sessions=%d: %d acked, want %d", r.Mode, r.Sessions, r.Acked, r.Sessions*2*tenancyBurst)
		}
		if r.Blackout <= 0 || r.Total <= 0 {
			t.Errorf("%s sessions=%d: empty migration timings: %s", r.Mode, r.Sessions, r)
		}
		if r.Mode == runc.CutoverGoBackN {
			if r.Sessions == 32 {
				replaySmall = int64(r.ReplayRDMA)
			} else {
				replayBig = int64(r.ReplayRDMA)
			}
		}
	}
	// 4× the tenants must not mean 2× the replay: the lanes, not the
	// sessions, are what restore rebuilds.
	if replayBig > 2*replaySmall+int64(replaySmall/2) && replaySmall > 0 {
		t.Errorf("replay grew with tenant count: %d → %d", replaySmall, replayBig)
	}
}
