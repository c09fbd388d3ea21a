package experiments

import (
	"testing"

	"migrrdma/internal/runc"
)

// TestPageChanComparison runs the transfer-pipeline contrast at one
// Fig. 4a point (the full size sweep lives in cmd/migrbench) and
// checks the shape the experiment exists to show: the
// pipelined channel ships the stop-and-copy round in a fraction of the
// monolithic final image, elides pages the dirty-bit tracker
// over-reports, and takes no more blackout for it.
func TestPageChanComparison(t *testing.T) {
	rows, err := PageChanComparison([]int{2048}, 2, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	mono, pipe := rows[0], rows[1]
	if mono.Transfer != runc.TransferMonolithic || pipe.Transfer != runc.TransferPipelined {
		t.Fatalf("row order: %s, %s", mono.Transfer, pipe.Transfer)
	}
	for _, r := range rows {
		if r.Samples == 0 || r.Blackout <= 0 || r.WireBytes <= 0 || r.FinalWireBytes <= 0 {
			t.Errorf("degenerate row: %s", r)
		}
	}
	if pipe.FinalWireBytes >= mono.FinalWireBytes {
		t.Errorf("final-round wire: pipelined %d not below monolithic %d",
			pipe.FinalWireBytes, mono.FinalWireBytes)
	}
	if pipe.Blackout >= mono.Blackout {
		t.Errorf("blackout: pipelined %v not below monolithic %v", pipe.Blackout, mono.Blackout)
	}
	if pipe.PagesElided == 0 {
		t.Error("pipelined run elided nothing despite the page hog's zero/constant pages")
	}
	// The double-count satellite: monolithic re-ships pre-copy pages in
	// the final dump, so the distinct count trails the per-round total.
	if mono.DistinctPages >= mono.PagesTransferred {
		t.Errorf("monolithic distinct %d not below transferred %d", mono.DistinctPages, mono.PagesTransferred)
	}
}

// TestTenancyTransferModes runs the consolidation point at a small
// session count under both transfer modes: every tenant burst survives
// exactly-once either way, and the pipelined channel shrinks the
// stop-and-copy transfer of the session-table image.
func TestTenancyTransferModes(t *testing.T) {
	mono, err := RunTenancyTransferSeeded(runc.CutoverPlugForward, runc.TransferMonolithic, 128, tenancySeed)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := tenancyTransferPipelined128()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []TenancyRow{mono, pipe} {
		if r.Acked != int64(128*2*tenancyBurst) {
			t.Errorf("%s/%s: %d acked, want %d", r.Mode, r.Transfer, r.Acked, 128*2*tenancyBurst)
		}
		if r.Blackout <= 0 || r.FinalWire <= 0 {
			t.Errorf("%s/%s: degenerate row: %s", r.Mode, r.Transfer, r)
		}
	}
	if pipe.FinalWire >= mono.FinalWire {
		t.Errorf("final-round wire: pipelined %d not below monolithic %d", pipe.FinalWire, mono.FinalWire)
	}
}
