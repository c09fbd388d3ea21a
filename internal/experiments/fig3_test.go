package experiments

import (
	"testing"
	"time"
)

func TestFig3SmokeSender(t *testing.T) {
	with, err := fig3Send16PreSetup()
	if err != nil {
		t.Fatal(err)
	}
	without, err := fig3Send16NoPreSetup()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("with:    %s", with)
	t.Logf("without: %s", without)
	if with.Blackout >= without.Blackout {
		t.Fatalf("pre-setup blackout %v not shorter than baseline %v", with.Blackout, without.Blackout)
	}
	if with.RestoreRDMA != 0 || without.RestoreRDMA == 0 {
		t.Fatal("RestoreRDMA must be excluded from the pre-setup blackout only")
	}
}

func TestFig3RestoreRDMAGrowsWithQPs(t *testing.T) {
	small, err := fig3Send16NoPreSetup()
	if err != nil {
		t.Fatal(err)
	}
	big, err := Fig3(128, true, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("16 QPs:  %s", small)
	t.Logf("128 QPs: %s", big)
	if big.RestoreRDMA < 4*small.RestoreRDMA {
		t.Fatalf("RestoreRDMA did not scale with QPs: %v vs %v", small.RestoreRDMA, big.RestoreRDMA)
	}
	if big.DumpOthers <= small.DumpOthers {
		t.Fatalf("DumpOthers did not grow with QPs: %v vs %v", small.DumpOthers, big.DumpOthers)
	}
}

func TestFig3ReceiverSide(t *testing.T) {
	row, err := Fig3(16, false, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("receiver: %s", row)
	if row.Blackout <= 0 || row.Blackout > 5*time.Second {
		t.Fatalf("implausible blackout %v", row.Blackout)
	}
}
