package cluster

import (
	"runtime"
	"testing"
	"time"
)

func TestTransferPacedAtLinkRate(t *testing.T) {
	c := New(Config{Seed: 1}, "a", "b")
	const size = 100 << 20 // 100 MiB
	var elapsed time.Duration
	c.Sched.Go("xfer", func() {
		start := c.Sched.Now()
		c.Host("a").TransferTo("b", size)
		elapsed = c.Sched.Now() - start
	})
	c.Sched.Run()
	// 100 MiB at 100 Gbps ≈ 8.4 ms plus per-chunk overhead.
	wire := time.Duration(int64(size) * 8 * int64(time.Second) / 100e9)
	if elapsed < wire {
		t.Fatalf("transfer finished in %v, faster than the wire %v", elapsed, wire)
	}
	if elapsed > wire*2 {
		t.Fatalf("transfer took %v, way above the wire time %v", elapsed, wire)
	}
}

func TestTransferBlocksUntilReceived(t *testing.T) {
	c := New(Config{Seed: 1}, "a", "b")
	done := false
	c.Sched.Go("xfer", func() {
		c.Host("a").TransferTo("b", 1<<20)
		done = true
	})
	c.Sched.RunFor(time.Millisecond)
	// 1 MiB needs ~84 µs of wire plus ack; should be done inside 1 ms.
	if !done {
		t.Fatal("transfer did not complete")
	}
}

func TestConcurrentTransfersShareLink(t *testing.T) {
	c := New(Config{Seed: 1}, "a", "b", "x")
	const size = 10 << 20
	var tA, tX time.Duration
	c.Sched.Go("fromA", func() {
		start := c.Sched.Now()
		c.Host("a").TransferTo("b", size)
		tA = c.Sched.Now() - start
	})
	c.Sched.Go("fromX", func() {
		start := c.Sched.Now()
		c.Host("x").TransferTo("b", size)
		tX = c.Sched.Now() - start
	})
	c.Sched.Run()
	solo := time.Duration(int64(size) * 8 * int64(time.Second) / 100e9)
	// Sharing the destination downlink roughly doubles the time.
	if tA < solo || tX < solo {
		t.Fatalf("shared transfers too fast: %v / %v vs solo %v", tA, tX, solo)
	}
}

func TestHostLookupPanicsUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Seed: 1}, "a").Host("zzz")
}

// TestCloseUnwindsParkedTransfers: Close reaches the cluster's scheduler;
// a transfer parked mid-stream on each host is unwound and no goroutine
// is left.
func TestCloseUnwindsParkedTransfers(t *testing.T) {
	before := runtime.NumGoroutine()
	c := New(Config{Seed: 1}, "a", "b")
	unwound := 0
	for _, h := range []string{"a", "b"} {
		h, peer := c.Host(h), map[string]string{"a": "b", "b": "a"}[h]
		h.Sched.Go("xfer", func() {
			defer func() { unwound++ }()
			h.TransferTo(peer, 1<<30) // 86 ms on the wire: parked at the horizon
			t.Errorf("transfer from %s finished", h.Name)
		})
	}
	c.Sched.RunFor(time.Millisecond)
	c.Close()
	c.Close()
	if unwound != 2 {
		t.Errorf("%d transfers unwound, want 2", unwound)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines before, %d after Close", before, n)
	}
}
