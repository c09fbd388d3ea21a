package cluster

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"migrrdma/internal/fabric"
)

func rackNames(racks, perRack int) []string {
	names := make([]string, 0, racks*perRack)
	for r := 0; r < racks; r++ {
		for h := 0; h < perRack; h++ {
			names = append(names, fmt.Sprintf("r%dh%d", r, h))
		}
	}
	return names
}

func TestClusterRackAssignment(t *testing.T) {
	topo := fabric.Topology{Racks: 4, HostsPerRack: 4, UplinkRate: 25e9}
	names := rackNames(4, 4)
	c := New(Config{Fabric: fabric.Config{Topology: topo}, Seed: 1}, names...)
	for i, name := range names {
		h := c.Host(name)
		if want := i / 4; h.Rack != want || c.Net.Rack(name) != want {
			t.Fatalf("%s: Rack=%d fabric rack=%d, want %d", name, h.Rack, c.Net.Rack(name), want)
		}
	}
	// Flat clusters stay in rack 0.
	if New(Config{Seed: 1}, "a", "b").Host("b").Rack != 0 {
		t.Fatal("flat cluster host left rack 0")
	}
}

// sixteenHostDigest builds the 4-rack × 4-host cluster and drives every
// host through a cross-rack bulk transfer with RNG-jittered starts,
// folding completion times, per-host fabric counters and the full
// metrics snapshot hash into one digest.
func sixteenHostDigest(t *testing.T) uint64 {
	t.Helper()
	topo := fabric.Topology{Racks: 4, HostsPerRack: 4, UplinkRate: 25e9}
	names := rackNames(4, 4)
	c := New(Config{Fabric: fabric.Config{Topology: topo}, Seed: 11}, names...)
	done := make(map[string]time.Duration)
	for i, name := range c.Names() {
		i, name := i, name
		h := c.Host(name)
		peer := names[(i+4)%len(names)] // next rack over
		c.Sched.Go("xfer-"+name, func() {
			h.Sleep(time.Duration(c.Sched.Rand().Intn(100)) * time.Microsecond)
			h.TransferTo(peer, 256<<10)
			done[name] = c.Sched.Now()
		})
	}
	c.Sched.Run()

	hash := fnv.New64a()
	snap := c.Metrics.Snapshot()
	for _, name := range c.Names() {
		rx, _ := snap.Get("fabric/rx_bytes{node=" + name + "}")
		tx, _ := snap.Get("fabric/tx_bytes{node=" + name + "}")
		fmt.Fprintf(hash, "%s done=%d rx=%d tx=%d\n", name, done[name], rx.Value, tx.Value)
	}
	for r := 0; r < topo.Racks; r++ {
		up, down := c.Net.UplinkBytes(r)
		fmt.Fprintf(hash, "rack%d up=%d down=%d\n", r, up, down)
	}
	fmt.Fprintf(hash, "metrics=%s\n", c.Metrics.Snapshot().Hash())
	return hash.Sum64()
}

// TestSixteenHostDeterminism constructs the 16-host cluster twice and
// asserts identical event digests — the guard the sorted Names()
// iteration discipline exists for (cluster.go's map-order warning).
func TestSixteenHostDeterminism(t *testing.T) {
	a, b := sixteenHostDigest(t), sixteenHostDigest(t)
	if a != b {
		t.Fatalf("identical 16-host constructions diverged: %x vs %x", a, b)
	}
}
