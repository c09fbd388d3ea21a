package fabric

import (
	"testing"
	"time"

	"migrrdma/internal/sim"
)

// newTopo builds a 2-rack network with hosts a0,a1 (rack 0) and b0,b1
// (rack 1), recording deliveries per node.
func newTopo(t *testing.T, cfg Config) (*sim.Scheduler, *Network, map[string]*[]time.Duration) {
	t.Helper()
	s := sim.New(7)
	n := New(s, cfg)
	arrivals := make(map[string]*[]time.Duration)
	for _, spec := range []struct {
		name string
		rack int
	}{{"a0", 0}, {"a1", 0}, {"b0", 1}, {"b1", 1}} {
		at := &[]time.Duration{}
		arrivals[spec.name] = at
		n.Attach(spec.name, func(f Frame) { *at = append(*at, s.Now()) })
		n.SetRack(spec.name, spec.rack)
	}
	return s, n, arrivals
}

func TestCrossRackLatency(t *testing.T) {
	cfg := Config{
		Topology: Topology{
			Racks: 2, HostsPerRack: 2,
			UplinkRate: 5e8, // 20 µs per 1250 B spine hop (2:1 per host, 4:1 per rack)
			SpineDelay: 30 * time.Microsecond,
		},
	}
	s, n, arrivals := newTopo(t, cfg)
	setLinkRates(n, 1e9) // 10 µs per 1250 B hop at host links
	s.Go("send", func() {
		n.Send(Frame{Src: "a0", Dst: "b0", Size: 1250})
	})
	s.Run()
	if got := len(*arrivals["b0"]); got != 1 {
		t.Fatalf("delivered %d frames, want 1", got)
	}
	// host uplink 10 + prop 1 + spine up 20 + spine 30 + spine down 20
	// + spine 30 + host downlink 10 + prop 1.
	want := 122 * time.Microsecond
	if at := (*arrivals["b0"])[0]; at != want {
		t.Fatalf("cross-rack arrival at %v, want %v", at, want)
	}
}

// TestSameRackMatchesFlat pins the degenerate-case contract: same-rack
// traffic on a topology network takes exactly the flat path, byte for
// byte in timing.
func TestSameRackMatchesFlat(t *testing.T) {
	flatCfg := Config{}
	topoCfg := Config{Topology: Topology{Racks: 2, HostsPerRack: 2, UplinkRate: 1e8}}

	run := func(cfg Config) []time.Duration {
		s := sim.New(7)
		n := New(s, cfg)
		var at []time.Duration
		n.Attach("a0", func(f Frame) {})
		n.Attach("a1", func(f Frame) { at = append(at, s.Now()) })
		if !cfg.Topology.Flat() {
			n.SetRack("a0", 0)
			n.SetRack("a1", 0)
			n.Attach("b0", func(f Frame) {})
			n.SetRack("b0", 1)
		}
		setLinkRates(n, 1e9)
		s.Go("send", func() {
			for i := 0; i < 16; i++ {
				n.Send(Frame{Src: "a0", Dst: "a1", Size: 1250})
			}
		})
		s.Run()
		return at
	}
	flat, topo := run(flatCfg), run(topoCfg)
	if len(flat) != 16 || len(topo) != 16 {
		t.Fatalf("delivered %d/%d frames, want 16/16", len(flat), len(topo))
	}
	for i := range flat {
		if flat[i] != topo[i] {
			t.Fatalf("frame %d: flat arrival %v != same-rack arrival %v", i, flat[i], topo[i])
		}
	}
}

// TestUplinkOversubscriptionQueueing: two hosts of one rack blasting
// into the other rack share one uplink, so the aggregate cross-rack
// rate is pinned at UplinkRate, not 2× the host rate.
func TestUplinkOversubscriptionQueueing(t *testing.T) {
	s, n, arrivals := newTopo(t, Config{Topology: Topology{Racks: 2, HostsPerRack: 2, UplinkRate: 5e8}})
	setLinkRates(n, 1e9)
	const frames, size = 200, 1250
	s.Go("send0", func() {
		for i := 0; i < frames; i++ {
			n.Send(Frame{Src: "a0", Dst: "b0", Size: size})
		}
	})
	s.Go("send1", func() {
		for i := 0; i < frames; i++ {
			n.Send(Frame{Src: "a1", Dst: "b1", Size: size})
		}
	})
	s.Run()
	if got := len(*arrivals["b0"]) + len(*arrivals["b1"]); got != 2*frames {
		t.Fatalf("delivered %d frames, want %d", got, 2*frames)
	}
	last := (*arrivals["b0"])[frames-1]
	if l := (*arrivals["b1"])[frames-1]; l > last {
		last = l
	}
	gbps := float64(2*frames*size*8) / last.Seconds() / 1e9
	if gbps > 0.52 || gbps < 0.45 {
		t.Fatalf("aggregate cross-rack rate %.3f Gbps, want ≈ UplinkRate 0.5", gbps)
	}
	up, down := n.UplinkBytes(0)
	if up != 2*frames*size {
		t.Fatalf("rack 0 uplink booked %d bytes, want %d", up, 2*frames*size)
	}
	if down != 0 {
		t.Fatalf("rack 0 downlink booked %d bytes, want 0", down)
	}
	if _, down1 := n.UplinkBytes(1); down1 != 2*frames*size {
		t.Fatalf("rack 1 downlink booked %d bytes, want %d", down1, 2*frames*size)
	}
}

func TestUplinkLossAndBlackhole(t *testing.T) {
	s, n, arrivals := newTopo(t, Config{Topology: Topology{Racks: 2, HostsPerRack: 2}})
	setLinkRates(n, 1e9)
	n.SetUplinkBlackhole(1, "rdma", true)
	s.Go("send", func() {
		// RDMA-port frames die crossing into rack 1; other ports pass.
		for i := 0; i < 10; i++ {
			n.Send(Frame{Src: "a0", Dst: "b0", Size: 100, Port: "rdma"})
			n.Send(Frame{Src: "a0", Dst: "b0", Size: 100, Port: "oob"})
		}
		// Same-rack RDMA traffic never touches the spine.
		for i := 0; i < 5; i++ {
			n.Send(Frame{Src: "a0", Dst: "a1", Size: 100, Port: "rdma"})
		}
	})
	s.Run()
	if got := len(*arrivals["b0"]); got != 10 {
		t.Fatalf("b0 got %d frames, want the 10 oob ones", got)
	}
	if got := len(*arrivals["a1"]); got != 5 {
		t.Fatalf("a1 got %d frames, want 5", got)
	}
	if dropped := counter(n, "dropped_frames", "b0"); dropped != 10 {
		t.Fatalf("b0 dropped %d, want 10", dropped)
	}
	n.SetUplinkBlackhole(1, "rdma", false)

	n.SetUplinkLoss(0, "", 1.0) // both halves of rack 0's spine link
	s.Go("send2", func() {
		n.Send(Frame{Src: "b0", Dst: "a0", Size: 100, Port: "oob"})
	})
	s.Run()
	if got := len(*arrivals["a0"]); got != 0 {
		t.Fatalf("a0 got %d frames through a lossy downlink, want 0", got)
	}
}
