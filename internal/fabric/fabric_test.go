package fabric

import (
	"testing"
	"time"
	"unsafe"

	"migrrdma/internal/sim"
)

// counter reads a port's counter name off the network's registry, the
// one place the port counts frames and bytes.
func counter(n *Network, name, node string) int64 {
	v, ok := n.reg.Snapshot().Get("fabric/" + name + "{node=" + node + "}")
	if !ok {
		panic("fabric: no counter " + name + " for " + node)
	}
	return v.Value
}

// newPair returns a network with nodes a and b, recording frames at b.
func newPair(t *testing.T, cfg Config) (*sim.Scheduler, *Network, *[]Frame, *[]time.Duration) {
	t.Helper()
	s := sim.New(7)
	n := New(s, cfg)
	var got []Frame
	var at []time.Duration
	n.Attach("a", func(f Frame) {})
	n.Attach("b", func(f Frame) {
		got = append(got, f)
		at = append(at, s.Now())
	})
	return s, n, &got, &at
}

// setLinkRates runs every attached port's links at bps (SetRate): the
// slow links timing tests compute by hand.
func setLinkRates(n *Network, bps int64) {
	for name := range n.ports {
		n.SetRate(name, bps)
	}
}

func TestDeliveryLatency(t *testing.T) {
	s, n, got, at := newPair(t, Config{})
	setLinkRates(n, 1e9)
	s.Go("send", func() {
		n.Send(Frame{Src: "a", Dst: "b", Size: 1250}) // 10 µs serialization at 1 Gbps
	})
	s.Run()
	if len(*got) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(*got))
	}
	// 2 serializations (uplink + downlink) + 2 propagation delays.
	want := 2*10*time.Microsecond + 2*time.Microsecond
	if (*at)[0] != want {
		t.Fatalf("arrival at %v, want %v", (*at)[0], want)
	}
}

func TestThroughputMatchesLinkRate(t *testing.T) {
	s, n, got, at := newPair(t, Config{})
	const frames, size = 1000, 4096
	s.Go("send", func() {
		for i := 0; i < frames; i++ {
			n.Send(Frame{Src: "a", Dst: "b", Size: size})
		}
	})
	s.Run()
	if len(*got) != frames {
		t.Fatalf("delivered %d, want %d", len(*got), frames)
	}
	last := (*at)[frames-1]
	// Total bytes / elapsed should approximate the link rate.
	gbps := float64(frames*size*8) / last.Seconds() / 1e9
	if gbps < 95 || gbps > 101 {
		t.Fatalf("achieved %.1f Gbps, want ≈100", gbps)
	}
}

func TestFIFOPerFlow(t *testing.T) {
	s, n, got, _ := newPair(t, Config{})
	s.Go("send", func() {
		for i := 0; i < 50; i++ {
			n.Send(Frame{Src: "a", Dst: "b", Size: 100 + i, Data: []byte{byte(i)}})
		}
	})
	s.Run()
	for i, f := range *got {
		if f.Data[0] != byte(i) {
			t.Fatalf("frame %d out of order (got seq %d)", i, f.Data[0])
		}
	}
}

func TestLossInjection(t *testing.T) {
	s := sim.New(3)
	n := New(s, Config{})
	n.Attach("a", func(Frame) {})
	recv := 0
	n.Attach("b", func(Frame) { recv++ })
	n.SetLoss("a", 0.5)
	s.Go("send", func() {
		for i := 0; i < 1000; i++ {
			n.Send(Frame{Src: "a", Dst: "b", Size: 64})
		}
	})
	s.Run()
	if recv < 350 || recv > 650 {
		t.Fatalf("received %d of 1000 at 50%% loss", recv)
	}
	dropped := counter(n, "dropped_frames", "b")
	if int(dropped)+recv != 1000 {
		t.Fatalf("delivered+dropped = %d, want 1000", int(dropped)+recv)
	}
}

func TestPartition(t *testing.T) {
	s := sim.New(3)
	n := New(s, Config{})
	n.Attach("a", func(Frame) {})
	recv := 0
	n.Attach("b", func(Frame) { recv++ })
	n.SetPartitioned("b", true)
	s.Go("send", func() {
		n.Send(Frame{Src: "a", Dst: "b", Size: 64})
		n.SetPartitioned("b", false)
		n.Send(Frame{Src: "a", Dst: "b", Size: 64})
	})
	s.Run()
	if recv != 1 {
		t.Fatalf("received %d, want 1 (one dropped during partition)", recv)
	}
}

func TestByteCounters(t *testing.T) {
	s, n, _, _ := newPair(t, Config{})
	s.Go("send", func() {
		n.Send(Frame{Src: "a", Dst: "b", Size: 1000})
		n.Send(Frame{Src: "a", Dst: "b", Size: 500})
	})
	s.Run()
	if rx := counter(n, "rx_bytes", "b"); rx != 1500 {
		t.Fatalf("rx=%d, want 1500", rx)
	}
	if tx := counter(n, "tx_bytes", "a"); tx != 1500 {
		t.Fatalf("tx=%d, want 1500", tx)
	}
}

func TestCrossTrafficSharesDownlink(t *testing.T) {
	// Two senders into one receiver: the receiver downlink is the
	// bottleneck, so total goodput should still be ≈ link rate.
	s := sim.New(5)
	n := New(s, Config{})
	n.Attach("a", func(Frame) {})
	n.Attach("c", func(Frame) {})
	var last time.Duration
	recv := 0
	n.Attach("b", func(Frame) { recv++; last = s.Now() })
	const frames, size = 500, 4096
	send := func(src string) func() {
		return func() {
			for i := 0; i < frames; i++ {
				n.Send(Frame{Src: src, Dst: "b", Size: size})
			}
		}
	}
	s.Go("sa", send("a"))
	s.Go("sc", send("c"))
	s.Run()
	if recv != 2*frames {
		t.Fatalf("received %d, want %d", recv, 2*frames)
	}
	gbps := float64(2*frames*size*8) / last.Seconds() / 1e9
	if gbps < 90 || gbps > 101 {
		t.Fatalf("aggregate %.1f Gbps through shared downlink, want ≈100", gbps)
	}
}

func TestDuplicateInjection(t *testing.T) {
	s, n, got, at := newPair(t, Config{})
	n.SetDuplicate("b", 1.0)
	const frames = 20
	s.Go("send", func() {
		for i := 0; i < frames; i++ {
			n.Send(Frame{Src: "a", Dst: "b", Size: 256, Data: []byte{byte(i)}})
		}
	})
	s.Run()
	if len(*got) != 2*frames {
		t.Fatalf("delivered %d frames, want %d (every frame twice)", len(*got), 2*frames)
	}
	if dup := counter(n, "duplicated_frames", "b"); dup != frames {
		t.Fatalf("duplicated = %d, want %d", dup, frames)
	}
	// The copy re-serializes on the downlink, so arrivals are strictly
	// increasing: no two deliveries share an instant.
	for i := 1; i < len(*at); i++ {
		if (*at)[i] <= (*at)[i-1] {
			t.Fatalf("delivery %d at %v not after %v", i, (*at)[i], (*at)[i-1])
		}
	}
}

func TestDuplicateCopiesFaceLossIndependently(t *testing.T) {
	// With dup=1.0 and loss=0.5 every frame is duplicated, and each of
	// the two copies must face the loss draw independently. The old
	// ordering applied loss before the duplication decision, so a lost
	// frame could never duplicate and a surviving frame's copy was
	// exempt from loss — deliveries were then always 0 or 2 per frame,
	// never 1.
	s, n, got, _ := newPair(t, Config{})
	n.SetDuplicate("b", 1.0)
	n.SetLoss("b", 0.5)
	const frames = 200
	s.Go("send", func() {
		for i := 0; i < frames; i++ {
			n.Send(Frame{Src: "a", Dst: "b", Size: 256, Data: []byte{byte(i)}})
		}
	})
	s.Run()
	if dup := counter(n, "duplicated_frames", "b"); dup != frames {
		t.Fatalf("duplicated = %d, want %d (dup decided before loss)", dup, frames)
	}
	// Count deliveries per frame: with independent per-copy loss about
	// half the frames deliver exactly one copy; seeing any odd count
	// proves independence.
	perFrame := make(map[byte]int)
	for _, f := range *got {
		perFrame[f.Data[0]]++
	}
	singles := 0
	for _, c := range perFrame {
		if c == 1 {
			singles++
		}
	}
	if singles == 0 {
		t.Fatalf("no frame delivered exactly once in %d: copies are not independently lossy", frames)
	}
	dropped := counter(n, "dropped_frames", "b")
	delivered := int64(len(*got))
	if delivered+dropped != 2*frames {
		t.Fatalf("delivered %d + dropped %d != %d copies", delivered, dropped, 2*frames)
	}
}

func TestPortScopedDuplicate(t *testing.T) {
	s, n, got, _ := newPair(t, Config{})
	n.SetPortDuplicate("b", "data", 1.0)
	s.Go("send", func() {
		n.Send(Frame{Src: "a", Dst: "b", Port: "data", Size: 64})
		n.Send(Frame{Src: "a", Dst: "b", Port: "ctl", Size: 64})
	})
	s.Run()
	if len(*got) != 3 {
		t.Fatalf("delivered %d frames, want 3 (data twice, ctl once)", len(*got))
	}
}

func TestReorderInjection(t *testing.T) {
	s, n, got, _ := newPair(t, Config{})
	s.Go("send", func() {
		// First frame is held back long enough for the second to
		// overtake it; the knob is cleared in between so the draw is
		// deterministic.
		n.SetReorder("b", 1.0, 100*time.Microsecond)
		n.Send(Frame{Src: "a", Dst: "b", Size: 64, Data: []byte{1}})
		n.SetReorder("b", 0, 0)
		n.Send(Frame{Src: "a", Dst: "b", Size: 64, Data: []byte{2}})
	})
	s.Run()
	if len(*got) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(*got))
	}
	if (*got)[0].Data[0] != 2 || (*got)[1].Data[0] != 1 {
		t.Fatalf("no overtake: order %d,%d", (*got)[0].Data[0], (*got)[1].Data[0])
	}
	if reord := counter(n, "reordered_frames", "b"); reord != 1 {
		t.Fatalf("reordered = %d, want 1", reord)
	}
}

// TestDownlinkDeliveriesTakeOneHeapSlot: the frames queued on one
// downlink ride the port's delivery lane, one timer-heap entry however
// many are in flight, and still arrive one serialization slot apart.
func TestDownlinkDeliveriesTakeOneHeapSlot(t *testing.T) {
	s, n, got, at := newPair(t, Config{})
	const k = 200
	s.Go("send", func() {
		for i := 0; i < k; i++ {
			n.Send(Frame{Src: "a", Dst: "b", Size: 1024, Data: []byte{byte(i)}})
		}
		if h := s.TimerHeapLen(); h != 1 {
			t.Errorf("%d frames on one downlink take %d heap entries, want 1", k, h)
		}
	})
	s.Run()
	if len(*got) != k {
		t.Fatalf("delivered %d frames, want %d", len(*got), k)
	}
	ser := n.SerializationTime(1024)
	for i := 1; i < k; i++ {
		if (*got)[i].Data[0] != byte(i) || (*at)[i]-(*at)[i-1] != ser {
			t.Fatalf("frame %d: data %d at %v, previous at %v; want data %d one slot (%v) later",
				i, (*got)[i].Data[0], (*at)[i], (*at)[i-1], byte(i), ser)
		}
	}
}

// TestLoweredReorderDelayStillOvertakes: a reordered frame due before the
// reordered frames already in flight (SetReorder lowered the delay) is
// delivered at its own instant, ahead of them.
func TestLoweredReorderDelayStillOvertakes(t *testing.T) {
	s, n, got, at := newPair(t, Config{})
	s.Go("send", func() {
		n.SetReorder("b", 1.0, 100*time.Microsecond)
		n.Send(Frame{Src: "a", Dst: "b", Size: 64, Data: []byte{1}})
		n.SetReorder("b", 1.0, 10*time.Microsecond)
		n.Send(Frame{Src: "a", Dst: "b", Size: 64, Data: []byte{2}})
	})
	s.Run()
	if len(*got) != 2 || (*got)[0].Data[0] != 2 || (*got)[1].Data[0] != 1 {
		t.Fatalf("delivered %v, want frame 2 before frame 1", *got)
	}
	if (*at)[1]-(*at)[0] < 80*time.Microsecond {
		t.Fatalf("frames arrived at %v and %v, want the first held back 100 µs", (*at)[1], (*at)[0])
	}
}

func TestRateOverride(t *testing.T) {
	s, n, got, at := newPair(t, Config{})
	n.SetRate("b", 1e9) // downlink of b degrades 100×
	s.Go("send", func() {
		n.Send(Frame{Src: "a", Dst: "b", Size: 1250})
	})
	s.Run()
	if len(*got) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(*got))
	}
	// Uplink still serializes at 100 Gbps (100 ns), the downlink at
	// 1 Gbps (10 µs), plus two propagation hops.
	want := 100*time.Nanosecond + time.Microsecond + 10*time.Microsecond + time.Microsecond
	if (*at)[0] != want {
		t.Fatalf("arrival at %v, want %v", (*at)[0], want)
	}
	// Restoring the default rate restores the timing for later frames.
	n.SetRate("b", 0)
	if n.serializationAt(n.mustPort("b"), 1250) != n.serialization(1250) {
		t.Fatal("rate override not cleared")
	}
}

func TestFaultKnobsIdleDrawNothing(t *testing.T) {
	// Disabled fault knobs must not consume RNG draws: two identical
	// networks, one with the knobs explicitly zeroed, must deliver at
	// identical times when loss draws are active.
	run := func(touch bool) []time.Duration {
		s := sim.New(11)
		n := New(s, Config{})
		n.Attach("a", func(Frame) {})
		var at []time.Duration
		n.Attach("b", func(Frame) { at = append(at, s.Now()) })
		n.SetLoss("b", 0.5)
		if touch {
			n.SetDuplicate("b", 0)
			n.SetReorder("b", 0, time.Millisecond)
		}
		s.Go("send", func() {
			for i := 0; i < 200; i++ {
				n.Send(Frame{Src: "a", Dst: "b", Size: 64})
			}
		})
		s.Run()
		return at
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("draw sequence perturbed: %d vs %d deliveries", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d at %v vs %v", i, a[i], b[i])
		}
	}
}

// TestPooledBufferAppendStaysInItsSlot: buffers cut from one slab end
// where the next one starts, so an append to a full buffer reallocates
// instead of writing into its neighbour.
func TestPooledBufferAppendStaysInItsSlot(t *testing.T) {
	const c = 128
	n := New(sim.New(1), Config{})
	var bufs [][]byte
	for range 4 { // slabs of 1, 1 and 2: the last two share one
		b := n.TakeBuf(c/2, c)
		if len(b) != c/2 || cap(b) != c {
			t.Fatalf("buffer of len %d, cap %d; want %d, %d", len(b), cap(b), c/2, c)
		}
		bufs = append(bufs, b)
	}
	if n.bufs.Made() != 4 {
		t.Fatalf("pool made %d buffers for 4 takes, want 4", n.bufs.Made())
	}
	full, next := bufs[3][:c], bufs[2][:c]
	if unsafe.Add(unsafe.Pointer(&full[0]), c) != unsafe.Pointer(&next[0]) {
		t.Fatal("the last two buffers are not neighbours in one slab")
	}
	for i := range next {
		next[i] = 0xAA
	}
	grown := append(full, 1)
	if &grown[0] == &full[0] {
		t.Fatal("append to a full pooled buffer did not reallocate")
	}
	for i, v := range next {
		if v != 0xAA {
			t.Fatalf("append to a full pooled buffer wrote byte %d of its neighbour", i)
		}
	}
}
