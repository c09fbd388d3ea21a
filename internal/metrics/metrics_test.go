package metrics

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"migrrdma/internal/sim"
)

// referenceKey is the key rendering every golden hash was recorded
// with — a label map, sorted keys, a growing builder — kept here as the
// reference the registration API is compared against.
func referenceKey(component, name string, labels map[string]string) string {
	if len(labels) == 0 {
		return component + "/" + name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(component)
	b.WriteByte('/')
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// TestKeysMatchReference: for zero, one, two and unsorted three-label
// sets, a registry filled through Block renders the snapshot the
// reference keys give, byte for byte.
func TestKeysMatchReference(t *testing.T) {
	sets := [][]string{
		nil,
		{"node", "src"},
		{"node", "hostA", "qpn", "0x0100"},
		{"proc", "srv", "phase", "final-dump", "mig", "m7"},
	}
	names := []string{"tx_bytes", "send_posts", "a_name_longer_than_the_key_room_of_a_block"}
	got := New(nil)
	var want strings.Builder
	var lines []string
	for _, kv := range sets {
		m := map[string]string{}
		for i := 0; i < len(kv); i += 2 {
			m[kv[i]] = kv[i+1]
		}
		b := got.Block("rnic", L(kv...), len(names))
		for i, name := range names {
			b.Counter(name).Add(int64(i + 1))
			lines = append(lines, fmt.Sprintf("%-52s %d\n", referenceKey("rnic", name, m), i+1))
		}
	}
	sort.Strings(lines)
	fmt.Fprintf(&want, "# snapshot at 0s (%d metrics)\n", len(lines))
	for _, l := range lines {
		want.WriteString(l)
	}
	if s := got.Snapshot().String(); s != want.String() {
		t.Fatalf("snapshot through Block:\n%s\nreference keys:\n%s", s, want.String())
	}
}

// TestBlockAllocations: a seven-counter owner costs its rendered labels
// and one key buffer — its metrics come from the registry's slab, which
// grows amortised with the registry's own tables — not six allocations a
// counter.
func TestBlockAllocations(t *testing.T) {
	r := New(nil)
	names := [7]string{"send_posts", "recv_posts", "cqes", "naks", "rnr_naks", "go_back_n", "retx_packets"}
	var hs [7]Counter
	qpn := 0
	allocs := testing.AllocsPerRun(2000, func() {
		qpn++
		var buf [8]byte
		b := r.Block("rnic", L("node", "hostA", "qpn", string(strconv.AppendInt(buf[:0], int64(qpn), 16))), len(names))
		for i, name := range names {
			hs[i] = b.Counter(name)
		}
	})
	if allocs > 2 {
		t.Fatalf("registering a seven-counter block allocates %.0f times, want at most 2", allocs)
	}
	hs[6].Inc()
	if v, ok := r.Snapshot().Get("rnic/retx_packets{node=hostA,qpn=" + strconv.FormatInt(int64(qpn), 16) + "}"); !ok || v.Value != 1 {
		t.Fatalf("last block's counter reads %v, %v", v, ok)
	}
}

// TestZeroHandlesDiscard: an owner without a registry keeps zero handles
// and increments them unguarded.
func TestZeroHandlesDiscard(t *testing.T) {
	var c Counter
	var g Gauge
	var h Histogram
	c.Inc()
	g.Set(3)
	g.Add(1)
	h.Observe(9)
	if c.Value() != 0 || g.Value() != 0 || g.High() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("zero handles hold values")
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := New(nil)
	c := r.Counter("a", "c", Labels{})
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	// Same key resolves to the same storage.
	if r.Counter("a", "c", Labels{}).Value() != 5 {
		t.Fatal("second handle sees a different counter")
	}

	g := r.Gauge("a", "g", Labels{})
	g.Set(7)
	g.Set(3)
	if g.Value() != 3 || g.High() != 7 {
		t.Fatalf("gauge = %d high = %d", g.Value(), g.High())
	}
	g.Add(10)
	if g.Value() != 13 || g.High() != 13 {
		t.Fatalf("gauge after Add = %d high = %d", g.Value(), g.High())
	}

	h := r.Histogram("a", "h", Labels{}, []int64{10, 100})
	for _, v := range []int64{5, 10, 11, 1000} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 1026 {
		t.Fatalf("histogram count=%d sum=%d", h.Count(), h.Sum())
	}
	snap := r.Snapshot()
	hv, ok := snap.Get("a/h")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if hv.Buckets[0] != 2 || hv.Buckets[1] != 1 || hv.Buckets[2] != 1 {
		t.Fatalf("buckets = %v", hv.Buckets)
	}
}

func TestKindClashPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind clash")
		}
	}()
	r := New(nil)
	r.Counter("a", "x", Labels{})
	r.Gauge("a", "x", Labels{})
}

func TestSnapshotSortedAndStamped(t *testing.T) {
	s := sim.New(1)
	r := New(s.Now)
	r.Counter("z", "last", Labels{}).Inc()
	r.Counter("a", "first", Labels{}).Inc()
	s.Go("t", func() { s.Sleep(3 * time.Millisecond) })
	s.Run()
	snap := r.Snapshot()
	if snap.Time != 3*time.Millisecond {
		t.Fatalf("snapshot time = %v", snap.Time)
	}
	if snap.Values[0].Key != "a/first" || snap.Values[1].Key != "z/last" {
		t.Fatalf("snapshot order: %q, %q", snap.Values[0].Key, snap.Values[1].Key)
	}
	if !strings.Contains(snap.String(), "a/first") {
		t.Fatalf("render missing key:\n%s", snap.String())
	}
}

func TestSnapshotSumAndDiff(t *testing.T) {
	r := New(nil)
	r.Counter("fabric", "dropped_frames", L("node", "a")).Add(3)
	r.Counter("fabric", "dropped_frames", L("node", "b")).Add(4)
	first := r.Snapshot()
	if first.Sum("fabric", "dropped_frames") != 7 {
		t.Fatalf("sum = %d", first.Sum("fabric", "dropped_frames"))
	}
	r.Counter("fabric", "dropped_frames", L("node", "a")).Add(10)
	diff := r.Snapshot().Diff(first)
	if diff.Sum("fabric", "dropped_frames") != 10 {
		t.Fatalf("diff sum = %d", diff.Sum("fabric", "dropped_frames"))
	}
}

// TestRegistrySumMatchesSnapshot: the live roll-up equals the
// snapshot's for every component/name pair of a populated registry —
// labelled and bare keys, gauges and histograms, and names that share a
// prefix with another name or component.
func TestRegistrySumMatchesSnapshot(t *testing.T) {
	r := New(nil)
	r.Counter("rnic", "tx_bytes", L("node", "a")).Add(3)
	r.Counter("rnic", "tx_bytes", L("node", "b")).Add(4)
	r.Counter("rnic", "tx_bytes", Labels{}).Add(5)
	r.Counter("rnic", "tx_bytes_total", Labels{}).Add(100)
	r.Counter("rnic", "tx", L("node", "a")).Add(1000)
	r.Counter("rnicx", "tx_bytes", Labels{}).Add(10000)
	r.Counter("rn", "ic/tx_bytes", Labels{}).Add(20000)
	r.Gauge("pagechan", "staged_chunks", L("mig", "m1")).Set(6)
	r.Histogram("rnic", "lat", L("node", "a"), []int64{1, 2}).Observe(2)
	snap := r.Snapshot()
	pairs := map[[2]string]bool{{"rnic", "absent"}: true, {"absent", "tx"}: true}
	for _, v := range snap.Values {
		comp, rest, _ := strings.Cut(v.Key, "/")
		name, _, _ := strings.Cut(rest, "{")
		pairs[[2]string{comp, name}] = true
	}
	for p := range pairs {
		if got, want := r.Sum(p[0], p[1]), snap.Sum(p[0], p[1]); got != want {
			t.Errorf("Sum(%q, %q) = %d, snapshot says %d", p[0], p[1], got, want)
		}
	}
	if got := r.Sum("rnic", "tx_bytes"); got != 12 {
		t.Fatalf("Sum(rnic, tx_bytes) = %d, want 12", got)
	}
}

func TestSnapshotHashStable(t *testing.T) {
	build := func() *Snapshot {
		r := New(nil)
		r.Counter("a", "c", L("node", "x")).Add(42)
		r.Gauge("b", "g", Labels{}).Set(7)
		r.Histogram("c", "h", Labels{}, []int64{1, 2}).Observe(2)
		return r.Snapshot()
	}
	if build().Hash() != build().Hash() {
		t.Fatal("identical registries hash differently")
	}
}

// TestRawGoroutineRace exercises the atomic hot paths from genuinely
// parallel goroutines so `go test -race` proves increment safety (sim
// procs are serialized by the scheduler and would never race).
func TestRawGoroutineRace(t *testing.T) {
	r := New(nil)
	c := r.Counter("race", "c", Labels{})
	g := r.Gauge("race", "g", Labels{})
	h := r.Histogram("race", "h", Labels{}, []int64{8, 64})
	var wg sync.WaitGroup
	const procs, iters = 8, 1000
	for p := 0; p < procs; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(p*i) % 100)
				// Interleave snapshotting with increments.
				if i%200 == 0 {
					_ = r.Snapshot().Hash()
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != procs*iters {
		t.Fatalf("counter = %d, want %d", c.Value(), procs*iters)
	}
	if g.Value() != procs*iters || g.High() != procs*iters {
		t.Fatalf("gauge = %d high = %d", g.Value(), g.High())
	}
	if h.Count() != procs*iters {
		t.Fatalf("histogram count = %d", h.Count())
	}
}

// TestSimProcIncrements drives increments from multiple sim procs — the
// deployment configuration — and checks a snapshot taken mid-run sees a
// consistent total.
func TestSimProcIncrements(t *testing.T) {
	s := sim.New(9)
	r := New(s.Now)
	c := r.Counter("race", "sim", Labels{})
	for p := 0; p < 4; p++ {
		s.Go("inc", func() {
			for i := 0; i < 100; i++ {
				c.Inc()
				s.Sleep(time.Microsecond)
			}
		})
	}
	s.Run()
	if c.Value() != 400 {
		t.Fatalf("counter = %d, want 400", c.Value())
	}
}
