package fabric

import (
	"fmt"
	"testing"

	"migrrdma/internal/metrics"
	"migrrdma/internal/sim"
)

// plugRig is a two-node network whose "dst" handler records delivered
// frames by their payload tag, and whose registry listener records the
// plug events.
type plugRig struct {
	s      *sim.Scheduler
	n      *Network
	reg    *metrics.Registry
	seen   []string
	notes  []string
	seqs   []uint64
	onRecv func(Frame)
}

func newPlugRig(t *testing.T) *plugRig {
	t.Helper()
	s := sim.New(3)
	reg := metrics.New(s.Now)
	n := New(s, Config{Metrics: reg})
	r := &plugRig{s: s, n: n, reg: reg}
	reg.Listen(func(e metrics.Event) error {
		if e.Kind == "plug" {
			r.notes = append(r.notes, e.Note)
			r.seqs = append(r.seqs, e.Seq)
		}
		return nil
	})
	n.Attach("src", func(Frame) {})
	n.Attach("dst", func(f Frame) {
		r.seen = append(r.seen, string(f.Data))
		if r.onRecv != nil {
			r.onRecv(f)
		}
	})
	return r
}

func (r *plugRig) send(tag string) {
	r.n.Send(Frame{Src: "src", Dst: "dst", Port: "rdma", Size: 64, Data: []byte(tag)})
}

// matchAll plugs every frame on the port.
func matchAll(Frame) bool { return true }

func (r *plugRig) counter(name string) int64 {
	return r.reg.Counter("fabric", name, metrics.L("node", "dst")).Value()
}

func TestPlugBuffersAndFlushesInArrivalOrder(t *testing.T) {
	r := newPlugRig(t)
	r.s.Go("drive", func() {
		if err := r.n.InstallPlug("dst", 8, matchAll); err != nil {
			t.Errorf("install: %v", err)
		}
		for i := 0; i < 5; i++ {
			r.send(fmt.Sprintf("f%d", i))
		}
		r.s.Sleep(1e6)
		if len(r.seen) != 0 {
			t.Errorf("plugged frames delivered early: %v", r.seen)
		}
		if d := r.n.PlugDepth("dst"); d != 5 {
			t.Errorf("PlugDepth = %d, want 5", d)
		}
		if got := r.n.FlushPlug("dst"); got != 5 {
			t.Errorf("FlushPlug = %d, want 5", got)
		}
	})
	r.s.Run()
	want := []string{"f0", "f1", "f2", "f3", "f4"}
	if fmt.Sprint(r.seen) != fmt.Sprint(want) {
		t.Fatalf("flush order %v, want %v", r.seen, want)
	}
	// Events: 5 buffer events then 5 flush events, with flush seqs matching
	// buffer seqs in order.
	if len(r.notes) != 10 {
		t.Fatalf("plug events %v", r.notes)
	}
	for i := 0; i < 5; i++ {
		if r.notes[i] != "buffer" || r.seqs[i] != uint64(i) {
			t.Fatalf("buffer event %d = %s/%d", i, r.notes[i], r.seqs[i])
		}
		if r.notes[5+i] != "flush" || r.seqs[5+i] != uint64(i) {
			t.Fatalf("flush event %d = %s/%d", i, r.notes[5+i], r.seqs[5+i])
		}
	}
	if got := r.counter("plug_buffered_packets"); got != 5 {
		t.Fatalf("plug_buffered_packets = %d, want 5", got)
	}
	if got := r.reg.Gauge("fabric", "plug_flush_depth", metrics.L("node", "dst")).Value(); got != 5 {
		t.Fatalf("plug_flush_depth = %d, want 5", got)
	}
	// The plug is gone: new frames flow straight through.
	r.s.Go("after", func() { r.send("live") })
	r.s.Run()
	if r.seen[len(r.seen)-1] != "live" {
		t.Fatalf("post-flush frame not delivered: %v", r.seen)
	}
}

// TestPlugOverflowRejectsNewest pins the documented overflow policy:
// at the bound the arriving frame is rejected, never a queued one, so
// the eventual flush still replays the oldest frames in arrival order.
func TestPlugOverflowRejectsNewest(t *testing.T) {
	r := newPlugRig(t)
	r.s.Go("drive", func() {
		if err := r.n.InstallPlug("dst", 3, matchAll); err != nil {
			t.Errorf("install: %v", err)
		}
		for i := 0; i < 5; i++ {
			r.send(fmt.Sprintf("f%d", i))
		}
		r.s.Sleep(1e6)
		if got := r.n.FlushPlug("dst"); got != 3 {
			t.Errorf("FlushPlug = %d, want 3", got)
		}
	})
	r.s.Run()
	want := []string{"f0", "f1", "f2"} // newest two rejected, oldest kept
	if fmt.Sprint(r.seen) != fmt.Sprint(want) {
		t.Fatalf("flush after overflow %v, want %v", r.seen, want)
	}
	if got := r.counter("plug_overflow_packets"); got != 2 {
		t.Fatalf("plug_overflow_packets = %d, want 2", got)
	}
	if got := r.counter("dropped_frames"); got != 2 {
		t.Fatalf("dropped_frames = %d, want 2", got)
	}
	// Overflow events carry the rejected frames' arrival seqs.
	var drops []uint64
	for i, e := range r.notes {
		if e == "drop-overflow" {
			drops = append(drops, r.seqs[i])
		}
	}
	if fmt.Sprint(drops) != fmt.Sprint([]uint64{3, 4}) {
		t.Fatalf("drop-overflow seqs %v, want [3 4]", drops)
	}
}

// TestPlugFlushBeforeLiveTraffic drives live frames that arrive while
// the plug holds traffic and new frames sent by the handler during the
// flush itself: queued frames must come out first, live traffic after.
func TestPlugFlushBeforeLiveTraffic(t *testing.T) {
	r := newPlugRig(t)
	// The handler reacts to the first flushed frame by sending a reply
	// through the fabric back to dst (unmatched port so it cannot be
	// re-plugged logically, but the plug is already gone during flush).
	replied := false
	r.onRecv = func(f Frame) {
		if string(f.Data) == "p0" && !replied {
			replied = true
			r.n.Send(Frame{Src: "src", Dst: "dst", Port: "rdma", Size: 64, Data: []byte("reply")})
		}
	}
	r.s.Go("drive", func() {
		// Only frames tagged p* are plugged; "live" passes through.
		err := r.n.InstallPlug("dst", 8, func(f Frame) bool {
			return len(f.Data) > 0 && f.Data[0] == 'p'
		})
		if err != nil {
			t.Errorf("install: %v", err)
		}
		r.send("p0")
		r.send("live0")
		r.send("p1")
		r.s.Sleep(1e6)
		// Live frames bypassed the plug while p* waited.
		if fmt.Sprint(r.seen) != fmt.Sprint([]string{"live0"}) {
			t.Errorf("pre-flush deliveries %v, want [live0]", r.seen)
		}
		if got := r.n.FlushPlug("dst"); got != 2 {
			t.Errorf("FlushPlug = %d, want 2", got)
		}
		// The reply sent from inside the flush is a scheduled delivery:
		// it must not interleave with the flushed frames.
		if fmt.Sprint(r.seen) != fmt.Sprint([]string{"live0", "p0", "p1"}) {
			t.Errorf("flush interleaved with handler sends: %v", r.seen)
		}
		r.s.Sleep(1e6)
	})
	r.s.Run()
	want := []string{"live0", "p0", "p1", "reply"}
	if fmt.Sprint(r.seen) != fmt.Sprint(want) {
		t.Fatalf("delivery order %v, want %v", r.seen, want)
	}
}

// TestPlugDiscardOnAbort is the abort-path teardown: a non-empty plug
// is discarded without delivering anything, and the port then behaves
// as if the plug never existed.
func TestPlugDiscardOnAbort(t *testing.T) {
	r := newPlugRig(t)
	r.s.Go("drive", func() {
		if err := r.n.InstallPlug("dst", 8, matchAll); err != nil {
			t.Errorf("install: %v", err)
		}
		r.send("doomed0")
		r.send("doomed1")
		r.s.Sleep(1e6)
		if got := r.n.DiscardPlug("dst"); got != 2 {
			t.Errorf("DiscardPlug = %d, want 2", got)
		}
		if len(r.seen) != 0 {
			t.Errorf("discard delivered frames: %v", r.seen)
		}
		// Idempotent for compensation chains.
		if got := r.n.DiscardPlug("dst"); got != 0 {
			t.Errorf("second DiscardPlug = %d, want 0", got)
		}
		if got := r.n.FlushPlug("dst"); got != 0 {
			t.Errorf("FlushPlug after discard = %d, want 0", got)
		}
		r.send("live")
		r.s.Sleep(1e6)
	})
	r.s.Run()
	if fmt.Sprint(r.seen) != fmt.Sprint([]string{"live"}) {
		t.Fatalf("post-discard deliveries %v, want [live]", r.seen)
	}
	var discards int
	for _, e := range r.notes {
		if e == "discard" {
			discards++
		}
	}
	if discards != 2 {
		t.Fatalf("discard events = %d, want 2", discards)
	}
}

// TestPlugEnqueueMergesTunnelFrames checks that forwarded frames
// inserted via EnqueuePlugged share one arrival order with wire frames.
func TestPlugEnqueueMergesTunnelFrames(t *testing.T) {
	r := newPlugRig(t)
	r.s.Go("drive", func() {
		if err := r.n.InstallPlug("dst", 8, matchAll); err != nil {
			t.Errorf("install: %v", err)
		}
		r.send("wire0")
		r.s.Sleep(1e6)
		if !r.n.EnqueuePlugged("dst", Frame{Src: "old", Dst: "dst", Port: "rdma", Size: 64, Data: []byte("tun0")}) {
			t.Error("EnqueuePlugged with plug installed returned false")
		}
		r.send("wire1")
		r.s.Sleep(1e6)
		if got := r.n.FlushPlug("dst"); got != 3 {
			t.Errorf("FlushPlug = %d, want 3", got)
		}
		if r.n.EnqueuePlugged("dst", Frame{Dst: "dst"}) {
			t.Error("EnqueuePlugged without plug returned true")
		}
	})
	r.s.Run()
	want := []string{"wire0", "tun0", "wire1"}
	if fmt.Sprint(r.seen) != fmt.Sprint(want) {
		t.Fatalf("merged flush order %v, want %v", r.seen, want)
	}
}

func TestPlugDoubleInstallRejected(t *testing.T) {
	r := newPlugRig(t)
	r.s.Go("drive", func() {
		if err := r.n.InstallPlug("dst", 0, matchAll); err != nil {
			t.Errorf("install: %v", err)
		}
		if err := r.n.InstallPlug("dst", 0, matchAll); err == nil {
			t.Error("second InstallPlug succeeded, want error")
		}
		r.n.DiscardPlug("dst")
	})
	r.s.Run()
}
