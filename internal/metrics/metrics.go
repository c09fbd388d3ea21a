// Package metrics is the deterministic telemetry substrate of the
// simulated MigrRDMA stack: a registry of counters, gauges and
// fixed-bucket histograms keyed by component/name{labels}, stamped with
// the simulation clock, and the one event stream every layer emits
// into (Emit, Listen).
//
// Two properties drive the design:
//
//   - Hot-path increments are one atomic add on a cached handle. The
//     registry map is consulted only at handle-creation time (device,
//     QP, port and session construction), never on the data path.
//   - Everything observable is deterministic. Snapshots render metrics
//     in sorted key order and carry the virtual timestamp, so two runs
//     of the same seeded simulation produce byte-identical snapshots —
//     the chaos harness folds the snapshot hash into its trace hash to
//     make metric regressions break determinism loudly.
//
// Increments are atomic so metrics stay truthful even off the
// simulation loop (the race-detector tests exercise raw concurrent
// goroutines); reads taken mid-simulation see the values as of the
// current virtual instant because sim procs are serialized.
package metrics

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"migrrdma/internal/fifo"
)

// Kind discriminates metric types.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind for rendering.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Labels is a label set rendered once, as it appears in a key:
// "{k=v,...}" with the label keys sorted, or "" for no labels. An owner
// (device, QP, session, port) renders its labels when it is built and
// registers all its metrics under them.
type Labels struct{ s string }

// maxLabels bounds a label set; the widest in the tree has three.
const maxLabels = 4

// L renders the label set given as key, value pairs, in any order.
func L(kv ...string) Labels {
	if len(kv)%2 != 0 {
		panic("metrics: L takes key, value pairs")
	}
	if len(kv) == 0 {
		return Labels{}
	}
	// Insertion-sort a copy of the pairs by key: the caller's slice is not
	// ours to reorder. The copy is an array indexed as an array — escape
	// analysis takes a store through a slice for a leak — so it stays on
	// the stack and a caller may pass a value formatted on its own.
	var pairs [2 * maxLabels]string
	n := len(kv)
	if n > len(pairs) {
		panic("metrics: too many labels")
	}
	size := 1 + n // braces, '=' and ',' between pairs
	for i := 0; i < n; i += 2 {
		pairs[i], pairs[i+1] = kv[i], kv[i+1]
		size += len(kv[i]) + len(kv[i+1])
		for j := i; j > 0 && pairs[j] < pairs[j-2]; j -= 2 {
			pairs[j], pairs[j-2] = pairs[j-2], pairs[j]
			pairs[j+1], pairs[j-1] = pairs[j-1], pairs[j+1]
		}
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteByte('{')
	for i := 0; i < n; i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteByte('=')
		b.WriteString(pairs[i+1])
	}
	b.WriteByte('}')
	return Labels{b.String()}
}

// metric is the shared storage behind every handle type.
type metric struct {
	key  string
	kind Kind

	// val is the counter/gauge value.
	val atomic.Int64
	// high is the gauge high-water mark.
	high atomic.Int64

	hist *histogram // KindHistogram only
}

// histogram is the state of a fixed-bucket distribution: bounds are the
// inclusive upper bucket bounds; buckets[i] counts observations ≤
// bounds[i], buckets[len(bounds)] is the overflow (+Inf) bucket.
type histogram struct {
	bounds  []int64
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Registry holds the metrics of one simulated cluster, and its event
// stream.
type Registry struct {
	nowFn  func() time.Duration
	listen func(Event) error

	mu       sync.Mutex
	byKey    map[string]*metric
	ordered  []*metric // every metric; Snapshot sorts it by key in place
	unsorted bool      // a metric was registered since the last sort
	// slab hands out the storage of new metrics, a slab at a time;
	// nothing is put back, as a metric lives as long as the registry.
	slab fifo.FreeList[*metric]
}

// New creates a registry stamping snapshots with now (typically the
// scheduler's clock). A nil now yields zero timestamps — useful for
// detached registries in unit tests.
func New(now func() time.Duration) *Registry {
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	return &Registry{nowFn: now, byKey: make(map[string]*metric)}
}

// Block registers the metrics of one owner: component/name{labels} for
// each name asked of it. Every key of the block is a slice of one key
// buffer and every new metric comes from the registry's slab, so an
// owner costs the same few allocations whether it has one counter or
// ten. n is the number of metrics the owner registers; it only sizes
// the buffer, and a block asked for more takes another. A Block is used
// where it is declared and not copied.
type Block struct {
	r         *Registry
	component string
	labels    Labels
	left      int             // metrics still expected
	keys      strings.Builder // the key buffer; keys are slices of its String
}

// Block starts registering the n metrics of one owner.
func (r *Registry) Block(component string, labels Labels, n int) Block {
	return Block{r: r, component: component, labels: labels, left: n}
}

// keyRoom is the room the key buffer leaves for a metric name; a longer
// name only makes the buffer grow.
const keyRoom = 16

// lookup returns the metric for component/name{labels}, creating it with
// the given kind. A kind clash (same key registered as two different
// types) panics: it is a programming error, not a runtime condition.
func (b *Block) lookup(name string, kind Kind, bounds []int64) *metric {
	if b.left < 1 {
		b.left = 1
	}
	perKey := len(b.component) + 1 + len(b.labels.s)
	if room := perKey + len(name); b.keys.Cap()-b.keys.Len() < room {
		// Keys handed out already keep the buffer they were cut from.
		b.keys = strings.Builder{}
		b.keys.Grow(b.left*(perKey+keyRoom) + len(name))
	}
	start := b.keys.Len()
	b.keys.WriteString(b.component)
	b.keys.WriteByte('/')
	b.keys.WriteString(name)
	b.keys.WriteString(b.labels.s)
	key := b.keys.String()[start:]

	r := b.r
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.byKey[key]
	if ok {
		if m.kind != kind {
			panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", key, m.kind, kind))
		}
	} else {
		m = r.slab.Get(fifo.SlabMax, fifo.Objects[metric])
		m.key, m.kind = key, kind
		if kind == KindHistogram {
			m.hist = &histogram{
				bounds:  append([]int64(nil), bounds...),
				buckets: make([]atomic.Int64, len(bounds)+1),
			}
		}
		r.byKey[key] = m
		r.ordered = append(r.ordered, m)
		r.unsorted = true
	}
	b.left--
	return m
}

// Counter is a handle to a monotonic count. Handles are values, meant to
// be resolved once and kept on hot-path structs; the zero handle
// discards what it is given and reads zero, so an owner that runs
// without a registry needs no guard at its increments.
type Counter struct{ m *metric }

// Counter resolves (creating if needed) the block's counter name.
func (b *Block) Counter(name string) Counter {
	return Counter{b.lookup(name, KindCounter, nil)}
}

// Counter resolves the single counter component/name{labels}.
func (r *Registry) Counter(component, name string, labels Labels) Counter {
	b := r.Block(component, labels, 1)
	return b.Counter(name)
}

// Add increments the counter by n.
func (c Counter) Add(n int64) {
	if c.m != nil {
		c.m.val.Add(n)
	}
}

// Inc increments the counter by one.
func (c Counter) Inc() { c.Add(1) }

// Value reads the current count.
func (c Counter) Value() int64 {
	if c.m == nil {
		return 0
	}
	return c.m.val.Load()
}

// Gauge is a handle to a point-in-time value that also tracks its
// high-water mark. The zero handle discards, as a Counter's does.
type Gauge struct{ m *metric }

// Gauge resolves (creating if needed) the block's gauge name.
func (b *Block) Gauge(name string) Gauge {
	return Gauge{b.lookup(name, KindGauge, nil)}
}

// Gauge resolves the single gauge component/name{labels}.
func (r *Registry) Gauge(component, name string, labels Labels) Gauge {
	b := r.Block(component, labels, 1)
	return b.Gauge(name)
}

// Set records the current value, updating the high-water mark.
func (g Gauge) Set(v int64) {
	if g.m == nil {
		return
	}
	g.m.val.Store(v)
	g.raise(v)
}

// Add shifts the gauge by delta, updating the high-water mark.
func (g Gauge) Add(delta int64) {
	if g.m == nil {
		return
	}
	g.raise(g.m.val.Add(delta))
}

func (g Gauge) raise(v int64) {
	for {
		h := g.m.high.Load()
		if v <= h || g.m.high.CompareAndSwap(h, v) {
			return
		}
	}
}

// Value reads the current gauge value.
func (g Gauge) Value() int64 {
	if g.m == nil {
		return 0
	}
	return g.m.val.Load()
}

// High reads the high-water mark.
func (g Gauge) High() int64 {
	if g.m == nil {
		return 0
	}
	return g.m.high.Load()
}

// Histogram is a handle to a fixed-bucket distribution. The zero handle
// discards, as a Counter's does.
type Histogram struct{ m *metric }

// Histogram resolves (creating if needed) the block's histogram name
// with the given inclusive upper bucket bounds (must be sorted
// ascending). The bounds of the first registration win; later lookups
// reuse them.
func (b *Block) Histogram(name string, bounds []int64) Histogram {
	return Histogram{b.lookup(name, KindHistogram, bounds)}
}

// Histogram resolves the single histogram component/name{labels}.
func (r *Registry) Histogram(component, name string, labels Labels, bounds []int64) Histogram {
	b := r.Block(component, labels, 1)
	return b.Histogram(name, bounds)
}

// Observe records one sample.
func (h Histogram) Observe(v int64) {
	if h.m == nil {
		return
	}
	hs := h.m.hist
	// Bounds are a handful of values: a scan beats a binary search and
	// needs no closure.
	i := 0
	for i < len(hs.bounds) && v > hs.bounds[i] {
		i++
	}
	hs.buckets[i].Add(1)
	hs.count.Add(1)
	hs.sum.Add(v)
}

// Count reads the number of observations.
func (h Histogram) Count() int64 {
	if h.m == nil {
		return 0
	}
	return h.m.hist.count.Load()
}

// Sum reads the sum of observations.
func (h Histogram) Sum() int64 {
	if h.m == nil {
		return 0
	}
	return h.m.hist.sum.Load()
}

// --- Event stream ------------------------------------------------------------

// Event is one entry of the registry's event stream: something a layer
// did, at the virtual instant it did it. A kind fills these fields:
//
//	cqe      Node QPN Seq Op Status  a completion (Seq its WR-ID) enters a CQ (rnic)
//	ack      Node QPN PSN            a send-queue entry is acknowledged (rnic)
//	exp      Node QPN PSN            a responder advances its expected PSN (rnic)
//	dereg    Node RKey               an MR is deregistered (rnic)
//	rkey     Node RKey OK            an inbound rkey check and its verdict (rnic)
//	plug     Node Seq Note           a plug-buffer event on a frame's arrival seq (fabric, core)
//	pchan    Mig Seq Note            a page-channel chunk event (pagechan)
//	stage    Mig Note                a migration enters a workflow stage (runc)
//	attempt  Mig Note                drain migration Mig runs as executor job Note (orchestrator)
type Event struct {
	T          time.Duration // stamped by Emit
	Kind       string
	Node, Mig  string
	QPN        uint32
	Seq        uint64
	PSN        uint32
	Op, Status uint8
	RKey       uint32
	OK         bool
	Note       string
}

// Listen makes fn the registry's listener; nil removes it. fn runs
// synchronously on the emitting proc, so it sees events in emission
// order and must not block. Unlike the metric handles, the listener is
// not synchronised: set it before the simulation runs or from a proc.
func (r *Registry) Listen(fn func(Event) error) { r.listen = fn }

// Emit stamps e with the registry's clock and hands it to the listener.
// On a nil registry, or with no listener, it is a branch: no event is
// stamped and nothing allocates. The listener's error is returned; only
// the emitters of events that open a unit of work read it: the phase
// engine (a stage event's error fails that phase) and the page channel
// (a chunk send's error aborts the round).
func (r *Registry) Emit(e Event) error {
	if r == nil || r.listen == nil {
		return nil
	}
	return r.emit(e)
}

// emit is Emit's listening half, kept out of line so that Emit inlines
// at every call site.
func (r *Registry) emit(e Event) error {
	e.T = r.nowFn()
	return r.listen(e)
}

// --- Snapshots ---------------------------------------------------------------

// Value is one metric frozen at snapshot time.
type Value struct {
	Key  string
	Kind Kind

	// Counter / gauge value.
	Value int64
	// Gauge high-water mark.
	High int64

	// Histogram state.
	Bounds  []int64
	Buckets []int64
	Count   int64
	Sum     int64
}

// Snapshot is a point-in-time copy of every metric, sorted by key.
type Snapshot struct {
	Time   time.Duration
	Values []Value
}

// Snapshot freezes the registry.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	if r.unsorted {
		// Keys are unique, so the order is total; sorting the registry's
		// own list leaves the next snapshot an already sorted input.
		slices.SortFunc(r.ordered, func(a, b *metric) int { return strings.Compare(a.key, b.key) })
		r.unsorted = false
	}
	ms := append([]*metric(nil), r.ordered...)
	r.mu.Unlock()
	s := &Snapshot{Time: r.nowFn(), Values: make([]Value, 0, len(ms))}
	for _, m := range ms {
		v := Value{Key: m.key, Kind: m.kind}
		switch m.kind {
		case KindCounter:
			v.Value = m.val.Load()
		case KindGauge:
			v.Value = m.val.Load()
			v.High = m.high.Load()
		case KindHistogram:
			v.Bounds = m.hist.bounds
			v.Buckets = make([]int64, len(m.hist.buckets))
			for i := range m.hist.buckets {
				v.Buckets[i] = m.hist.buckets[i].Load()
			}
			v.Count = m.hist.count.Load()
			v.Sum = m.hist.sum.Load()
		}
		s.Values = append(s.Values, v)
	}
	return s
}

// Get returns the value for an exact key.
func (s *Snapshot) Get(key string) (Value, bool) {
	i := sort.Search(len(s.Values), func(i int) bool { return s.Values[i].Key >= key })
	if i < len(s.Values) && s.Values[i].Key == key {
		return s.Values[i], true
	}
	return Value{}, false
}

// Sum adds up every counter/gauge value whose key is component/name
// with any label set — the cross-node roll-up the chaos report uses.
func (s *Snapshot) Sum(component, name string) int64 {
	exact := component + "/" + name
	var total int64
	for _, v := range s.Values {
		if sumKey(v.Key, exact) {
			total += v.Value
		}
	}
	return total
}

// Sum is Snapshot().Sum(component, name) read off the live metrics, with
// no copy and no sort (a histogram's Value is zero in a snapshot too).
func (r *Registry) Sum(component, name string) int64 {
	exact := component + "/" + name
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, m := range r.ordered {
		if m.kind != KindHistogram && sumKey(m.key, exact) {
			total += m.val.Load()
		}
	}
	return total
}

// sumKey reports whether key is exact, bare or with labels.
func sumKey(key, exact string) bool {
	rest, ok := strings.CutPrefix(key, exact)
	return ok && (rest == "" || rest[0] == '{')
}

// Diff returns a snapshot holding the change since prev: counters and
// histogram buckets subtract; gauges keep their current value (a gauge
// delta is meaningless). Metrics absent from prev diff against zero.
func (s *Snapshot) Diff(prev *Snapshot) *Snapshot {
	old := make(map[string]Value, len(prev.Values))
	for _, v := range prev.Values {
		old[v.Key] = v
	}
	out := &Snapshot{Time: s.Time, Values: make([]Value, 0, len(s.Values))}
	for _, v := range s.Values {
		d := v
		if o, ok := old[v.Key]; ok {
			switch v.Kind {
			case KindCounter:
				d.Value = v.Value - o.Value
			case KindHistogram:
				d.Count = v.Count - o.Count
				d.Sum = v.Sum - o.Sum
				d.Buckets = make([]int64, len(v.Buckets))
				for i := range v.Buckets {
					d.Buckets[i] = v.Buckets[i]
					if i < len(o.Buckets) {
						d.Buckets[i] -= o.Buckets[i]
					}
				}
			}
		}
		out.Values = append(out.Values, d)
	}
	return out
}

// String renders the snapshot as sorted "key value" lines — the format
// `migrctl stats` prints and the determinism tests byte-compare.
func (s *Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# snapshot at %v (%d metrics)\n", s.Time, len(s.Values))
	for _, v := range s.Values {
		switch v.Kind {
		case KindCounter:
			fmt.Fprintf(&b, "%-52s %d\n", v.Key, v.Value)
		case KindGauge:
			fmt.Fprintf(&b, "%-52s %d high=%d\n", v.Key, v.Value, v.High)
		case KindHistogram:
			fmt.Fprintf(&b, "%-52s count=%d sum=%d", v.Key, v.Count, v.Sum)
			for i, n := range v.Buckets {
				if i < len(v.Bounds) {
					fmt.Fprintf(&b, " le%d=%d", v.Bounds[i], n)
				} else {
					fmt.Fprintf(&b, " inf=%d", n)
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Hash folds the rendered snapshot into a SHA-256 hex digest. Because
// rendering is key-sorted and timestamped with the virtual clock, the
// hash is stable across identical seeded runs.
func (s *Snapshot) Hash() string {
	h := sha256.Sum256([]byte(s.String()))
	return hex.EncodeToString(h[:])
}
