// Package trace provides measurement utilities for the evaluation
// harness: named phase timelines (the Fig. 3 blackout breakdown) and a
// fixed-interval throughput sampler built on the NIC byte counters (the
// paper samples Mellanox ethtool counters at 5 ms granularity for
// Fig. 5, §5.5.2).
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"migrrdma/internal/metrics"
	"migrrdma/internal/rnic"
	"migrrdma/internal/sim"
)

// Timeline records named, possibly overlapping phases.
type Timeline struct {
	sched  *sim.Scheduler
	label  string
	phases []Phase
	open   map[string]time.Duration
	errs   []string
}

// SetLabel tags the timeline (e.g. with a migration ID); String
// prefixes every rendered line with it so overlapping timelines stay
// distinguishable in merged output.
func (t *Timeline) SetLabel(label string) { t.label = label }

// Label returns the timeline's tag.
func (t *Timeline) Label() string { return t.label }

// Phase is one named interval. Annotation is empty for a normally
// closed phase and "unclosed" for one still open at snapshot time.
type Phase struct {
	Name       string
	Start, End time.Duration
	Annotation string
}

// Dur returns the phase length.
func (p Phase) Dur() time.Duration { return p.End - p.Start }

// NewTimeline creates a timeline on the scheduler's clock.
func NewTimeline(s *sim.Scheduler) *Timeline {
	return &Timeline{sched: s, open: make(map[string]time.Duration)}
}

// Begin opens a phase.
func (t *Timeline) Begin(name string) { t.open[name] = t.sched.Now() }

// End closes a phase, recording it. Ending a phase that was never
// opened is a harness bug, but one that must not kill a long
// experiment mid-run: it is recorded as an error marker retrievable
// via Errs and rendered in the report instead of panicking.
func (t *Timeline) End(name string) {
	start, ok := t.open[name]
	if !ok {
		t.errs = append(t.errs, fmt.Sprintf("End of unopened phase %q at %v", name, t.sched.Now()))
		return
	}
	delete(t.open, name)
	t.phases = append(t.phases, Phase{Name: name, Start: start, End: t.sched.Now()})
}

// Measure runs fn as the named phase.
func (t *Timeline) Measure(name string, fn func()) {
	t.Begin(name)
	fn()
	t.End(name)
}

// Mark records an instantaneous, zero-length phase with an annotation —
// a point event on the timeline, such as the moment a migration
// aborted.
func (t *Timeline) Mark(name, annotation string) {
	now := t.sched.Now()
	t.phases = append(t.phases, Phase{Name: name, Start: now, End: now, Annotation: annotation})
}

// Errs returns the error markers recorded so far (unopened-phase Ends).
func (t *Timeline) Errs() []string {
	out := make([]string, len(t.errs))
	copy(out, t.errs)
	return out
}

// Get returns the total duration of all closed phases with the name.
func (t *Timeline) Get(name string) time.Duration {
	var sum time.Duration
	for _, p := range t.phases {
		if p.Name == name {
			sum += p.Dur()
		}
	}
	return sum
}

// Phases returns the recorded phases in start order. Phases still open
// are closed at the current instant and annotated "unclosed" instead of
// being silently dropped; the timeline itself is not mutated, so a
// later End still records the real interval.
func (t *Timeline) Phases() []Phase {
	out := make([]Phase, len(t.phases), len(t.phases)+len(t.open))
	copy(out, t.phases)
	now := t.sched.Now()
	openNames := make([]string, 0, len(t.open))
	for name := range t.open {
		openNames = append(openNames, name)
	}
	sort.Strings(openNames)
	for _, name := range openNames {
		out = append(out, Phase{Name: name, Start: t.open[name], End: now, Annotation: "unclosed"})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// String formats the timeline for reports, including unclosed phases
// and error markers.
func (t *Timeline) String() string {
	prefix := ""
	if t.label != "" {
		prefix = "[" + t.label + "] "
	}
	var b strings.Builder
	for _, p := range t.Phases() {
		fmt.Fprintf(&b, "%s%-14s %10v  (at %v)", prefix, p.Name, p.Dur().Round(time.Microsecond), p.Start.Round(time.Microsecond))
		if p.Annotation != "" {
			fmt.Fprintf(&b, "  [%s]", p.Annotation)
		}
		b.WriteByte('\n')
	}
	for _, e := range t.errs {
		fmt.Fprintf(&b, "%serror: %s\n", prefix, e)
	}
	return b.String()
}

// Sample is one throughput measurement.
type Sample struct {
	T    time.Duration
	Gbps float64
}

// Sampler periodically reads a byte counter and converts the delta to
// throughput. It consumes the metrics registry (the simulated ethtool
// counter file) rather than reaching into device internals.
type Sampler struct {
	sched    *sim.Scheduler
	counter  metrics.Counter
	interval time.Duration

	samples []Sample
	stop    bool
}

// NewSampler samples dev's wire byte counter every interval. rx selects
// the receive counter (otherwise transmit). The counter handle is
// resolved from the device's metrics registry.
func NewSampler(dev *rnic.Device, interval time.Duration, rx bool) *Sampler {
	name := "tx_bytes"
	if rx {
		name = "rx_bytes"
	}
	c := dev.Metrics().Counter("rnic", name, metrics.L("node", dev.Node()))
	return NewCounterSampler(dev.Scheduler(), c, interval)
}

// NewCounterSampler samples an arbitrary registry byte counter.
func NewCounterSampler(sched *sim.Scheduler, c metrics.Counter, interval time.Duration) *Sampler {
	return &Sampler{sched: sched, counter: c, interval: interval}
}

// Run samples until Stop is called; spawn it as a proc.
func (s *Sampler) Run() {
	last := s.counter.Value()
	for !s.stop {
		s.sched.Sleep(s.interval)
		cur := s.counter.Value()
		gbps := float64(cur-last) * 8 / s.interval.Seconds() / 1e9
		s.samples = append(s.samples, Sample{T: s.sched.Now(), Gbps: gbps})
		last = cur
	}
}

// Stop ends sampling after the current interval.
func (s *Sampler) Stop() { s.stop = true }

// Samples returns the collected series.
func (s *Sampler) Samples() []Sample { return s.samples }

// MinMax returns the lowest and highest sampled throughput within
// [from, to].
func (s *Sampler) MinMax(from, to time.Duration) (min, max float64) {
	return s.minMax(from, to, false)
}

// MinMaxNonZero is MinMax restricted to non-zero samples — the brownout
// floor, excluding the blackout itself.
func (s *Sampler) MinMaxNonZero(from, to time.Duration) (min, max float64) {
	return s.minMax(from, to, true)
}

func (s *Sampler) minMax(from, to time.Duration, skipZero bool) (min, max float64) {
	first := true
	for _, sm := range s.samples {
		if sm.T < from || sm.T > to {
			continue
		}
		if skipZero && sm.Gbps < 0.5 {
			continue
		}
		if first {
			min, max = sm.Gbps, sm.Gbps
			first = false
			continue
		}
		if sm.Gbps < min {
			min = sm.Gbps
		}
		if sm.Gbps > max {
			max = sm.Gbps
		}
	}
	return min, max
}

// ZeroSpan returns the longest contiguous run of (near-)zero samples in
// [from, to] — the observed communication blackout of Fig. 5.
func (s *Sampler) ZeroSpan(from, to time.Duration) time.Duration {
	var longest, run time.Duration
	for _, sm := range s.samples {
		if sm.T < from || sm.T > to {
			continue
		}
		if sm.Gbps < 0.5 {
			run += s.interval
			if run > longest {
				longest = run
			}
		} else {
			run = 0
		}
	}
	return longest
}
