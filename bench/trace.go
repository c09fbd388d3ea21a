package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one traced interval. Host spans are on the wall clock, measured
// from the start of the trace; virtual spans are durations the simulated
// system reported, laid out under the rep that produced them.
type span struct {
	name       string
	virtual    bool
	start, end time.Duration
	parent     int // index of the causing span, -1 for a root
}

// tracer keeps spans in memory until write. A nil tracer records
// nothing, so the untraced run pays for no span.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a host span and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent})
	return len(t.spans) - 1
}

// end closes a host span.
func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].end = time.Since(t.t0)
	}
}

// phases records a rep's virtual-time phases as children of its span,
// one after another from where the span starts.
func (t *tracer) phases(parent int, ps []phase) {
	if t == nil {
		return
	}
	at := t.spans[parent].start
	for _, p := range ps {
		t.spans = append(t.spans, span{name: p.name, virtual: true, start: at, end: at + p.d, parent: parent})
		at += p.d
	}
}

// write stores the spans as Chrome trace-event JSON: thread 1 is the
// host clock, thread 2 the virtual-time track.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		tid := 1
		if s.virtual {
			tid = 2
		}
		events = append(events, event{
			Name: s.name, Ph: "X", TS: us(s.start), Dur: us(s.end - s.start), PID: 1, TID: tid,
			Args: map[string]any{"id": i, "parent": s.parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
