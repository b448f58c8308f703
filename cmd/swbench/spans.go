package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call the benchmark makes into a layer.  Spans of one
// iteration (or of one layer driver) share a request id; parent is the id
// of the enclosing span, 0 for a root.
type span struct {
	id, parent, request int64
	name                string
	start, end          time.Duration // since the run started
}

// tracer records spans in memory, on the child's main goroutine only, and
// writes them when the run ends.  A disabled tracer records nothing.
type tracer struct {
	on      bool
	origin  time.Time
	spans   []span
	open    []int // indexes into spans of the spans not yet ended
	request int64
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

// beginRequest starts a new request: spans begun until the next call share
// its id.
func (t *tracer) beginRequest() { t.request++ }

// begin opens a span nested in the innermost open one and returns the
// function that ends it.
func (t *tracer) begin(name string) (end func()) {
	if !t.on {
		return func() {}
	}
	var parent int64
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].id
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{
		id: int64(idx + 1), parent: parent, request: t.request,
		name: name, start: time.Since(t.origin),
	})
	t.open = append(t.open, idx)
	return func() {
		t.spans[idx].end = time.Since(t.origin)
		t.open = t.open[:len(t.open)-1]
	}
}

// self returns every span's self time, indexed like spans: its duration
// minus the part its direct children cover.  Children of one span never
// overlap, because the benchmark calls layers one at a time from one
// goroutine.
func (t *tracer) self() []time.Duration {
	out := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		out[i] += s.end - s.start
		if s.parent != 0 {
			out[s.parent-1] -= s.end - s.start
		}
	}
	return out
}

// selfTimes returns the self times, in seconds, of the spans of each name.
func (t *tracer) selfTimes() map[string][]float64 {
	out := map[string][]float64{}
	for i, d := range t.self() {
		name := t.spans[i].name
		out[name] = append(out[name], d.Seconds())
	}
	return out
}

// traceEvent is one span in the Chrome trace-event format, so a spans file
// opens directly in Perfetto or chrome://tracing.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores every span as a complete ("X") event.  Each request gets its
// own track (tid), so an iteration's phases stack under its root span.
func (t *tracer) write(path string) error {
	events := make([]traceEvent, 0, len(t.spans))
	self := t.self()
	for i, s := range t.spans {
		events = append(events, traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.request,
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{
				"id": s.id, "parent": s.parent, "request": s.request,
				"self_us": float64(self[i].Nanoseconds()) / 1e3,
			},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
