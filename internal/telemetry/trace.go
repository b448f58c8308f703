package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Structured trace export in the Chrome trace-event JSON format, viewable in
// Perfetto (ui.perfetto.dev) or chrome://tracing.  Timestamps are virtual
// simulation time in microseconds, so a trace lays out per-leaf lanes, job
// lifetimes and fault windows on the simulated clock, not the wall clock.
//
// The tracer is process-global and off by default; the fast path for every
// instrumented site is a single atomic load (TraceEnabled).  High-rate
// categories additionally pass through a Sampler, a plain countdown owned by
// the simulation that emits them — never a random draw, so tracing can never
// perturb a simulation's RNG streams, and never a counter shared across
// runs, so the sampled set is the same whatever -parallel is.  Each
// simulation emits from the one goroutine that drives it, but concurrent
// campaign runs interleave in wall execution order, so emission order (and
// pid numbering) across runs is not deterministic; the set of events is.

// TraceEvent is one Chrome trace-event JSON record.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the on-disk layout: the standard JSON object form.
type traceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// maxTraceEvents bounds the in-memory buffer; events beyond it are counted
// as dropped (surfaced via swprobe_trace_events_dropped_total) rather than
// growing without limit on a long campaign with a too-eager sampling rate.
const maxTraceEvents = 1 << 20

type tracer struct {
	mu      sync.Mutex
	dst     io.Writer
	events  []TraceEvent
	every   int64
	emitted *Counter
	dropped *Counter
}

var (
	traceOn     atomic.Bool
	activeTrace atomic.Pointer[tracer]
	tracePids   atomic.Int64
)

// StartTrace arms the global tracer: subsequent Emit* calls buffer events,
// and StopTrace writes them to w as one JSON document.  sampleEvery is the
// sampling period of every Sampler (the high-rate categories): every
// sampleEvery-th event of each simulation is kept; values < 1 mean 1 (keep
// everything).
// Low-rate structural events (placements, fault windows) bypass sampling.
// Starting while a trace is active replaces it without flushing (callers
// pair Start/Stop).
func StartTrace(w io.Writer, sampleEvery int64) {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	t := &tracer{
		dst:     w,
		every:   sampleEvery,
		emitted: Default().Counter("swprobe_trace_events_total", "Trace events buffered by the structured trace exporter"),
		dropped: Default().Counter("swprobe_trace_events_dropped_total", "Trace events dropped by the exporter's buffer cap"),
	}
	activeTrace.Store(t)
	traceOn.Store(true)
}

// StopTrace disarms the tracer and writes the buffered events to the Start
// writer as a Chrome trace JSON document.  A no-op when no trace is active.
func StopTrace() error {
	t := activeTrace.Swap(nil)
	traceOn.Store(false)
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := traceFile{TraceEvents: t.events, DisplayTimeUnit: "ns"}
	if doc.TraceEvents == nil {
		doc.TraceEvents = []TraceEvent{}
	}
	enc := json.NewEncoder(t.dst)
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("telemetry: writing trace: %w", err)
	}
	return nil
}

// TraceEnabled reports whether a trace is being recorded.  It is the guard
// every instrumentation site checks before assembling event arguments, so a
// disabled tracer costs one atomic load.
func TraceEnabled() bool { return traceOn.Load() }

// Sampler keeps every sampleEvery-th high-rate event of one simulation.
// Each simulation owns its samplers and drives them from its one goroutine,
// so a Sampler is a plain countdown with no atomics, and which events are
// kept depends only on that simulation's own event sequence.  The zero value
// is ready to use.
type Sampler struct{ left int64 }

// Hit reports whether the next high-rate event should be kept: true for
// every sampleEvery-th call while a trace is active.  Callers check
// TraceEnabled first, so a disabled tracer never reaches it.
func (s *Sampler) Hit() bool {
	if s.left == 0 {
		t := activeTrace.Load()
		if t == nil {
			return false
		}
		s.left = t.every
	}
	s.left--
	return s.left == 0
}

// NextTracePid allocates a fresh trace process id.  Each simulation run (or
// scheduler scenario) takes one, so its lanes group under one process in the
// viewer.
func NextTracePid() int64 { return tracePids.Add(1) }

// append buffers one event under the cap.
func (t *tracer) append(ev TraceEvent) {
	t.mu.Lock()
	if len(t.events) >= maxTraceEvents {
		t.mu.Unlock()
		t.dropped.Inc()
		return
	}
	t.events = append(t.events, ev)
	t.mu.Unlock()
	t.emitted.Inc()
}

func emit(ev TraceEvent) {
	if t := activeTrace.Load(); t != nil {
		t.append(ev)
	}
}

// EmitInstant records an instant event ("i" phase) at virtual time tsNS.
func EmitInstant(cat, name string, pid, tid int64, tsNS int64, args map[string]any) {
	emit(TraceEvent{Name: name, Cat: cat, Ph: "i", TS: float64(tsNS) / 1e3, Pid: pid, Tid: tid, Args: args})
}

// EmitSpan records a complete span ("X" phase) from tsNS for durNS.
func EmitSpan(cat, name string, pid, tid int64, tsNS, durNS int64, args map[string]any) {
	emit(TraceEvent{Name: name, Cat: cat, Ph: "X", TS: float64(tsNS) / 1e3, Dur: float64(durNS) / 1e3, Pid: pid, Tid: tid, Args: args})
}

// EmitProcessName attaches a viewer name to a trace pid (metadata event).
func EmitProcessName(pid int64, name string) {
	emit(TraceEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": name}})
}

// EmitThreadName attaches a viewer name to a (pid, tid) lane.
func EmitThreadName(pid, tid int64, name string) {
	emit(TraceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}})
}
