package telemetry

import (
	"sync/atomic"
	"time"
)

// Progress tracks a campaign's live state for the /progress endpoint: the
// current phase (experiment name), how many campaign tasks have completed
// out of how many were planned, and wall-clock throughput derived from the
// registry's kernel counters.  All fields are atomics — updating progress
// from a campaign worker is wait-free and never observable in simulation
// output.
type Progress struct {
	phase   atomic.Value // string
	planned atomic.Int64
	done    atomic.Int64
	startNS atomic.Int64 // wall-clock campaign start (UnixNano); 0 = not started
}

// defaultProgress is the process-wide tracker the CLIs expose.
var defaultProgress = &Progress{}

// DefaultProgress returns the process-wide progress tracker.
func DefaultProgress() *Progress { return defaultProgress }

// Start stamps the campaign's wall-clock start and clears task counts.
func (p *Progress) Start() {
	p.startNS.Store(time.Now().UnixNano())
	p.planned.Store(0)
	p.done.Store(0)
	p.phase.Store("")
}

// SetPhase names the campaign phase (the experiment currently running).
func (p *Progress) SetPhase(name string) { p.phase.Store(name) }

// AddPlanned registers n more campaign tasks (runs fanned out by the
// parallel runner).
func (p *Progress) AddPlanned(n int64) { p.planned.Add(n) }

// MarkDone records one completed campaign task.
func (p *Progress) MarkDone() { p.done.Add(1) }

// Snapshot is the JSON shape of /progress.
type ProgressSnapshot struct {
	Phase          string  `json:"phase"`
	TasksDone      int64   `json:"tasks_done"`
	TasksPlanned   int64   `json:"tasks_planned"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// EventsFired mirrors the registry's fired-events counter at snapshot
	// time; EventsPerSecond is its wall-clock rate since Start.
	EventsFired     int64   `json:"events_fired"`
	EventsPerSecond float64 `json:"events_per_second"`
}

// Snapshot freezes the progress against the registry's kernel counters.
func (p *Progress) Snapshot(r *Registry) ProgressSnapshot {
	s := ProgressSnapshot{
		TasksDone:    p.done.Load(),
		TasksPlanned: p.planned.Load(),
		EventsFired:  r.CounterValue("swprobe_kernel_events_fired_total"),
	}
	if ph, ok := p.phase.Load().(string); ok {
		s.Phase = ph
	}
	if start := p.startNS.Load(); start > 0 {
		s.ElapsedSeconds = time.Since(time.Unix(0, start)).Seconds()
		if s.ElapsedSeconds > 0 {
			s.EventsPerSecond = float64(s.EventsFired) / s.ElapsedSeconds
		}
	}
	return s
}
