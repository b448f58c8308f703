// Package engine executes declarative simulation runs (core.RunSpec) through
// a single choke point with content-addressed caching:
//
//	RunSpec ──hash──▶ in-memory map ──▶ on-disk store ──▶ live simulation
//
// Every artifact an experiment needs — calibrations, impact signatures,
// baselines, compressed runtimes, co-run pairs — is requested by spec.  The
// engine deduplicates concurrent identical specs (singleflight), memoizes
// results in-process, and optionally persists them as JSON blobs keyed by
// spec hash so a warm re-run of an entire campaign executes zero
// simulations.  Artifacts are versioned by core.SpecVersion(): any kernel or
// network-model generation bump invalidates old caches cleanly.
package engine

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"github.com/hpcperf/switchprobe/internal/core"
	"github.com/hpcperf/switchprobe/internal/inject"
	"github.com/hpcperf/switchprobe/internal/telemetry"
	"github.com/hpcperf/switchprobe/internal/workload"
)

// cacheTel are the process-wide telemetry series for cache accounting.  Each
// engine instance additionally keeps private atomics (Stats) so campaign code
// can take per-phase and per-policy deltas of a single engine while several
// engines run concurrently; the registry series are the cross-engine totals
// /metrics exposes.  In the CLIs exactly one engine serves a campaign, so the
// "Cache:" summary line and the registry agree number for number.
var cacheTel = struct {
	memHits   *telemetry.Counter
	diskHits  *telemetry.Counter
	deduped   *telemetry.Counter
	simulated *telemetry.Counter
	stored    *telemetry.Counter
	loadErrs  *telemetry.Counter
	storeErrs *telemetry.Counter
}{
	memHits:   telemetry.Default().Counter("swprobe_cache_memory_hits_total", "Artifact requests served from the in-process memo"),
	diskHits:  telemetry.Default().Counter("swprobe_cache_disk_hits_total", "Artifact requests served from the on-disk store"),
	deduped:   telemetry.Default().Counter("swprobe_cache_deduped_total", "Concurrent identical specs coalesced by singleflight"),
	simulated: telemetry.Default().Counter("swprobe_cache_simulated_total", "Artifact requests resolved by a live simulation"),
	stored:    telemetry.Default().Counter("swprobe_cache_stored_total", "Artifacts persisted to the on-disk store"),
	loadErrs:  telemetry.Default().Counter("swprobe_cache_load_errors_total", "Corrupt or unreadable store blobs (fell back to live simulation)"),
	storeErrs: telemetry.Default().Counter("swprobe_cache_store_errors_total", "Failed artifact persists (results stayed in-process)"),
}

// Engine runs RunSpecs through the artifact cache.  The zero value is not
// usable; create engines with New.  All methods are safe for concurrent use.
type Engine struct {
	store *Store // nil = memory-only

	mu      sync.Mutex
	mem     map[string]core.Artifact
	flights map[string]*flight

	memHits   atomic.Int64
	diskHits  atomic.Int64
	deduped   atomic.Int64
	simulated atomic.Int64
	stored    atomic.Int64
	loadErrs  atomic.Int64
	storeErrs atomic.Int64

	// warnOnce gates the store-not-writable log line: the first failed
	// persist logs, the rest only count.
	warnOnce sync.Once
}

// flight is one in-progress execution of a spec; concurrent requests for the
// same hash wait on done instead of simulating the run again.
type flight struct {
	done chan struct{}
	art  core.Artifact
	err  error
}

// New creates an engine.  With a non-empty cacheDir artifacts are also
// persisted to (and served from) the content-addressed store under that
// directory; with an empty cacheDir the engine memoizes in-process only,
// which preserves the historical Suite semantics of "measure once per
// process".
//
// An unusable cache directory never takes the campaign down: the failure is
// logged once and the engine degrades to in-process memoization — every run
// is still measured live, just not persisted.
func New(cacheDir string) (*Engine, error) {
	e := &Engine{
		mem:     make(map[string]core.Artifact),
		flights: make(map[string]*flight),
	}
	if cacheDir != "" {
		store, err := OpenStore(cacheDir)
		if err != nil {
			log.Printf("engine: persistent cache disabled, running memory-only: %v", err)
		} else {
			e.store = store
		}
	}
	return e, nil
}

// MustNew is New that panics on error; intended for tests and memory-only
// engines (which cannot fail).
func MustNew(cacheDir string) *Engine {
	e, err := New(cacheDir)
	if err != nil {
		panic(err)
	}
	return e
}

// Persistent reports whether the engine is backed by an on-disk store.
func (e *Engine) Persistent() bool { return e.store != nil }

// StoreDir returns the schema-versioned store directory ("" when
// memory-only).
func (e *Engine) StoreDir() string {
	if e.store == nil {
		return ""
	}
	return e.store.Dir()
}

// Run executes a spec through the cache and returns its artifact.
func (e *Engine) Run(spec core.RunSpec) (core.Artifact, error) {
	hash := spec.Hash()
	e.mu.Lock()
	if art, ok := e.mem[hash]; ok {
		e.mu.Unlock()
		e.memHits.Add(1)
		cacheTel.memHits.Inc()
		return art, nil
	}
	if f, ok := e.flights[hash]; ok {
		e.mu.Unlock()
		<-f.done
		if f.err == nil {
			e.deduped.Add(1)
			cacheTel.deduped.Inc()
		}
		return f.art, f.err
	}
	f := &flight{done: make(chan struct{})}
	e.flights[hash] = f
	e.mu.Unlock()

	f.art, f.err = e.execute(spec, hash)
	close(f.done)

	e.mu.Lock()
	delete(e.flights, hash)
	if f.err == nil {
		e.mem[hash] = f.art
	}
	e.mu.Unlock()
	return f.art, f.err
}

// execute resolves a cache miss: disk first, then a live simulation (whose
// calibration dependency is itself resolved through the cache).
func (e *Engine) execute(spec core.RunSpec, hash string) (core.Artifact, error) {
	if e.store != nil {
		art, ok, err := e.store.Load(hash, spec.Kind)
		if err != nil {
			// A corrupt blob falls back to a live simulation; the rewrite
			// below repairs the store.
			e.loadErrs.Add(1)
			cacheTel.loadErrs.Inc()
		}
		if ok {
			e.diskHits.Add(1)
			cacheTel.diskHits.Inc()
			return art, nil
		}
	}
	var cal *core.Calibration
	if spec.NeedsCalibration() {
		c, err := e.Calibration(spec.Options)
		if err != nil {
			return core.Artifact{}, fmt.Errorf("%s: resolving calibration: %w", spec.Label(), err)
		}
		cal = &c
	}
	art, err := core.ExecuteSpec(spec, cal)
	if err != nil {
		return core.Artifact{}, err
	}
	e.simulated.Add(1)
	cacheTel.simulated.Inc()
	if e.store != nil {
		if err := e.store.Save(spec, hash, art); err != nil {
			// A read-only or full cache directory must not fail the science;
			// the failure is counted in Stats and logged on first occurrence
			// (every subsequent miss would repeat the same complaint).
			e.storeErrs.Add(1)
			cacheTel.storeErrs.Inc()
			e.warnOnce.Do(func() {
				log.Printf("engine: artifact store is not writable, results stay in-process: %v", err)
			})
		} else {
			e.stored.Add(1)
			cacheTel.stored.Inc()
		}
	}
	return art, nil
}

// --- typed accessors ---------------------------------------------------------

// Calibration returns the idle-fabric calibration for the options.
func (e *Engine) Calibration(o core.Options) (core.Calibration, error) {
	art, err := e.Run(core.CalibrateSpec(o))
	if err != nil {
		return core.Calibration{}, err
	}
	return *art.Calibration, nil
}

// AppImpact returns an application's impact signature in the given slot.
func (e *Engine) AppImpact(o core.Options, app workload.App, slot core.Slot) (core.Signature, error) {
	art, err := e.Run(core.AppImpactSpec(o, app, slot))
	if err != nil {
		return core.Signature{}, err
	}
	return *art.Signature, nil
}

// InjectorImpact returns a CompressionB configuration's impact signature.
func (e *Engine) InjectorImpact(o core.Options, cfg inject.Config) (core.Signature, error) {
	art, err := e.Run(core.InjectorImpactSpec(o, cfg))
	if err != nil {
		return core.Signature{}, err
	}
	return *art.Signature, nil
}

// Baseline returns an application's baseline iteration rate in the given
// slot.
func (e *Engine) Baseline(o core.Options, app workload.App, slot core.Slot) (core.Runtime, error) {
	art, err := e.Run(core.BaselineSpec(o, app, slot))
	if err != nil {
		return core.Runtime{}, err
	}
	return *art.Runtime, nil
}

// Compress returns an application's iteration rate under a CompressionB
// configuration in the given slot.
func (e *Engine) Compress(o core.Options, app workload.App, cfg inject.Config, slot core.Slot) (core.Runtime, error) {
	art, err := e.Run(core.CompressSpec(o, app, cfg, slot))
	if err != nil {
		return core.Runtime{}, err
	}
	return *art.Runtime, nil
}

// Pair returns the runtimes of two co-running applications (placed puts the
// first in SlotA and the second in SlotB of the placement-policy node
// order).
func (e *Engine) Pair(o core.Options, appA, appB workload.App, placed bool) (core.Runtime, core.Runtime, error) {
	art, err := e.Run(core.PairSpec(o, appA, appB, placed))
	if err != nil {
		return core.Runtime{}, core.Runtime{}, err
	}
	return *art.Runtime, *art.RuntimeB, nil
}

// BuildProfile assembles an application's compression profile — the slot
// baseline plus, per grid configuration, the injector's utilization and the
// application's degraded runtime — entirely from cached runs (the assembly
// itself is core.AssembleProfile, shared with the uncached path).
func (e *Engine) BuildProfile(o core.Options, app workload.App, grid []inject.Config, slot core.Slot) (core.Profile, error) {
	return core.AssembleProfile(e.Run, o, app, grid, slot)
}

// --- statistics --------------------------------------------------------------

// Stats counts how the engine satisfied artifact requests.
type Stats struct {
	// MemoryHits were served from the in-process map.
	MemoryHits int64
	// DiskHits were loaded from the persistent store.
	DiskHits int64
	// Deduped requests waited on an identical concurrent run.
	Deduped int64
	// Simulated runs executed live.
	Simulated int64
	// Stored artifacts were written to the persistent store.
	Stored int64
	// LoadErrors counts corrupt or mismatched blobs that fell back to a
	// live simulation; StoreErrors counts failed persist attempts.
	LoadErrors  int64
	StoreErrors int64
}

// Lookups returns the total number of artifact requests served.
func (s Stats) Lookups() int64 {
	return s.MemoryHits + s.DiskHits + s.Deduped + s.Simulated
}

// Minus returns the counter deltas accumulated since an earlier snapshot,
// letting callers attribute cache activity to one phase of a campaign.
func (s Stats) Minus(prev Stats) Stats {
	return Stats{
		MemoryHits:  s.MemoryHits - prev.MemoryHits,
		DiskHits:    s.DiskHits - prev.DiskHits,
		Deduped:     s.Deduped - prev.Deduped,
		Simulated:   s.Simulated - prev.Simulated,
		Stored:      s.Stored - prev.Stored,
		LoadErrors:  s.LoadErrors - prev.LoadErrors,
		StoreErrors: s.StoreErrors - prev.StoreErrors,
	}
}

// Add returns the field-wise sum of two snapshots (the inverse of Minus),
// for aggregating phase deltas.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		MemoryHits:  s.MemoryHits + o.MemoryHits,
		DiskHits:    s.DiskHits + o.DiskHits,
		Deduped:     s.Deduped + o.Deduped,
		Simulated:   s.Simulated + o.Simulated,
		Stored:      s.Stored + o.Stored,
		LoadErrors:  s.LoadErrors + o.LoadErrors,
		StoreErrors: s.StoreErrors + o.StoreErrors,
	}
}

// String renders the stats as a one-line summary for CLI output.  The
// "N simulated" clause is the warm-cache acceptance signal: a fully warm
// campaign reports "0 simulated".
func (s Stats) String() string {
	out := fmt.Sprintf("%d artifacts: %d memory hits, %d disk hits, %d simulated",
		s.Lookups(), s.MemoryHits, s.DiskHits, s.Simulated)
	if s.Deduped > 0 {
		out += fmt.Sprintf(", %d deduplicated", s.Deduped)
	}
	if s.LoadErrors > 0 || s.StoreErrors > 0 {
		out += fmt.Sprintf(", %d load errors, %d store errors", s.LoadErrors, s.StoreErrors)
	}
	return out
}

// Summary renders the engine's statistics as the CLIs' trailing "Cache:"
// line, appending the store directory when the engine is persistent.
func (e *Engine) Summary() string {
	line := e.Stats().String()
	if e.Persistent() {
		line += ", dir " + e.StoreDir()
	}
	return line
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		MemoryHits:  e.memHits.Load(),
		DiskHits:    e.diskHits.Load(),
		Deduped:     e.deduped.Load(),
		Simulated:   e.simulated.Load(),
		Stored:      e.stored.Load(),
		LoadErrors:  e.loadErrs.Load(),
		StoreErrors: e.storeErrs.Load(),
	}
}
