package core

import (
	"fmt"
	"time"

	"github.com/hpcperf/switchprobe/internal/netsim"
	"github.com/hpcperf/switchprobe/internal/sim"
	"github.com/hpcperf/switchprobe/internal/telemetry"
)

// SimUsage aggregates the kernel activity counters (sim.Kernel.Stats) of
// every measurement run executed by this package since the last Reset, plus
// the virtual and wall time those runs covered.  Runs execute in parallel
// across workers, so WallNS is the summed per-run wall time, not elapsed
// time; EventsPerSecond is therefore the mean single-run simulator
// throughput.
type SimUsage struct {
	Runs            int64
	EventsScheduled int64
	EventsFired     int64
	EventsCancelled int64
	PoolReuses      int64
	FastPathEvents  int64
	EventsElided    int64
	ProcFastResumes int64
	// TrainsWalked and TrainPackets always read zero: the relaxed engine
	// walks every packet individually.  They stay for readers that still
	// report them.
	TrainsWalked int64
	TrainPackets int64
	// LedgerClamps counts relaxed-engine credit releases clamped to keep
	// port ledgers sorted (netsim.Stats).
	LedgerClamps int64
	// Fault-injection telemetry (netsim.Stats): trunk failures applied,
	// packets lost to down trunks and re-injected, failover route
	// recomputations, and the summed retransmit backoff.  All zero unless a
	// run carried an active netsim.FaultPlan.
	TrunksFailed         int64
	PacketsRetransmitted int64
	RoutesRecomputed     int64
	RetryBackoffNs       int64
	VirtualNS            int64
	WallNS               int64
}

// EventsPerSecond returns the mean events-per-wall-second throughput of one
// simulation run, counting both fired kernel events and events the network
// layer's cut-through fast path executed on its deferred lane.
func (u SimUsage) EventsPerSecond() float64 {
	if u.WallNS <= 0 {
		return 0
	}
	return float64(u.EventsFired+u.EventsElided) / (float64(u.WallNS) / 1e9)
}

// RealTimeFactor returns how much faster than real time the simulated clock
// advanced (virtual seconds per wall second of simulation).
func (u SimUsage) RealTimeFactor() float64 {
	if u.WallNS <= 0 {
		return 0
	}
	return float64(u.VirtualNS) / float64(u.WallNS)
}

// String renders the usage as a one-line summary suitable for CLI output.
func (u SimUsage) String() string {
	pooledPct, fastPct := 0.0, 0.0
	if u.EventsScheduled > 0 {
		pooledPct = 100 * float64(u.PoolReuses) / float64(u.EventsScheduled)
		fastPct = 100 * float64(u.FastPathEvents) / float64(u.EventsScheduled)
	}
	elidedPct := 0.0
	if u.EventsFired+u.EventsElided > 0 {
		elidedPct = 100 * float64(u.EventsElided) / float64(u.EventsFired+u.EventsElided)
	}
	faults := ""
	if u.TrunksFailed > 0 || u.PacketsRetransmitted > 0 || u.RoutesRecomputed > 0 {
		// Rendered only when fault injection was active, so fault-free
		// output stays byte-identical to earlier versions and the section
		// is grep-able in campaign logs.
		faults = fmt.Sprintf(", faults: %d trunk failures, %d retransmits (%.2fms backoff), %d reroutes",
			u.TrunksFailed, u.PacketsRetransmitted, float64(u.RetryBackoffNs)/1e6, u.RoutesRecomputed)
	}
	return fmt.Sprintf(
		"%d runs, %.2fM events fired + %.2fM cut-through (%.1f%% saved, %.1f%% pooled, %.1f%% fast-path), %.2fM fast resumes, %d clamps%s, %.2fM events/s/run, %.1fx real time",
		u.Runs, float64(u.EventsFired)/1e6, float64(u.EventsElided)/1e6, elidedPct, pooledPct, fastPct,
		float64(u.ProcFastResumes)/1e6,
		u.LedgerClamps, faults,
		u.EventsPerSecond()/1e6, u.RealTimeFactor())
}

// simUsage holds this package's handles into the process-wide telemetry
// registry.  The registry series are the accumulator — the "Simulator:" line
// and the /metrics endpoint render the same counters.  Handles are resolved
// once at init so the per-run fold is a sequence of atomic adds.
// Measurement runs execute concurrently (experiments fan out over a worker
// pool); counter adds are wait-free so no extra locking is needed.
var simUsage = struct {
	runs            *telemetry.Counter
	eventsScheduled *telemetry.Counter
	eventsFired     *telemetry.Counter
	eventsCancelled *telemetry.Counter
	poolReuses      *telemetry.Counter
	fastPathEvents  *telemetry.Counter
	eventsElided    *telemetry.Counter
	procFastResumes *telemetry.Counter
	ledgerClamps    *telemetry.Counter
	trunksFailed    *telemetry.Counter
	retransmits     *telemetry.Counter
	reroutes        *telemetry.Counter
	retryBackoffNS  *telemetry.Counter
	virtualNS       *telemetry.Counter
	wallNS          *telemetry.Counter
}{
	runs:            telemetry.Default().Counter("swprobe_sim_runs_total", "Measurement simulation runs recorded"),
	eventsScheduled: telemetry.Default().Counter("swprobe_kernel_events_scheduled_total", "Kernel events scheduled across all runs"),
	eventsFired:     telemetry.Default().Counter("swprobe_kernel_events_fired_total", "Kernel events fired across all runs"),
	eventsCancelled: telemetry.Default().Counter("swprobe_kernel_events_cancelled_total", "Kernel events cancelled before firing"),
	poolReuses:      telemetry.Default().Counter("swprobe_kernel_pool_reuses_total", "Kernel event allocations served from the pool"),
	fastPathEvents:  telemetry.Default().Counter("swprobe_kernel_fastpath_events_total", "Kernel events scheduled on the same-instant fast path"),
	eventsElided:    telemetry.Default().Counter("swprobe_kernel_events_elided_total", "Heap events elided by the cut-through deferred lane"),
	procFastResumes: telemetry.Default().Counter("swprobe_kernel_proc_fast_resumes_total", "Rank waits resolved without posting a resume event"),
	ledgerClamps:    telemetry.Default().Counter("swprobe_net_ledger_clamps_total", "Credit releases clamped to keep port ledgers sorted"),
	trunksFailed:    telemetry.Default().Counter("swprobe_fault_trunks_failed_total", "Trunk failures applied by fault plans"),
	retransmits:     telemetry.Default().Counter("swprobe_fault_retransmits_total", "Packets lost to down trunks and re-injected"),
	reroutes:        telemetry.Default().Counter("swprobe_fault_reroutes_total", "Failover route recomputations"),
	retryBackoffNS:  telemetry.Default().Counter("swprobe_fault_retry_backoff_ns_total", "Summed retransmit backoff (virtual nanoseconds)"),
	virtualNS:       telemetry.Default().Counter("swprobe_sim_virtual_ns_total", "Virtual nanoseconds simulated across all runs"),
	wallNS:          telemetry.Default().Counter("swprobe_sim_wall_ns_total", "Wall-clock nanoseconds spent simulating (summed per run)"),
}

// recordRun folds one finished kernel's counters into the accumulator, plus
// the run's network-layer execution telemetry when a network is attached.
func recordRun(k *sim.Kernel, net *netsim.Network, wall time.Duration) {
	st := k.Stats()
	simUsage.runs.Add(1)
	simUsage.eventsScheduled.Add(int64(st.EventsScheduled))
	simUsage.eventsFired.Add(int64(st.EventsFired))
	simUsage.eventsElided.Add(int64(st.EventsElided))
	simUsage.eventsCancelled.Add(int64(st.EventsCancelled))
	simUsage.poolReuses.Add(int64(st.PoolReuses))
	simUsage.fastPathEvents.Add(int64(st.FastPathEvents))
	simUsage.procFastResumes.Add(int64(st.ProcFastResumes))
	if net != nil {
		ns := net.Stats()
		simUsage.ledgerClamps.Add(ns.LedgerClamps)
		simUsage.trunksFailed.Add(ns.TrunksFailed)
		simUsage.retransmits.Add(ns.PacketsRetransmitted)
		simUsage.reroutes.Add(ns.RoutesRecomputed)
		simUsage.retryBackoffNS.Add(ns.RetryBackoffNs)
	}
	simUsage.virtualNS.Add(int64(k.Now()))
	simUsage.wallNS.Add(wall.Nanoseconds())
}

// RecordSimRun folds a finished kernel's activity counters — and, when a
// network is attached, its execution and fault telemetry — into the
// process-wide accumulator.  It is the exported entry point for campaigns
// that drive netsim directly (the fault-injection probes in
// internal/experiments) rather than through this package's measurement
// runners, so their runs still show up in the CLI's Simulator line.
func RecordSimRun(k *sim.Kernel, net *netsim.Network, wall time.Duration) {
	recordRun(k, net, wall)
}

// SimUsageSnapshot returns the accumulated kernel activity of all measurement
// runs so far, read back from the telemetry registry (the same series
// /metrics exposes — the CLI summary and a scrape can never disagree).
func SimUsageSnapshot() SimUsage {
	return SimUsage{
		Runs:            simUsage.runs.Value(),
		EventsScheduled: simUsage.eventsScheduled.Value(),
		EventsFired:     simUsage.eventsFired.Value(),
		EventsCancelled: simUsage.eventsCancelled.Value(),
		PoolReuses:      simUsage.poolReuses.Value(),
		FastPathEvents:  simUsage.fastPathEvents.Value(),
		EventsElided:    simUsage.eventsElided.Value(),
		ProcFastResumes: simUsage.procFastResumes.Value(),
		LedgerClamps:    simUsage.ledgerClamps.Value(),

		TrunksFailed:         simUsage.trunksFailed.Value(),
		PacketsRetransmitted: simUsage.retransmits.Value(),
		RoutesRecomputed:     simUsage.reroutes.Value(),
		RetryBackoffNs:       simUsage.retryBackoffNS.Value(),

		VirtualNS: simUsage.virtualNS.Value(),
		WallNS:    simUsage.wallNS.Value(),
	}
}

// ResetSimUsage clears the accumulator (used by tests and by CLI runs that
// want per-campaign numbers).  Counters are rewound rather than detached so
// the registry handles stay valid; callers never reset concurrently with
// recording runs.
func ResetSimUsage() {
	for _, c := range []*telemetry.Counter{
		simUsage.runs, simUsage.eventsScheduled, simUsage.eventsFired,
		simUsage.eventsCancelled, simUsage.poolReuses, simUsage.fastPathEvents,
		simUsage.eventsElided, simUsage.procFastResumes,
		simUsage.ledgerClamps, simUsage.trunksFailed, simUsage.retransmits,
		simUsage.reroutes, simUsage.retryBackoffNS, simUsage.virtualNS,
		simUsage.wallNS,
	} {
		c.Add(-c.Value())
	}
}

// runWindow drives one measurement kernel to the end of its window, shuts it
// down and records its activity counters along with the machine network's
// execution telemetry.
func runWindow(k *sim.Kernel, net *netsim.Network, window sim.Duration) {
	start := time.Now()
	k.RunUntil(sim.Time(window))
	k.Shutdown()
	recordRun(k, net, time.Since(start))
}
