// Package core implements the paper's active-measurement methodology: it
// co-schedules the ImpactB probe, the CompressionB injector and application
// workloads on a simulated single-switch machine and extracts the
// measurements every model in the paper is built from:
//
//   - impact signatures — the distribution of probe-packet latencies observed
//     while a software component runs, summarized as mean, standard
//     deviation, histogram and (via the M/G/1 inversion) switch-queue
//     utilization;
//   - compression profiles — how an application's iteration time degrades as
//     CompressionB removes increasing fractions of switch capability;
//   - co-run measurements — the ground-truth slowdown of two applications
//     sharing the switch, used to validate the predictors.
//
// Every measurement runs on a fresh simulation kernel with a seed derived
// from the experiment options and a run label, so results are deterministic
// and runs can execute in parallel.
package core

import (
	"fmt"
	"hash/fnv"

	"github.com/hpcperf/switchprobe/internal/cluster"
	"github.com/hpcperf/switchprobe/internal/inject"
	"github.com/hpcperf/switchprobe/internal/mpisim"
	"github.com/hpcperf/switchprobe/internal/probe"
	"github.com/hpcperf/switchprobe/internal/queuing"
	"github.com/hpcperf/switchprobe/internal/sim"
	"github.com/hpcperf/switchprobe/internal/stats"
	"github.com/hpcperf/switchprobe/internal/workload"
)

// Options collects everything a measurement run needs.
type Options struct {
	// Seed is the base seed; every run derives its own stream from it.
	Seed int64
	// Machine is the simulated machine configuration.
	Machine cluster.Config
	// MPI is the message-passing runtime configuration.
	MPI mpisim.Config
	// Probe is the ImpactB configuration.
	Probe probe.Config
	// Placement selects how application nodes are picked across the
	// topology's leaf switches (pack, spread or random; empty means pack,
	// the paper's single-switch mapping).  The probe and the injector always
	// span every node regardless, so the methodology stays topology-agnostic.
	Placement cluster.PlacementPolicy
	// Scale is the application problem scale.
	Scale workload.Scale
	// Window is the virtual-time measurement window of each run.
	Window sim.Duration
	// WarmupIterations is how many leading application iterations are
	// excluded from timing.
	WarmupIterations int
	// MinIterations is the minimum number of timed iterations required for a
	// valid runtime measurement.
	MinIterations int
	// MinProbeSamples is the minimum number of probe samples required for a
	// valid signature.
	MinProbeSamples int
	// Histogram binning (microseconds) used for impact signatures, matching
	// the range of the paper's Fig. 3.
	HistLoMicros float64
	HistHiMicros float64
	HistBins     int
	// PhaseWindows is the number of equal time windows the measurement
	// window is split into for phase-resolved signatures (the extension that
	// addresses the paper's constant-utilization assumption).  Values below 1
	// disable phase resolution.
	PhaseWindows int
}

// DefaultOptions returns paper-scale options: the Cab-like 18-node machine,
// full problem sizes and an 80 ms measurement window.
func DefaultOptions() Options {
	return Options{
		Seed:             1,
		Machine:          cluster.CabConfig(),
		MPI:              mpisim.DefaultConfig(),
		Probe:            probe.DefaultConfig(),
		Scale:            workload.FullScale,
		Window:           80 * sim.Millisecond,
		WarmupIterations: 1,
		MinIterations:    3,
		MinProbeSamples:  30,
		HistLoMicros:     0,
		HistHiMicros:     20,
		HistBins:         40,
		PhaseWindows:     6,
	}
}

// TestOptions returns reduced options for fast unit tests and CI: a 6-node
// machine, strongly reduced problem sizes and a short window.
func TestOptions() Options {
	o := DefaultOptions()
	o.Machine.Net.Nodes = 6
	o.Scale = workload.Reduced(0.08)
	o.Window = 25 * sim.Millisecond
	o.Probe.Pause = 100 * sim.Microsecond
	o.MinProbeSamples = 20
	return o
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if err := o.Machine.Validate(); err != nil {
		return err
	}
	return o.validateRest()
}

// validateRest checks the non-machine options.  newMachine uses it directly
// and leaves machine validation to cluster/netsim construction, so each
// measurement run builds the O(nodes²) topology route table exactly once.
func (o Options) validateRest() error {
	if err := o.MPI.Validate(); err != nil {
		return err
	}
	if err := o.Probe.Validate(); err != nil {
		return err
	}
	if o.Window <= 0 {
		return fmt.Errorf("core: non-positive measurement window %v", o.Window)
	}
	if o.WarmupIterations < 0 {
		return fmt.Errorf("core: negative warmup iterations %d", o.WarmupIterations)
	}
	if o.MinIterations < 1 {
		return fmt.Errorf("core: minimum iterations must be at least 1, have %d", o.MinIterations)
	}
	if o.MinProbeSamples < 2 {
		return fmt.Errorf("core: minimum probe samples must be at least 2, have %d", o.MinProbeSamples)
	}
	if o.HistBins <= 0 || o.HistHiMicros <= o.HistLoMicros {
		return fmt.Errorf("core: invalid histogram binning [%v, %v) x %d", o.HistLoMicros, o.HistHiMicros, o.HistBins)
	}
	if o.PhaseWindows < 0 {
		return fmt.Errorf("core: negative phase window count %d", o.PhaseWindows)
	}
	if _, err := cluster.ParsePlacement(string(o.Placement)); err != nil {
		return err
	}
	return nil
}

// WithSeed returns a copy of the options with a different base seed.
func (o Options) WithSeed(seed int64) Options {
	o.Seed = seed
	return o
}

// runSeed derives a per-run seed from the base seed and a run label.
func (o Options) runSeed(label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", o.Seed, label)
	return int64(h.Sum64())
}

// newMachine builds a fresh kernel and machine for one measurement run.
func (o Options) newMachine(label string) (*sim.Kernel, *cluster.Machine, error) {
	if err := o.validateRest(); err != nil {
		return nil, nil, err
	}
	k := sim.NewKernel(o.runSeed(label))
	m, err := cluster.New(k, o.Machine)
	if err != nil {
		return nil, nil, err
	}
	return k, m, nil
}

// Signature is what ImpactB observes while a software component runs: the
// paper's per-component description of switch usage.
type Signature struct {
	// Component is the measured component's name ("idle", an application
	// name, or a CompressionB configuration label).
	Component string
	// Samples are the probe one-way latencies in seconds.
	Samples []float64
	// Mean and StdDev summarize the samples (seconds).
	Mean   float64
	StdDev float64
	// Hist is the latency histogram in microseconds (the paper's Fig. 3
	// representation).
	Hist *stats.Histogram
	// UtilizationPct is the switch-queue utilization inferred by the M/G/1
	// model (0 when no calibration was available).
	UtilizationPct float64
	// Phases are time-resolved utilization measurements over equal
	// sub-windows of the measurement window.  They capture applications whose
	// network usage varies over time (e.g. AMG's dense phases), which the
	// constant-utilization queue model cannot represent.  Empty when phase
	// resolution is disabled or no calibration was available.
	Phases []PhaseUtilization
}

// PhaseUtilization is the switch usage observed during one sub-window of a
// component's measurement.
type PhaseUtilization struct {
	// Start and End delimit the sub-window in virtual time.
	Start, End sim.Time
	// Samples is the number of probe samples that fell into the window.
	Samples int
	// MeanLatency is the mean probe latency (seconds) within the window.
	MeanLatency float64
	// UtilizationPct is the M/G/1 utilization inferred from MeanLatency.
	UtilizationPct float64
}

// MeanStdInterval returns the [µ−σ, µ+σ] interval used by the
// AverageStDevLT model.
func (s Signature) MeanStdInterval() stats.Interval {
	return stats.MeanStdInterval(s.Mean, s.StdDev)
}

// Calibration holds the idle-switch measurements every queue-model
// computation needs.
type Calibration struct {
	// Service is the switch's M/G/1 service model (µ, Var(S)).
	Service queuing.ServiceModel
	// Idle is the probe signature of the idle switch.
	Idle Signature
}

// Runtime is an application's measured iteration rate.
type Runtime struct {
	// App is the application name.
	App string
	// Iterations is the number of timed iterations.
	Iterations int
	// TimePerIteration is the mean time per iteration.
	TimePerIteration sim.Duration
}

// DegradationPercent returns the percentage slowdown of observed relative to
// baseline: (T_obs - T_base) / T_base * 100, the paper's degradation metric.
func DegradationPercent(baseline, observed Runtime) float64 {
	if baseline.TimePerIteration <= 0 {
		return 0
	}
	return (float64(observed.TimePerIteration) - float64(baseline.TimePerIteration)) /
		float64(baseline.TimePerIteration) * 100
}

// ProfilePoint is one compression measurement of an application: the injector
// configuration, the switch utilization it causes, its impact signature and
// the application slowdown it inflicts.
type ProfilePoint struct {
	Injector       inject.Config
	UtilizationPct float64
	ImpactMean     float64
	ImpactStd      float64
	ImpactHist     *stats.Histogram
	DegradationPct float64
}

// Profile is an application's compression profile: its baseline iteration
// rate plus one point per injector configuration.  It realizes the mapping
// p_A(utilization) → degradation of the paper's Section V-B.
type Profile struct {
	App      string
	Baseline Runtime
	Points   []ProfilePoint
}

// DegradationAt interpolates the profile's utilization→degradation mapping at
// the given switch utilization percentage.
func (p Profile) DegradationAt(utilizationPct float64) (float64, error) {
	if len(p.Points) == 0 {
		return 0, fmt.Errorf("core: profile for %s has no points", p.App)
	}
	xs := make([]float64, len(p.Points))
	ys := make([]float64, len(p.Points))
	for i, pt := range p.Points {
		xs[i] = pt.UtilizationPct
		ys[i] = pt.DegradationPct
	}
	ip, err := stats.NewInterpolator(xs, ys)
	if err != nil {
		return 0, err
	}
	return ip.Eval(utilizationPct), nil
}

// --- measurement runs -------------------------------------------------------

// signatureFrom converts a probe collector into a Signature.
func (o Options) signatureFrom(component string, c *probe.Collector, cal *Calibration) (Signature, error) {
	if c.Count() < o.MinProbeSamples {
		return Signature{}, fmt.Errorf("core: only %d probe samples for %q (need %d); increase the window",
			c.Count(), component, o.MinProbeSamples)
	}
	summary := c.Summary()
	hist, err := c.Histogram(o.HistLoMicros, o.HistHiMicros, o.HistBins)
	if err != nil {
		return Signature{}, err
	}
	sig := Signature{
		Component: component,
		Samples:   c.Latencies(),
		Mean:      summary.Mean,
		StdDev:    summary.StdDev,
		Hist:      hist,
	}
	if cal != nil {
		util, err := queuing.UtilizationPercent(cal.Service, summary.Mean)
		if err != nil {
			return Signature{}, err
		}
		sig.UtilizationPct = util
		phases, err := o.phaseUtilizations(c, *cal)
		if err != nil {
			return Signature{}, err
		}
		sig.Phases = phases
	}
	return sig, nil
}

// phaseUtilizations splits the measurement window into PhaseWindows equal
// sub-windows and infers the switch utilization within each one from the
// probe samples that fall into it.  Windows without samples are skipped.
func (o Options) phaseUtilizations(c *probe.Collector, cal Calibration) ([]PhaseUtilization, error) {
	if o.PhaseWindows < 1 {
		return nil, nil
	}
	times := c.Times()
	lats := c.Latencies()
	width := sim.Duration(int64(o.Window) / int64(o.PhaseWindows))
	if width <= 0 {
		return nil, nil
	}
	type acc struct {
		sum float64
		n   int
	}
	accs := make([]acc, o.PhaseWindows)
	for i, at := range times {
		w := int(int64(at) / int64(width))
		if w < 0 {
			w = 0
		}
		if w >= o.PhaseWindows {
			w = o.PhaseWindows - 1
		}
		accs[w].sum += lats[i]
		accs[w].n++
	}
	var out []PhaseUtilization
	for w, a := range accs {
		if a.n == 0 {
			continue
		}
		mean := a.sum / float64(a.n)
		util, err := queuing.UtilizationPercent(cal.Service, mean)
		if err != nil {
			return nil, err
		}
		out = append(out, PhaseUtilization{
			Start:          sim.Time(int64(width) * int64(w)),
			End:            sim.Time(int64(width) * int64(w+1)),
			Samples:        a.n,
			MeanLatency:    mean,
			UtilizationPct: util,
		})
	}
	return out, nil
}

// Calibrate measures the idle switch with ImpactB alone and derives the
// M/G/1 service model (µ from the mean idle latency, Var(S) from its
// variance), mirroring the paper's idle-switch calibration.
func Calibrate(o Options) (Calibration, error) {
	art, err := ExecuteSpec(CalibrateSpec(o), nil)
	if err != nil {
		return Calibration{}, err
	}
	return *art.Calibration, nil
}

// runCalibrate is the live calibration run behind RunCalibrate specs.
func runCalibrate(o Options) (Calibration, error) {
	k, m, err := o.newMachine("calibrate")
	if err != nil {
		return Calibration{}, err
	}
	pr, err := probe.Launch(m, o.MPI, o.Probe)
	if err != nil {
		return Calibration{}, err
	}
	runWindow(k, m.Network(), o.Window)
	svc, err := queuing.CalibrateFromIdle(pr.Collector().Latencies())
	if err != nil {
		return Calibration{}, err
	}
	cal := Calibration{Service: svc}
	idle, err := o.signatureFrom("idle", pr.Collector(), &cal)
	if err != nil {
		return Calibration{}, err
	}
	cal.Idle = idle
	return cal, nil
}

// Slot restricts an application to part of the machine for placed co-run
// experiments: the machine's node order under the options' placement policy
// is split in half, with SlotA taking the first half and SlotB the second.
// On a two-leaf fat-tree, pack puts the two slots on different leaves while
// spread gives both slots a footprint on both leaves.
type Slot int

const (
	// SlotAll is the whole machine (the paper's setting).
	SlotAll Slot = iota
	// SlotA is the first half of the placement-policy node order.
	SlotA
	// SlotB is the second half of the placement-policy node order.
	SlotB
)

// String names the slot for run-seed labels.
func (s Slot) String() string {
	switch s {
	case SlotA:
		return "halfA"
	case SlotB:
		return "halfB"
	default:
		return "all"
	}
}

// slotNodes resolves the node list a slot may use (nil for SlotAll).  Under
// the pack policy the split lands on the leaf boundary nearest the middle,
// so the two slots occupy disjoint leaf sets whenever the topology allows it
// — the property the cross-switch campaign's "same-leaf" cases rely on —
// even when half the nodes is not a whole number of leaves.
func slotNodes(m *cluster.Machine, policy cluster.PlacementPolicy, slot Slot) ([]int, error) {
	if slot == SlotAll {
		return nil, nil
	}
	order, err := m.NodeOrder(policy)
	if err != nil {
		return nil, err
	}
	split := len(order) / 2
	if split < 1 {
		return nil, fmt.Errorf("core: machine too small to split into co-run slots (%d nodes)", len(order))
	}
	if p, _ := cluster.ParsePlacement(string(policy)); p == cluster.PlacePack {
		best := -1
		for i := 1; i < len(order); i++ {
			if m.LeafOf(order[i]) == m.LeafOf(order[i-1]) {
				continue
			}
			if best < 0 || abs(i-len(order)/2) < abs(best-len(order)/2) {
				best = i
			}
		}
		if best > 0 {
			split = best
		}
	}
	if slot == SlotA {
		return order[:split], nil
	}
	return order[split:], nil
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// slotLabel derives the run-seed label of a slotted measurement.  SlotAll
// keeps the historical label so default-topology results are reproducible
// across versions.
func (o Options) slotLabel(prefix string, slot Slot, rest string) string {
	if slot == SlotAll {
		return prefix + "/" + rest
	}
	policy, _ := cluster.ParsePlacement(string(o.Placement))
	return fmt.Sprintf("%s@%s+%s/%s", prefix, slot, policy, rest)
}

// appRun is a launched, continuously-looping application instance.
type appRun struct {
	app      workload.App
	class    string
	job      *cluster.Job
	world    *mpisim.World
	iterEnds []sim.Time
}

// launchAppLoop allocates the application's cores (under the options'
// placement policy, restricted to the slot's nodes) and starts every rank in
// an endless iteration loop; rank 0 records the completion time of each
// iteration.
func launchAppLoop(m *cluster.Machine, o Options, app workload.App, class string, slot Slot) (*appRun, error) {
	nodes, err := slotNodes(m, o.Placement, slot)
	if err != nil {
		return nil, err
	}
	var job *cluster.Job
	if nodes == nil {
		rps, useNodes := app.Placement(m.Config().Nodes())
		job, err = m.AllocatePlaced(class, rps, useNodes, o.Placement)
	} else {
		rps, useNodes := app.Placement(len(nodes))
		job, err = m.AllocateOnNodes(class, rps, nodes[:useNodes])
	}
	if err != nil {
		return nil, fmt.Errorf("core: allocating cores for %s: %w", class, err)
	}
	world, err := mpisim.NewWorld(m, job, o.MPI)
	if err != nil {
		m.Release(job)
		return nil, err
	}
	ar := &appRun{app: app, class: class, job: job, world: world}
	world.LaunchProgram(func(r *mpisim.Rank, _ mpisim.Cont) {
		// An endless iteration loop: it never invokes the done continuation
		// (the measurement window ends it via Kernel.Shutdown).
		loop := app.Rank(r)
		iter := 0
		var after mpisim.Cont
		after = func() {
			if r.Rank() == 0 {
				ar.iterEnds = append(ar.iterEnds, r.Now())
			}
			iter++
			loop(iter, after)
		}
		loop(iter, after)
	})
	return ar, nil
}

// runtime converts the recorded iteration end times into a Runtime.
func (ar *appRun) runtime(o Options) (Runtime, error) {
	warm := o.WarmupIterations
	timed := len(ar.iterEnds) - 1 - warm
	if timed < o.MinIterations {
		return Runtime{}, fmt.Errorf(
			"core: %s completed only %d iterations (need %d timed after %d warmup); increase the window",
			ar.app.Name(), len(ar.iterEnds), o.MinIterations, warm)
	}
	span := ar.iterEnds[len(ar.iterEnds)-1].Sub(ar.iterEnds[warm])
	return Runtime{
		App:              ar.app.Name(),
		Iterations:       timed,
		TimePerIteration: span / sim.Duration(timed),
	}, nil
}

// MeasureAppImpact runs ImpactB while the application runs and returns the
// application's impact signature (the paper's Fig. 3 measurement).
func MeasureAppImpact(o Options, cal Calibration, app workload.App) (Signature, error) {
	return MeasureAppImpactSlot(o, cal, app, SlotAll)
}

// MeasureAppImpactSlot is MeasureAppImpact with the application restricted
// to one half of the machine (the probe still spans every node).
func MeasureAppImpactSlot(o Options, cal Calibration, app workload.App, slot Slot) (Signature, error) {
	art, err := ExecuteSpec(AppImpactSpec(o, app, slot), &cal)
	if err != nil {
		return Signature{}, err
	}
	return *art.Signature, nil
}

// runAppImpact is the live measurement run behind RunAppImpact specs.
func runAppImpact(o Options, cal Calibration, app workload.App, slot Slot) (Signature, error) {
	k, m, err := o.newMachine(o.slotLabel("impact", slot, app.Name()))
	if err != nil {
		return Signature{}, err
	}
	pr, err := probe.Launch(m, o.MPI, o.Probe)
	if err != nil {
		return Signature{}, err
	}
	if _, err := launchAppLoop(m, o, app, app.Name(), slot); err != nil {
		return Signature{}, err
	}
	runWindow(k, m.Network(), o.Window)
	return o.signatureFrom(app.Name(), pr.Collector(), &cal)
}

// MeasureInjectorImpact runs ImpactB while a CompressionB configuration runs
// and returns the configuration's impact signature (the measurement behind
// the paper's Fig. 6).
func MeasureInjectorImpact(o Options, cal Calibration, cfg inject.Config) (Signature, error) {
	art, err := ExecuteSpec(InjectorImpactSpec(o, cfg), &cal)
	if err != nil {
		return Signature{}, err
	}
	return *art.Signature, nil
}

// runInjectorImpact is the live measurement run behind RunInjectorImpact
// specs.
func runInjectorImpact(o Options, cal Calibration, cfg inject.Config) (Signature, error) {
	k, m, err := o.newMachine("impact/" + cfg.Label())
	if err != nil {
		return Signature{}, err
	}
	pr, err := probe.Launch(m, o.MPI, o.Probe)
	if err != nil {
		return Signature{}, err
	}
	if _, err := inject.Launch(m, o.MPI, cfg); err != nil {
		return Signature{}, err
	}
	runWindow(k, m.Network(), o.Window)
	return o.signatureFrom(cfg.Label(), pr.Collector(), &cal)
}

// MeasureAppBaseline measures an application's iteration rate with the switch
// to itself.
func MeasureAppBaseline(o Options, app workload.App) (Runtime, error) {
	return MeasureAppBaselineSlot(o, app, SlotAll)
}

// MeasureAppBaselineSlot is MeasureAppBaseline with the application
// restricted to one half of the machine, the baseline every placed co-run
// measurement is judged against.
func MeasureAppBaselineSlot(o Options, app workload.App, slot Slot) (Runtime, error) {
	art, err := ExecuteSpec(BaselineSpec(o, app, slot), nil)
	if err != nil {
		return Runtime{}, err
	}
	return *art.Runtime, nil
}

// runBaseline is the live measurement run behind RunBaseline specs.
func runBaseline(o Options, app workload.App, slot Slot) (Runtime, error) {
	k, m, err := o.newMachine(o.slotLabel("baseline", slot, app.Name()))
	if err != nil {
		return Runtime{}, err
	}
	ar, err := launchAppLoop(m, o, app, app.Name(), slot)
	if err != nil {
		return Runtime{}, err
	}
	runWindow(k, m.Network(), o.Window)
	return ar.runtime(o)
}

// MeasureAppUnderInjector measures an application's iteration rate while a
// CompressionB configuration removes part of the switch capability (the
// paper's compression experiment, Fig. 7).
func MeasureAppUnderInjector(o Options, app workload.App, cfg inject.Config) (Runtime, error) {
	return MeasureAppUnderInjectorSlot(o, app, cfg, SlotAll)
}

// MeasureAppUnderInjectorSlot is MeasureAppUnderInjector with the
// application restricted to one half of the machine (the injector still
// spans every node, removing capability fabric-wide).
func MeasureAppUnderInjectorSlot(o Options, app workload.App, cfg inject.Config, slot Slot) (Runtime, error) {
	art, err := ExecuteSpec(CompressSpec(o, app, cfg, slot), nil)
	if err != nil {
		return Runtime{}, err
	}
	return *art.Runtime, nil
}

// runCompress is the live measurement run behind RunCompress specs.
func runCompress(o Options, app workload.App, cfg inject.Config, slot Slot) (Runtime, error) {
	k, m, err := o.newMachine(o.slotLabel("compress", slot, app.Name()+"/"+cfg.Label()))
	if err != nil {
		return Runtime{}, err
	}
	if _, err := inject.Launch(m, o.MPI, cfg); err != nil {
		return Runtime{}, err
	}
	ar, err := launchAppLoop(m, o, app, app.Name(), slot)
	if err != nil {
		return Runtime{}, err
	}
	runWindow(k, m.Network(), o.Window)
	return ar.runtime(o)
}

// MeasureAppPair measures the iteration rates of two applications sharing the
// switch (the ground truth of the paper's Table I).  Both run in continuous
// loops for the whole window.
func MeasureAppPair(o Options, appA, appB workload.App) (Runtime, Runtime, error) {
	return executePair(PairSpec(o, appA, appB, false))
}

// MeasureAppPairPlaced measures a co-run with each application restricted to
// one half of the machine's placement-policy node order: appA in SlotA, appB
// in SlotB.  On a multi-leaf topology this is the cross-switch ground truth —
// pack keeps the two jobs on disjoint leaves, spread interleaves both across
// every leaf so they contend on the spine trunks.
func MeasureAppPairPlaced(o Options, appA, appB workload.App) (Runtime, Runtime, error) {
	return executePair(PairSpec(o, appA, appB, true))
}

// executePair unpacks a pair spec's two runtimes.
func executePair(spec RunSpec) (Runtime, Runtime, error) {
	art, err := ExecuteSpec(spec, nil)
	if err != nil {
		return Runtime{}, Runtime{}, err
	}
	return *art.Runtime, *art.RuntimeB, nil
}

// runPair is the live measurement run behind unplaced RunPair specs.
func runPair(o Options, appA, appB workload.App) (Runtime, Runtime, error) {
	return measureAppPair(o, "pair/"+appA.Name()+"+"+appB.Name(), appA, appB, SlotAll, SlotAll)
}

// runPairPlaced is the live measurement run behind placed RunPair specs.
func runPairPlaced(o Options, appA, appB workload.App) (Runtime, Runtime, error) {
	policy, _ := cluster.ParsePlacement(string(o.Placement))
	label := fmt.Sprintf("pairx/%s/%s+%s", policy, appA.Name(), appB.Name())
	return measureAppPair(o, label, appA, appB, SlotA, SlotB)
}

func measureAppPair(o Options, label string, appA, appB workload.App, slotA, slotB Slot) (Runtime, Runtime, error) {
	k, m, err := o.newMachine(label)
	if err != nil {
		return Runtime{}, Runtime{}, err
	}
	classA, classB := appA.Name(), appB.Name()
	if classA == classB {
		classB = classB + "#2"
	}
	runA, err := launchAppLoop(m, o, appA, classA, slotA)
	if err != nil {
		return Runtime{}, Runtime{}, err
	}
	runB, err := launchAppLoop(m, o, appB, classB, slotB)
	if err != nil {
		return Runtime{}, Runtime{}, err
	}
	runWindow(k, m.Network(), o.Window)
	ra, err := runA.runtime(o)
	if err != nil {
		return Runtime{}, Runtime{}, err
	}
	rb, err := runB.runtime(o)
	if err != nil {
		return Runtime{}, Runtime{}, err
	}
	return ra, rb, nil
}

// BuildProfile measures an application's compression profile over the given
// injector configurations.  Injector signatures (for utilization and the
// look-up-table keys) are measured once per configuration; pass them in via
// injSignatures when already available (keyed by Config.Label()), otherwise
// they are measured here.
func BuildProfile(o Options, cal Calibration, app workload.App, grid []inject.Config,
	injSignatures map[string]Signature) (Profile, error) {
	return BuildProfileSlot(o, cal, app, grid, injSignatures, SlotAll)
}

// BuildProfileSlot is BuildProfile with the application restricted to one
// half of the machine; injector signatures are slot-independent (the
// injector spans every node) and can be shared across slots and placements.
func BuildProfileSlot(o Options, cal Calibration, app workload.App, grid []inject.Config,
	injSignatures map[string]Signature, slot Slot) (Profile, error) {
	return AssembleProfile(func(spec RunSpec) (Artifact, error) {
		if spec.Kind == RunInjectorImpact {
			if sig, ok := injSignatures[spec.Injector.Label()]; ok {
				return Artifact{Signature: &sig}, nil
			}
			return ExecuteSpec(spec, &cal)
		}
		return ExecuteSpec(spec, nil)
	}, o, app, grid, slot)
}

// AssembleProfile builds an application's compression profile by requesting
// every needed run — the slot baseline, each grid configuration's injector
// signature and the application's compressed runtime — through the given
// executor.  It is the single assembly implementation shared by the direct
// (live) path above and the engine's cached path.
func AssembleProfile(run func(RunSpec) (Artifact, error), o Options, app workload.App,
	grid []inject.Config, slot Slot) (Profile, error) {
	art, err := run(BaselineSpec(o, app, slot))
	if err != nil {
		return Profile{}, err
	}
	baseline := *art.Runtime
	prof := Profile{App: app.Name(), Baseline: baseline}
	for _, cfg := range grid {
		sart, err := run(InjectorImpactSpec(o, cfg))
		if err != nil {
			return Profile{}, err
		}
		sig := *sart.Signature
		rart, err := run(CompressSpec(o, app, cfg, slot))
		if err != nil {
			return Profile{}, err
		}
		prof.Points = append(prof.Points, ProfilePoint{
			Injector:       cfg,
			UtilizationPct: sig.UtilizationPct,
			ImpactMean:     sig.Mean,
			ImpactStd:      sig.StdDev,
			ImpactHist:     sig.Hist,
			DegradationPct: DegradationPercent(baseline, *rart.Runtime),
		})
	}
	return prof, nil
}
