package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/hpcperf/switchprobe/internal/engine"
	"github.com/hpcperf/switchprobe/internal/inject"
	"github.com/hpcperf/switchprobe/internal/model"
	"github.com/hpcperf/switchprobe/internal/netsim"
	"github.com/hpcperf/switchprobe/internal/sched"
	"github.com/hpcperf/switchprobe/internal/sim"
	"github.com/hpcperf/switchprobe/internal/stats"
	"github.com/hpcperf/switchprobe/internal/telemetry"
	"github.com/hpcperf/switchprobe/internal/workload"
)

// The sched campaign closes the paper's loop: it streams a deterministic job
// arrival process through the contention-aware scheduler simulator
// (internal/sched) on a set of fabric scenarios — the paper's single switch
// plus fat-trees at increasing oversubscription — and compares every
// placement policy, including the predictor-in-the-loop PredictorGuided, on
// makespan and job stretch.  Every coefficient the simulator consumes (solo
// baselines, placed co-run slowdowns, signatures, predictor profiles) is an
// engine-cached RunSpec, so a warm campaign executes zero simulations.

// SchedSpec parameterizes the scheduler campaign.  The zero value selects
// campaign defaults for every field.
type SchedSpec struct {
	// Jobs is the length of each arrival stream (0 = 16).
	Jobs int
	// Streams is the number of independent arrival streams (seeded Seed,
	// Seed+1, ...) each policy schedules; metrics pool the streams' jobs
	// so single-stream luck does not decide policy rankings (0 = 3).
	Streams int
	// Seed drives the arrival stream and the random policy (0 = the suite's
	// base seed).
	Seed int64
	// Policies are the policy names to compare (empty = all).
	Policies []string
	// Apps is the workload mix jobs are drawn from (empty = FFTW, MCB,
	// VPFFT, Lulesh — two network-hungry transposes and two compute-heavy
	// codes, so pairing choices matter).
	Apps []string
	// MeanInterarrivalMs fixes the mean arrival gap in virtual milliseconds;
	// 0 derives it from the measured solo durations so the offered load is
	// Load times the cluster's slot capacity.
	MeanInterarrivalMs float64
	// Load is the offered-load multiple used when MeanInterarrivalMs is 0
	// (0 = 1.0: enough pressure that co-location is regularly forced while
	// keeping placement freedom — at much higher loads every slot is
	// contended and all policies degenerate to the single feasible choice).
	Load float64
	// NodesPerSlot is the node count of one job slot (0 = nodes/6, so every
	// scenario offers six slots regardless of topology).
	NodesPerSlot int
	// MinIterations and MaxIterations bound each job's service demand
	// (0 = 40..80 solo iterations).
	MinIterations, MaxIterations int
	// TwoSlotFraction is the probability of a double-width job.  Zero keeps
	// the default of 0.2; set any negative value for a single-width stream.
	TwoSlotFraction float64
	// Predictor names the model the PredictorGuided policy scores with
	// ("" = Queue, the paper's best model).
	Predictor string
	// Scenarios overrides the fabric set (nil = star + fat-tree at 1:1 and
	// ~2:1 oversubscription).
	Scenarios []SchedScenario
}

// SchedScenario is one fabric the campaign schedules on.
type SchedScenario struct {
	// Label names the scenario in tables ("star", "fattree-2:1", ...).
	Label string
	// Topology is the fabric (nil = the paper's single switch).
	Topology netsim.Topology
}

// DefaultSchedScenarios returns the standard fabric set for a node count:
// the paper's single switch, a non-blocking fat-tree and — whenever the
// leaves are deep enough to oversubscribe (more than one node per leaf) —
// an oversubscribed (~2:1) fat-tree over the same leaves, always last.
// Labels are unique by construction.
func DefaultSchedScenarios(nodes int) []SchedScenario {
	leaves := 3
	if nodes%3 != 0 || nodes/3 < 2 {
		leaves = 2
	}
	perLeaf := (nodes + leaves - 1) / leaves
	label := func(uplinks int) string {
		t := netsim.FatTree{Leaves: leaves, UplinksPerLeaf: uplinks}
		return fmt.Sprintf("fattree-%g:1", t.Oversubscription(nodes))
	}
	scens := []SchedScenario{
		{Label: "star", Topology: netsim.Star{}},
		{Label: label(perLeaf), Topology: netsim.FatTree{Leaves: leaves, UplinksPerLeaf: perLeaf}},
	}
	if contended := perLeaf / 2; contended >= 1 && contended < perLeaf {
		scens = append(scens, SchedScenario{
			Label:    label(contended),
			Topology: netsim.FatTree{Leaves: leaves, UplinksPerLeaf: contended},
		})
	}
	return scens
}

// withDefaults resolves every zero field against the suite configuration.
func (spec SchedSpec) withDefaults(cfg Config) SchedSpec {
	if spec.Jobs == 0 {
		spec.Jobs = 16
	}
	if spec.Seed == 0 {
		spec.Seed = cfg.Options.Seed
	}
	if len(spec.Policies) == 0 {
		spec.Policies = sched.PolicyNames()
	}
	if len(spec.Apps) == 0 {
		spec.Apps = []string{"FFTW", "MCB", "VPFFT", "Lulesh"}
	}
	if spec.Streams == 0 {
		spec.Streams = 3
	}
	if spec.Load == 0 {
		spec.Load = 1.0
	}
	if spec.NodesPerSlot == 0 {
		spec.NodesPerSlot = cfg.Options.Machine.Nodes() / 6
		if spec.NodesPerSlot < 1 {
			spec.NodesPerSlot = 1
		}
	}
	// The iteration bounds default as a pair, so setting only one of them
	// still yields a valid range.
	if spec.MinIterations == 0 && spec.MaxIterations == 0 {
		spec.MinIterations, spec.MaxIterations = 40, 80
	} else if spec.MaxIterations == 0 {
		spec.MaxIterations = 2 * spec.MinIterations
	} else if spec.MinIterations == 0 {
		spec.MinIterations = (spec.MaxIterations + 1) / 2
	}
	if spec.TwoSlotFraction == 0 {
		spec.TwoSlotFraction = 0.2
	} else if spec.TwoSlotFraction < 0 {
		spec.TwoSlotFraction = 0
	}
	if spec.Predictor == "" {
		spec.Predictor = model.Queue{}.Name()
	}
	if spec.Scenarios == nil {
		spec.Scenarios = DefaultSchedScenarios(cfg.Options.Machine.Nodes())
	}
	return spec
}

// Validate reports whether the spec's arrival process is usable once its
// defaults are resolved against cfg: Jobs must be non-negative (0 selects
// the default), the mean gap must be finite and non-negative (0 derives it
// from Load), and a stream of Jobs mean gaps must fit in sim.Time.  Sched and
// Faults run it before any scenario.
func (spec SchedSpec) Validate(cfg Config) error {
	return spec.withDefaults(cfg).validate()
}

// validate is Validate on a resolved spec.
func (spec SchedSpec) validate() error {
	if spec.Jobs < 0 {
		return fmt.Errorf("sched: job count %d is negative (0 selects the campaign default)", spec.Jobs)
	}
	gap := spec.MeanInterarrivalMs
	if math.IsNaN(gap) || math.IsInf(gap, 0) || gap < 0 {
		return fmt.Errorf("sched: mean inter-arrival %v ms is not finite and non-negative (0 derives it from the offered load)", gap)
	}
	// math.MaxInt64 rounds to 2^63 as a float64: only a span strictly below
	// it converts to a sim.Time without wrapping.
	if span := float64(spec.Jobs) * gap * float64(sim.Millisecond); !(span < math.MaxInt64) {
		return fmt.Errorf("sched: mean inter-arrival %v ms: a stream of %d jobs spans %g ms, beyond the virtual clock's %.4g ms",
			gap, spec.Jobs, span/float64(sim.Millisecond), math.MaxInt64/float64(sim.Millisecond))
	}
	return nil
}

// SchedPolicyRow is one (scenario, policy) cell of the campaign, pooled
// over the spec's arrival streams.
type SchedPolicyRow struct {
	// Scenario and Oversubscription identify the fabric.
	Scenario         string
	Oversubscription float64
	// Policy is the placement policy name.
	Policy string
	// Streams holds the full schedule of every arrival stream.
	Streams []sched.Result
	// Jobs is the total job count across streams.
	Jobs int
	// MeanStretch, P95Stretch and MeanWaitSec pool every stream's jobs.
	MeanStretch, P95Stretch float64
	MeanWaitSec             float64
	// MakespanSec and MeanUtilizationPct average across streams;
	// Colocations, Deferrals and Requeues sum.
	MakespanSec        float64
	MeanUtilizationPct float64
	Colocations        int
	Deferrals          int
	// Requeues counts jobs evicted from dead leaves across all streams
	// (always zero without a health timeline — see the faults campaign).
	Requeues int
	// OracleLookups and OracleMisses count the coefficient queries this
	// policy's runs issued and how many of them had to resolve through the
	// engine (zero on a prefetched campaign — every query is a memo hit).
	OracleLookups, OracleMisses int64
	// Cache is the engine activity attributed to this policy's runs
	// (non-zero only when the oracle memo missed).
	Cache engine.Stats
}

// aggregate pools the per-stream schedules into the row's summary metrics,
// using the same stretch conventions as the per-run sched.Result.
func (row *SchedPolicyRow) aggregate() {
	var stretches, waits []float64
	for _, r := range row.Streams {
		for _, j := range r.Jobs {
			stretches = append(stretches, j.Stretch)
			waits = append(waits, j.WaitSec)
		}
		row.Jobs += len(r.Jobs)
		row.MakespanSec += r.MakespanSec
		row.MeanUtilizationPct += r.MeanUtilizationPct
		row.Colocations += r.Colocations
		row.Deferrals += r.Deferrals
		row.Requeues += r.Requeues
	}
	if len(row.Streams) > 0 {
		row.MakespanSec /= float64(len(row.Streams))
		row.MeanUtilizationPct /= float64(len(row.Streams))
	}
	if len(stretches) == 0 {
		return
	}
	row.MeanStretch, row.P95Stretch, _ = sched.StretchStats(stretches)
	row.MeanWaitSec = stats.Mean(waits)
}

// SchedResult is the full scheduler campaign.
type SchedResult struct {
	// Spec is the fully resolved specification the campaign ran with.
	Spec SchedSpec
	// Scenarios and Policies give the row/column order.
	Scenarios []string
	Policies  []string
	// Rows holds one entry per scenario × policy, scenario-major.
	Rows []SchedPolicyRow
}

// Row returns the (scenario, policy) cell.
func (r SchedResult) Row(scenario, policy string) (SchedPolicyRow, bool) {
	for _, row := range r.Rows {
		if row.Scenario == scenario && row.Policy == policy {
			return row, true
		}
	}
	return SchedPolicyRow{}, false
}

// MeanStretch returns the (scenario, policy) mean job stretch pooled over
// every arrival stream.
func (r SchedResult) MeanStretch(scenario, policy string) (float64, bool) {
	row, ok := r.Row(scenario, policy)
	if !ok {
		return 0, false
	}
	return row.MeanStretch, true
}

// schedGrid prunes the profile grid to at most three spanning configurations
// — enough for the utilization→degradation interpolation the predictor
// evaluates, at a fraction of the profile-building cost.
func schedGrid(grid []inject.Config) []inject.Config {
	if len(grid) <= 3 {
		return grid
	}
	return []inject.Config{grid[0], grid[len(grid)/2], grid[len(grid)-1]}
}

// schedOversubscription reports the scenario's leaf oversubscription ratio
// (1 for the single switch).
func schedOversubscription(t netsim.Topology, nodes int) float64 {
	if ft, ok := t.(netsim.FatTree); ok {
		return ft.Oversubscription(nodes)
	}
	return 1
}

// Sched runs the scheduler campaign.
func (s *Suite) Sched(spec SchedSpec) (SchedResult, error) {
	spec = spec.withDefaults(s.cfg)
	if err := spec.validate(); err != nil {
		return SchedResult{}, err
	}
	for _, name := range spec.Apps {
		if _, err := workload.ByName(name, s.cfg.Scale); err != nil {
			return SchedResult{}, err
		}
	}
	pred, err := model.ByName(spec.Predictor)
	if err != nil {
		return SchedResult{}, err
	}
	known := map[string]bool{}
	for _, p := range sched.PolicyNames() {
		known[p] = true
	}
	for _, p := range spec.Policies {
		if !known[p] {
			return SchedResult{}, fmt.Errorf("sched: unknown policy %q (valid: %s)",
				p, strings.Join(sched.PolicyNames(), ", "))
		}
	}
	res := SchedResult{Spec: spec, Policies: spec.Policies}
	for _, scen := range spec.Scenarios {
		res.Scenarios = append(res.Scenarios, scen.Label)
		rows, err := s.schedScenario(spec, scen, pred)
		if err != nil {
			return SchedResult{}, fmt.Errorf("sched %s: %w", scen.Label, err)
		}
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// schedHealthTimeline derives a leaf-health feed for one scenario run from
// the arrival stream's span (interarrival × jobs, in virtual seconds).  The
// faults campaign uses it to inject deterministic leaf failures at fixed
// fractions of the schedule; nil means every leaf stays healthy.
type schedHealthTimeline func(span float64) (health func(leaf int, now float64) sched.LeafHealth, events []float64)

// schedScenario runs every policy on one fabric.
func (s *Suite) schedScenario(spec SchedSpec, scen SchedScenario, pred model.Predictor) ([]SchedPolicyRow, error) {
	return s.schedScenarioHealth(spec, scen, pred, nil)
}

// schedScenarioHealth runs every policy on one fabric under an optional
// leaf-health timeline.
func (s *Suite) schedScenarioHealth(spec SchedSpec, scen SchedScenario, pred model.Predictor, timeline schedHealthTimeline) ([]SchedPolicyRow, error) {
	o := s.cfg.Options
	if scen.Topology != nil {
		o.Machine.Net.Topology = scen.Topology
	}
	grid := schedGrid(s.cfg.ProfileGrid)
	oracle := sched.NewEngineOracle(s.eng, o, grid)

	needPredictor := false
	for _, p := range spec.Policies {
		if p == sched.PolicyPredictor {
			needPredictor = true
		}
	}

	// The solo baselines both size the arrival stream (offered load) and
	// serve as the jobs' service demands; fetch them first, in parallel.
	if err := s.runParallel(len(spec.Apps),
		func(i int) string { return "sched solo " + spec.Apps[i] },
		func(i int) error { _, err := oracle.SoloIterationSec(spec.Apps[i]); return err },
	); err != nil {
		return nil, err
	}
	meanSolo := 0.0
	for _, app := range spec.Apps {
		iter, err := oracle.SoloIterationSec(app)
		if err != nil {
			return nil, err
		}
		meanSolo += iter * float64(spec.MinIterations+spec.MaxIterations) / 2
	}
	meanSolo /= float64(len(spec.Apps))

	// Slot capacity mirrors the simulator's node-derived accounting: leaves
	// are filled contiguously, each contributing leafNodes/NodesPerSlot
	// slots.
	nodes := o.Machine.Nodes()
	totalSlots := nodes / spec.NodesPerSlot
	if ft, ok := o.Machine.Net.Topology.(netsim.FatTree); ok {
		perLeaf := ft.NodesPerLeaf(nodes)
		counts := make(map[int]int)
		for n := 0; n < nodes; n++ {
			counts[n/perLeaf]++
		}
		totalSlots = 0
		for _, c := range counts {
			totalSlots += c / spec.NodesPerSlot
		}
	}
	if totalSlots < 1 {
		return nil, fmt.Errorf("no job slots: %d nodes at %d nodes per slot", nodes, spec.NodesPerSlot)
	}

	interarrival := spec.MeanInterarrivalMs / 1e3
	if interarrival <= 0 {
		meanSlots := 1 + spec.TwoSlotFraction
		interarrival = meanSolo * meanSlots / (spec.Load * float64(totalSlots))
	}
	streams := make([][]sched.JobSpec, spec.Streams)
	var allJobs []sched.JobSpec
	for i := range streams {
		jobs, err := sched.ArrivalSpec{
			Jobs:             spec.Jobs,
			Seed:             spec.Seed + int64(i),
			Mix:              spec.Apps,
			MeanInterarrival: interarrival,
			MinIterations:    spec.MinIterations,
			MaxIterations:    spec.MaxIterations,
			TwoSlotFraction:  spec.TwoSlotFraction,
		}.Generate()
		if err != nil {
			return nil, err
		}
		streams[i] = jobs
		allJobs = append(allJobs, jobs...)
	}

	if err := s.schedPrefetch(spec, allJobs, oracle, needPredictor); err != nil {
		return nil, err
	}

	var (
		health       func(leaf int, now float64) sched.LeafHealth
		healthEvents []float64
	)
	if timeline != nil {
		health, healthEvents = timeline(interarrival * float64(spec.Jobs))
	}

	oversub := schedOversubscription(o.Machine.Net.Topology, nodes)
	var rows []SchedPolicyRow
	for _, name := range spec.Policies {
		row := SchedPolicyRow{
			Scenario:         scen.Label,
			Oversubscription: oversub,
			Policy:           name,
		}
		before := s.eng.Stats()
		lookups0, misses0 := oracle.Stats()
		for i, jobs := range streams {
			policy, err := sched.NewPolicy(name, spec.Seed+int64(i), pred, oracle)
			if err != nil {
				return nil, err
			}
			result, err := sched.Run(sched.Config{
				Machine:      o.Machine,
				Seed:         spec.Seed + int64(i),
				NodesPerSlot: spec.NodesPerSlot,
				Jobs:         jobs,
				Policy:       policy,
				Oracle:       oracle,
				Health:       health,
				HealthEvents: healthEvents,
			})
			if err != nil {
				return nil, fmt.Errorf("policy %s stream %d: %w", name, i, err)
			}
			if telemetry.TraceEnabled() {
				emitSchedTrace(scen.Label, name, i, result)
			}
			row.Streams = append(row.Streams, result)
		}
		row.Cache = s.eng.Stats().Minus(before)
		lookups, misses := oracle.Stats()
		row.OracleLookups, row.OracleMisses = lookups-lookups0, misses-misses0
		recordSchedTelemetry(name, row)
		row.aggregate()
		rows = append(rows, row)
	}
	return rows, nil
}

// recordSchedTelemetry folds one policy row's deltas into policy-labeled
// registry series.  The oracle and engine keep per-instance atomics because
// scenarios schedule in parallel and each row needs its own delta; the
// registry gets the already-attributed per-policy sums, so /metrics can
// answer "how many oracle probes did PredictorGuided cost" across the whole
// campaign.
func recordSchedTelemetry(policy string, row SchedPolicyRow) {
	reg := telemetry.Default()
	jobs := 0
	for _, r := range row.Streams {
		jobs += len(r.Jobs)
	}
	reg.Counter("swprobe_sched_jobs_total", "Jobs scheduled, by placement policy", "policy", policy).Add(int64(jobs))
	reg.Counter("swprobe_sched_oracle_lookups_total", "Contention-oracle probes issued, by placement policy", "policy", policy).Add(row.OracleLookups)
	reg.Counter("swprobe_sched_oracle_misses_total", "Contention-oracle probes that missed the artifact cache, by placement policy", "policy", policy).Add(row.OracleMisses)
}

// emitSchedTrace exports one scheduler run as trace lanes: a trace process
// per scenario×policy×stream, a thread per leaf, a complete span per job
// lifetime (start→end on its leaf) and an instant per placement decision.
// Emission happens post-run from the Result record, so the scheduler's event
// loop is untouched and the trace can never perturb a schedule.
func emitSchedTrace(scenario, policy string, stream int, result sched.Result) {
	pid := telemetry.NextTracePid()
	telemetry.EmitProcessName(pid, fmt.Sprintf("sched %s/%s s%d", scenario, policy, stream))
	leaves := map[int]bool{}
	for _, j := range result.Jobs {
		if !leaves[j.Leaf] {
			leaves[j.Leaf] = true
			telemetry.EmitThreadName(pid, int64(j.Leaf), fmt.Sprintf("leaf %d", j.Leaf))
		}
		startNS := int64(j.Start * 1e9)
		durNS := int64((j.End - j.Start) * 1e9)
		telemetry.EmitSpan("sched.job", fmt.Sprintf("j%d %s", j.ID, j.Workload), pid, int64(j.Leaf), startNS, durNS, map[string]any{
			"slots":     j.Slots,
			"wait_sec":  j.WaitSec,
			"stretch":   j.Stretch,
			"colocated": j.Colocated,
		})
	}
	for _, d := range result.Decisions {
		telemetry.EmitInstant("sched.place", fmt.Sprintf("place j%d %s", d.JobID, d.Workload), pid, int64(d.Leaf), int64(d.Time*1e9), map[string]any{
			"score":    d.Score,
			"queued":   d.Queued,
			"feasible": d.Feasible,
		})
	}
}

// schedPrefetch warms the engine with every coefficient the simulations can
// request, fanned out across the worker pool, so the per-policy runs are
// pure cache reads and the cold campaign parallelizes.
func (s *Suite) schedPrefetch(spec SchedSpec, jobs []sched.JobSpec, oracle *sched.EngineOracle, needPredictor bool) error {
	present := map[string]bool{}
	for _, j := range jobs {
		present[j.Workload] = true
	}
	apps := make([]string, 0, len(present))
	for a := range present {
		apps = append(apps, a)
	}
	sort.Strings(apps)

	type task struct {
		label string
		run   func() error
	}
	var tasks []task
	for _, a := range apps {
		a := a
		tasks = append(tasks, task{"sched signature " + a, func() error {
			_, err := oracle.Signature(a)
			return err
		}})
		if needPredictor {
			tasks = append(tasks, task{"sched profile " + a, func() error {
				_, err := oracle.Profile(a)
				return err
			}})
		}
		for _, b := range apps {
			if b < a {
				continue
			}
			a, b := a, b
			tasks = append(tasks, task{fmt.Sprintf("sched pair %s+%s shared", a, b), func() error {
				_, err := oracle.SharedSlowdownPct(a, b)
				return err
			}})
			tasks = append(tasks, task{fmt.Sprintf("sched pair %s+%s disjoint", a, b), func() error {
				_, err := oracle.DisjointSlowdownPct(a, b)
				return err
			}})
			tasks = append(tasks, task{fmt.Sprintf("sched pair %s+%s reverse", a, b), func() error {
				if _, err := oracle.SharedSlowdownPct(b, a); err != nil {
					return err
				}
				_, err := oracle.DisjointSlowdownPct(b, a)
				return err
			}})
		}
	}
	return s.runParallel(len(tasks),
		func(i int) string { return tasks[i].label },
		func(i int) error { return tasks[i].run() })
}

// SchedSummary renders the campaign's headline comparison: per scenario, the
// best policy by mean stretch and the predictor-guided policy's edge over
// the blind placements.
func SchedSummary(r SchedResult) string {
	var b strings.Builder
	for _, scen := range r.Scenarios {
		best, bestStretch := "", 0.0
		for _, p := range r.Policies {
			if st, ok := r.MeanStretch(scen, p); ok && (best == "" || st < bestStretch) {
				best, bestStretch = p, st
			}
		}
		if best == "" {
			continue
		}
		fmt.Fprintf(&b, "%s: best policy %s (mean stretch %.2f)", scen, best, bestStretch)
		pg, okPG := r.MeanStretch(scen, sched.PolicyPredictor)
		pack, okPack := r.MeanStretch(scen, sched.PolicyPack)
		spread, okSpread := r.MeanStretch(scen, sched.PolicySpread)
		if okPG && okPack && okSpread {
			fmt.Fprintf(&b, "; predictor %.2f vs pack %.2f, spread %.2f", pg, pack, spread)
		}
		b.WriteString("\n")
	}
	return b.String()
}
