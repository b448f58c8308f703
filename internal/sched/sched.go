// Package sched closes the paper's loop: it turns the offline predictors
// (internal/model) and the placed co-run measurement library (internal/core)
// into a decision engine for an event-driven cluster scheduler simulator.
//
// The model operates at the job level, one step above the packet-level
// kernel.  The machine's leaf switches are contention domains with a fixed
// number of job slots each; jobs (a workload name, a slot count, a service
// demand in solo iterations) arrive as a stream, wait FCFS when no leaf has
// capacity, and run to completion at a rate set by who shares their domain:
//
//   - two jobs on the same leaf are charged the spread-placed co-run
//     degradation measured for their workload pair on the scenario's fabric
//     (the paper's methodology, via placed core.PairSpec runs);
//   - jobs on different leaves are charged the pack-placed (disjoint-leaf)
//     measurement, which is near zero on every fabric the xswitch campaign
//     covers;
//   - a job's solo duration comes from its calibrated slot baseline.
//
// Multi-way co-residency is resolved additively over the pairwise
// coefficients — an approximation, but one built entirely from measured,
// content-addressed artifacts: every coefficient an Oracle serves is a cached
// core.RunSpec, so a warm campaign schedules thousands of jobs without
// executing a single packet-level simulation.
//
// Placement decisions are pluggable policies (FirstFit, Pack, Spread,
// Random, and the predictor-in-the-loop PredictorGuided); the simulator
// emits per-policy makespan, job stretch, a switch-utilization timeline and
// a placement-decision log so policies can be compared end to end.
package sched

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/hpcperf/switchprobe/internal/cluster"
	"github.com/hpcperf/switchprobe/internal/sim"
	"github.com/hpcperf/switchprobe/internal/stats"
)

// JobSpec is one job of the arrival stream.
type JobSpec struct {
	// ID orders the stream; ties in virtual time are broken by it.
	ID int
	// Workload is the application name (one of workload.Names).
	Workload string
	// Slots is the leaf-slot capacity the job occupies (1 ≤ Slots ≤ the
	// cluster's slots per leaf; jobs never span leaves).
	Slots int
	// Iterations is the job's service demand in solo iterations.
	Iterations int
	// Arrival is the job's submission time in virtual seconds.
	Arrival float64
}

// Name returns the job's unique allocation label.
func (j JobSpec) Name() string { return fmt.Sprintf("j%02d-%s", j.ID, j.Workload) }

// ArrivalSpec deterministically generates a job stream from a seed.
type ArrivalSpec struct {
	// Jobs is the stream length.
	Jobs int
	// Seed drives every random draw of the generator.
	Seed int64
	// Mix is the set of workload names jobs are drawn from.
	Mix []string
	// MeanInterarrival is the mean of the exponential inter-arrival gap in
	// virtual seconds.
	MeanInterarrival float64
	// MinIterations and MaxIterations bound the uniform service-demand draw.
	MinIterations, MaxIterations int
	// TwoSlotFraction is the probability that a job needs two leaf slots
	// instead of one.
	TwoSlotFraction float64
}

// Generate produces the arrival stream.  The same spec always produces the
// same stream: all randomness flows from a private source seeded by Seed.
// Workloads are assigned by cycling the mix (every len(Mix) consecutive jobs
// contain each workload exactly once), so the stream's composition is
// balanced by construction and only gaps, demands and widths are random.
func (a ArrivalSpec) Generate() ([]JobSpec, error) {
	if a.Jobs <= 0 {
		return nil, fmt.Errorf("sched: non-positive job count %d", a.Jobs)
	}
	if len(a.Mix) == 0 {
		return nil, fmt.Errorf("sched: empty workload mix")
	}
	if !(a.MeanInterarrival > 0) || math.IsInf(a.MeanInterarrival, 1) {
		return nil, fmt.Errorf("sched: mean inter-arrival %v is not positive and finite", a.MeanInterarrival)
	}
	if a.MinIterations < 1 || a.MaxIterations < a.MinIterations {
		return nil, fmt.Errorf("sched: invalid iteration range [%d, %d]", a.MinIterations, a.MaxIterations)
	}
	if a.TwoSlotFraction < 0 || a.TwoSlotFraction > 1 {
		return nil, fmt.Errorf("sched: two-slot fraction %v outside [0, 1]", a.TwoSlotFraction)
	}
	rng := rand.New(rand.NewSource(a.Seed))
	jobs := make([]JobSpec, a.Jobs)
	at := 0.0
	for i := range jobs {
		j := JobSpec{
			ID:         i,
			Workload:   a.Mix[i%len(a.Mix)],
			Slots:      1,
			Iterations: a.MinIterations + rng.Intn(a.MaxIterations-a.MinIterations+1),
			Arrival:    at,
		}
		if rng.Float64() < a.TwoSlotFraction {
			j.Slots = 2
		}
		jobs[i] = j
		at += rng.ExpFloat64() * a.MeanInterarrival
	}
	return jobs, nil
}

// Config describes one scheduler simulation run.
type Config struct {
	// Machine is the simulated machine (its topology defines the leaves the
	// scheduler places jobs across).
	Machine cluster.Config
	// Seed seeds the bookkeeping kernel (only the random node-order stream
	// depends on it).
	Seed int64
	// NodesPerSlot is the number of whole nodes one job slot occupies; every
	// leaf provides len(leafNodes)/NodesPerSlot slots.  Zero derives it from
	// the largest leaf so each leaf holds two slots — but campaigns that
	// compare topologies should pin it explicitly, keeping total slot
	// capacity identical across fabrics.
	NodesPerSlot int
	// Jobs is the arrival stream, ordered by arrival time.
	Jobs []JobSpec
	// Policy decides where each job goes.
	Policy Policy
	// Oracle resolves solo durations, co-run slowdowns and signatures.
	Oracle Oracle
	// Health reports a leaf's fabric health at a virtual time.  nil means
	// every leaf is healthy forever — exactly the behaviour before health
	// awareness existed.  The function must be pure over (leaf, time): the
	// scheduler re-queries it on every event.
	Health func(leaf int, now float64) LeafHealth
	// HealthEvents lists the virtual times (seconds, ascending not required)
	// at which Health may change its answer.  At each event the scheduler
	// requeues jobs stranded on dead leaves, refreshes progress rates and
	// re-offers the queue.  Health transitions between listed events are
	// not observed.
	HealthEvents []float64
}

// degradedRate is the progress-rate multiplier applied to jobs running on
// degraded leaves.
const degradedRate = 0.5

// JobOutcome records one completed job.
type JobOutcome struct {
	ID        int
	Workload  string
	Slots     int
	Leaf      int
	Arrival   float64
	Start     float64
	End       float64
	SoloSec   float64
	WaitSec   float64
	Stretch   float64
	Colocated bool // placed onto a leaf that already had residents
}

// TimelinePoint samples cluster state after a placement or completion.
type TimelinePoint struct {
	// Time is the event's virtual time in seconds.
	Time float64
	// Running is the number of resident jobs.
	Running int
	// BusySlots is the number of occupied leaf slots.
	BusySlots int
	// UtilizationPct is the aggregated solo switch utilization of every
	// resident job's signature, capped at 100.
	UtilizationPct float64
}

// Decision records one placement with the policy's reasoning.
type Decision struct {
	Time      float64
	JobID     int
	Workload  string
	Slots     int
	Leaf      int
	Score     float64
	Queued    int      // jobs still waiting after this placement
	Feasible  int      // number of candidate leaves offered
	Residents []string // workloads already on the chosen leaf
}

// Result is one policy's full schedule and its summary metrics.
type Result struct {
	Policy      string
	Jobs        []JobOutcome
	Decisions   []Decision
	Timeline    []TimelinePoint
	MakespanSec float64
	MeanStretch float64
	P95Stretch  float64
	MaxStretch  float64
	MeanWaitSec float64
	// MeanUtilizationPct is the time-weighted mean of the utilization
	// timeline over the makespan.
	MeanUtilizationPct float64
	// Colocations counts placements onto leaves that already had residents
	// (each one opens a shared contention domain).
	Colocations int
	// Deferrals counts the times the policy postponed the head of the queue
	// because every feasible placement predicted heavy contention.
	Deferrals int
	// Requeues counts jobs evicted from dead leaves and returned to the
	// queue with their full service demand restored (partial progress on a
	// partitioned leaf is lost, as on a real machine).
	Requeues int
	// TotalSlots is the cluster's job-slot capacity.
	TotalSlots int
}

// running is the mutable state of one resident job.
type running struct {
	spec      JobSpec
	alloc     *cluster.Job
	leaf      int
	start     float64
	solo      float64
	remaining float64
	rate      float64
	colocated bool
}

// clusterState tracks leaf/slot occupancy on a real cluster.Machine, so slot
// accounting and core allocation stay consistent.
type clusterState struct {
	m            *cluster.Machine
	leafNodes    [][]int
	nodesPerSlot int
	slotsPerLeaf []int
	resident     map[int][]*running // leaf -> jobs
}

func newClusterState(cfg Config) (*clusterState, error) {
	m, err := cluster.New(sim.NewKernel(cfg.Seed), cfg.Machine)
	if err != nil {
		return nil, err
	}
	leaves := m.Leaves()
	cs := &clusterState{
		m:         m,
		leafNodes: make([][]int, leaves),
		resident:  make(map[int][]*running, leaves),
	}
	for n := 0; n < cfg.Machine.Nodes(); n++ {
		leaf := m.LeafOf(n)
		cs.leafNodes[leaf] = append(cs.leafNodes[leaf], n)
	}
	cs.nodesPerSlot = cfg.NodesPerSlot
	if cs.nodesPerSlot <= 0 {
		largest := 0
		for _, nodes := range cs.leafNodes {
			if len(nodes) > largest {
				largest = len(nodes)
			}
		}
		cs.nodesPerSlot = largest / 2
		if cs.nodesPerSlot < 1 {
			cs.nodesPerSlot = 1
		}
	}
	cs.slotsPerLeaf = make([]int, leaves)
	for l, nodes := range cs.leafNodes {
		cs.slotsPerLeaf[l] = len(nodes) / cs.nodesPerSlot
	}
	return cs, nil
}

// freeNodes returns the leaf's fully idle nodes in ascending order.
func (cs *clusterState) freeNodes(leaf int) []int {
	full := cs.m.Config().CoresPerNode()
	var out []int
	for _, n := range cs.leafNodes[leaf] {
		if cs.m.FreeCores(n) == full {
			out = append(out, n)
		}
	}
	return out
}

// freeSlots returns the number of job slots still available on the leaf.
// Because every job holds exactly Slots×nodesPerSlot whole nodes, the
// node-derived count always equals capacity minus resident slots.
func (cs *clusterState) freeSlots(leaf int) int {
	return len(cs.freeNodes(leaf)) / cs.nodesPerSlot
}

func slotsUsed(rs []*running) int {
	total := 0
	for _, r := range rs {
		total += r.spec.Slots
	}
	return total
}

// candidates lists the leaves that can host the job, in ascending leaf
// order.
func (cs *clusterState) candidates(job JobSpec) []Candidate {
	var cands []Candidate
	for leaf := range cs.leafNodes {
		free := cs.freeSlots(leaf)
		if free < job.Slots {
			continue
		}
		c := Candidate{Leaf: leaf, FreeSlots: free, UsedSlots: slotsUsed(cs.resident[leaf])}
		for _, r := range cs.resident[leaf] {
			c.Residents = append(c.Residents, r.spec.Workload)
		}
		cands = append(cands, c)
	}
	return cands
}

// place allocates the job's nodes on the chosen leaf through the cluster
// allocation machinery and registers it as resident.
func (cs *clusterState) place(r *running) error {
	free := cs.freeNodes(r.leaf)
	need := r.spec.Slots * cs.nodesPerSlot
	if len(free) < need {
		return fmt.Errorf("sched: leaf %d has %d free nodes, job %s needs %d", r.leaf, len(free), r.spec.Name(), need)
	}
	alloc, err := cs.m.AllocateOnNodes(r.spec.Name(), cs.m.Config().CoresPerSocket, free[:need])
	if err != nil {
		return err
	}
	r.alloc = alloc
	cs.resident[r.leaf] = append(cs.resident[r.leaf], r)
	return nil
}

// release frees the job's cores and residency.
func (cs *clusterState) release(r *running) {
	cs.m.Release(r.alloc)
	rs := cs.resident[r.leaf]
	for i, other := range rs {
		if other == r {
			cs.resident[r.leaf] = append(rs[:i], rs[i+1:]...)
			break
		}
	}
}

// busySlots returns the total occupied slot count.
func (cs *clusterState) busySlots() int {
	total := 0
	for _, rs := range cs.resident {
		total += slotsUsed(rs)
	}
	return total
}

// totalSlots returns the cluster's slot capacity.
func (cs *clusterState) totalSlots() int {
	total := 0
	for _, s := range cs.slotsPerLeaf {
		total += s
	}
	return total
}

// Run executes the scheduler simulation and returns the schedule.  The run
// is fully deterministic: arrivals are processed in stream order, completion
// ties break by job ID, and every slowdown coefficient is a pure Oracle
// lookup.
func Run(cfg Config) (Result, error) {
	if cfg.Policy == nil {
		return Result{}, fmt.Errorf("sched: no policy")
	}
	if cfg.Oracle == nil {
		return Result{}, fmt.Errorf("sched: no oracle")
	}
	if len(cfg.Jobs) == 0 {
		return Result{}, fmt.Errorf("sched: empty job stream")
	}
	cs, err := newClusterState(cfg)
	if err != nil {
		return Result{}, err
	}
	maxSlots := 0
	for _, s := range cs.slotsPerLeaf {
		if s > maxSlots {
			maxSlots = s
		}
	}
	pending := append([]JobSpec(nil), cfg.Jobs...)
	sort.SliceStable(pending, func(i, j int) bool {
		if pending[i].Arrival != pending[j].Arrival {
			return pending[i].Arrival < pending[j].Arrival
		}
		return pending[i].ID < pending[j].ID
	})
	for _, j := range pending {
		if j.Slots < 1 || j.Slots > maxSlots {
			return Result{}, fmt.Errorf("sched: job %s needs %d slots, leaves hold at most %d", j.Name(), j.Slots, maxSlots)
		}
		if j.Iterations < 1 {
			return Result{}, fmt.Errorf("sched: job %s has no iterations", j.Name())
		}
	}

	res := Result{Policy: cfg.Policy.Name(), TotalSlots: cs.totalSlots()}
	var (
		queue   []JobSpec
		active  []*running
		now     float64
		firstAt = pending[0].Arrival
		lastEnd = firstAt
	)

	healthAt := func(leaf int, t float64) LeafHealth {
		if cfg.Health == nil {
			return HealthOK
		}
		return cfg.Health(leaf, t)
	}
	healthEvents := append([]float64(nil), cfg.HealthEvents...)
	sort.Float64s(healthEvents)
	nextHealthIdx := 0

	advance := func(t float64) {
		dt := t - now
		if dt > 0 {
			for _, r := range active {
				r.remaining -= r.rate * dt
			}
		}
		now = t
	}

	// rateOf recomputes one job's progress rate from its co-residents and
	// the health of the leaf it runs on.
	rateOf := func(r *running) (float64, error) {
		charge := 1.0
		for _, other := range active {
			if other == r {
				continue
			}
			var pct float64
			var err error
			if other.leaf == r.leaf {
				pct, err = cfg.Oracle.SharedSlowdownPct(r.spec.Workload, other.spec.Workload)
			} else {
				pct, err = cfg.Oracle.DisjointSlowdownPct(r.spec.Workload, other.spec.Workload)
			}
			if err != nil {
				return 0, err
			}
			if pct > 0 {
				charge += pct / 100
			}
		}
		rate := 1 / charge
		if healthAt(r.leaf, now) == HealthDegraded {
			rate *= degradedRate
		}
		return rate, nil
	}

	// requeueDead evicts jobs resident on dead leaves: their slots are
	// released exactly once and the specs return to the head of the queue
	// (oldest arrival first) with full demand — progress on a partitioned
	// leaf is lost.
	requeueDead := func() {
		var back []JobSpec
		for i := 0; i < len(active); {
			r := active[i]
			if healthAt(r.leaf, now) != HealthDead {
				i++
				continue
			}
			cs.release(r)
			active = append(active[:i], active[i+1:]...)
			back = append(back, r.spec)
			res.Requeues++
		}
		if len(back) > 0 {
			sort.SliceStable(back, func(i, j int) bool {
				if back[i].Arrival != back[j].Arrival {
					return back[i].Arrival < back[j].Arrival
				}
				return back[i].ID < back[j].ID
			})
			queue = append(back, queue...)
		}
	}

	refresh := func() error {
		for _, r := range active {
			rate, err := rateOf(r)
			if err != nil {
				return err
			}
			r.rate = rate
		}
		util := 0.0
		for _, r := range active {
			u, err := cfg.Oracle.UtilizationPct(r.spec.Workload)
			if err != nil {
				return err
			}
			util += u
		}
		if util > 100 {
			util = 100
		}
		res.Timeline = append(res.Timeline, TimelinePoint{
			Time:           now,
			Running:        len(active),
			BusySlots:      cs.busySlots(),
			UtilizationPct: util,
		})
		return nil
	}

	// placeQueue starts waiting jobs in FCFS order (no backfilling: the head
	// of the queue blocks everyone behind it, the same discipline for every
	// policy so schedules stay comparable).
	placeQueue := func() error {
		placed := false
		for len(queue) > 0 {
			job := queue[0]
			cands := cs.candidates(job)
			if cfg.Health != nil {
				alive := cands[:0]
				for _, c := range cands {
					c.Health = healthAt(c.Leaf, now)
					if c.Health == HealthDead {
						continue
					}
					alive = append(alive, c)
				}
				cands = alive
			}
			if len(cands) == 0 {
				break
			}
			choice, score, err := cfg.Policy.Choose(job, cands)
			if err != nil {
				return fmt.Errorf("sched: policy %s placing %s: %w", cfg.Policy.Name(), job.Name(), err)
			}
			if choice == Defer {
				if len(active) == 0 {
					// Nothing is running, so no completion can improve the
					// candidates; deferring would deadlock.  Place on the
					// first candidate (the score was for the deferral, not
					// a leaf, so don't record it).
					choice, score = 0, 0
				} else {
					res.Deferrals++
					break
				}
			}
			if choice < 0 || choice >= len(cands) {
				return fmt.Errorf("sched: policy %s chose candidate %d of %d for %s", cfg.Policy.Name(), choice, len(cands), job.Name())
			}
			cand := cands[choice]
			iter, err := cfg.Oracle.SoloIterationSec(job.Workload)
			if err != nil {
				return err
			}
			solo := iter * float64(job.Iterations)
			if solo <= 0 {
				return fmt.Errorf("sched: non-positive solo duration for %s", job.Workload)
			}
			r := &running{
				spec:      job,
				leaf:      cand.Leaf,
				start:     now,
				solo:      solo,
				remaining: solo,
				colocated: len(cand.Residents) > 0,
			}
			if err := cs.place(r); err != nil {
				return err
			}
			queue = queue[1:]
			active = append(active, r)
			if r.colocated {
				res.Colocations++
			}
			res.Decisions = append(res.Decisions, Decision{
				Time:      now,
				JobID:     job.ID,
				Workload:  job.Workload,
				Slots:     job.Slots,
				Leaf:      cand.Leaf,
				Score:     score,
				Queued:    len(queue),
				Feasible:  len(cands),
				Residents: cand.Residents,
			})
			placed = true
		}
		if placed {
			return refresh()
		}
		return nil
	}

	for len(pending) > 0 || len(queue) > 0 || len(active) > 0 {
		nextArrival := math.Inf(1)
		if len(pending) > 0 {
			nextArrival = pending[0].Arrival
		}
		nextDone := math.Inf(1)
		var done *running
		for _, r := range active {
			t := now + r.remaining/r.rate
			if t < nextDone || (t == nextDone && done != nil && r.spec.ID < done.spec.ID) {
				nextDone = t
				done = r
			}
		}
		nextHealth := math.Inf(1)
		for nextHealthIdx < len(healthEvents) && healthEvents[nextHealthIdx] < now {
			nextHealthIdx++ // already in the past, nothing to observe
		}
		if nextHealthIdx < len(healthEvents) {
			nextHealth = healthEvents[nextHealthIdx]
		}
		if len(active) == 0 && len(pending) == 0 && math.IsInf(nextHealth, 1) {
			return Result{}, fmt.Errorf("sched: %d jobs stuck in the queue (head %s needs %d slots)",
				len(queue), queue[0].Name(), queue[0].Slots)
		}
		if nextHealth < nextDone && nextHealth < nextArrival {
			// Health transition: evict dead-leaf residents, refresh rates
			// (degrade multipliers may have changed), then re-offer the
			// queue — a revived leaf is a new candidate.
			advance(nextHealth)
			nextHealthIdx++
			requeueDead()
			if err := refresh(); err != nil {
				return Result{}, err
			}
		} else if nextDone <= nextArrival {
			advance(nextDone)
			cs.release(done)
			for i, r := range active {
				if r == done {
					active = append(active[:i], active[i+1:]...)
					break
				}
			}
			stretch := (now - done.spec.Arrival) / done.solo
			res.Jobs = append(res.Jobs, JobOutcome{
				ID:        done.spec.ID,
				Workload:  done.spec.Workload,
				Slots:     done.spec.Slots,
				Leaf:      done.leaf,
				Arrival:   done.spec.Arrival,
				Start:     done.start,
				End:       now,
				SoloSec:   done.solo,
				WaitSec:   done.start - done.spec.Arrival,
				Stretch:   stretch,
				Colocated: done.colocated,
			})
			if now > lastEnd {
				lastEnd = now
			}
			if err := refresh(); err != nil {
				return Result{}, err
			}
		} else {
			advance(nextArrival)
			queue = append(queue, pending[0])
			pending = pending[1:]
		}
		if err := placeQueue(); err != nil {
			return Result{}, err
		}
	}

	sort.Slice(res.Jobs, func(i, j int) bool { return res.Jobs[i].ID < res.Jobs[j].ID })
	res.MakespanSec = lastEnd - firstAt
	summarize(&res)
	return res, nil
}

// summarize fills the aggregate metrics from the per-job outcomes and the
// timeline.
func summarize(res *Result) {
	if len(res.Jobs) == 0 {
		return
	}
	stretches := make([]float64, len(res.Jobs))
	waits := make([]float64, len(res.Jobs))
	for i, j := range res.Jobs {
		stretches[i] = j.Stretch
		waits[i] = j.WaitSec
	}
	res.MeanStretch, res.P95Stretch, res.MaxStretch = StretchStats(stretches)
	res.MeanWaitSec = stats.Mean(waits)

	if res.MakespanSec > 0 && len(res.Timeline) > 0 {
		weighted := 0.0
		for i, p := range res.Timeline {
			end := res.Timeline[len(res.Timeline)-1].Time
			if i+1 < len(res.Timeline) {
				end = res.Timeline[i+1].Time
			}
			weighted += p.UtilizationPct * (end - p.Time)
		}
		res.MeanUtilizationPct = weighted / res.MakespanSec
	}
}

// StretchStats summarizes a stretch sample as (mean, p95, max), the
// convention shared by per-run results and the campaign's pooled rows (the
// p95 uses the stats package's interpolated quantile).
func StretchStats(stretches []float64) (mean, p95, max float64) {
	return stats.Mean(stretches),
		stats.Quantile(stretches, 0.95),
		stats.Quantile(stretches, 1)
}
