package sched

import (
	"math"
	"reflect"
	"testing"

	"github.com/hpcperf/switchprobe/internal/core"
)

// healthTimeline builds a Health function from per-leaf (time, health)
// breakpoints: the health of a leaf at t is the last breakpoint at or before
// t (HealthOK before the first).
func healthTimeline(perLeaf map[int][]struct {
	At float64
	H  LeafHealth
}) func(leaf int, now float64) LeafHealth {
	return func(leaf int, now float64) LeafHealth {
		h := HealthOK
		for _, bp := range perLeaf[leaf] {
			if bp.At <= now {
				h = bp.H
			}
		}
		return h
	}
}

func TestHealthConstantOKMatchesNilHealth(t *testing.T) {
	spec := ArrivalSpec{
		Jobs: 12, Seed: 3, Mix: []string{"A"},
		MeanInterarrival: 0.2, MinIterations: 5, MaxIterations: 15,
	}
	jobs, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Machine: testMachine(4, 2),
		Jobs:    jobs,
		Policy:  FirstFit{},
		Oracle:  flatOracle(0.1, 100, "A"),
	}
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withHealth := base
	withHealth.Health = func(int, float64) LeafHealth { return HealthOK }
	got, err := Run(withHealth)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("an always-OK health feed changed the schedule")
	}
}

func TestHealthDegradedRateSlowsJob(t *testing.T) {
	cfg := Config{
		Machine: testMachine(4, 2),
		Jobs:    []JobSpec{{ID: 0, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0}},
		Policy:  FirstFit{},
		Oracle:  flatOracle(0.1, 0, "A"),
		Health: func(leaf int, _ float64) LeafHealth {
			if leaf == 0 {
				return HealthDegraded
			}
			return HealthOK
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// FirstFit lands on the degraded leaf 0; half rate doubles the 1.0s solo.
	if res.Jobs[0].Leaf != 0 {
		t.Fatalf("job on leaf %d, want 0", res.Jobs[0].Leaf)
	}
	if math.Abs(res.MakespanSec-2.0) > 1e-9 {
		t.Fatalf("makespan %v, want 2.0 (half rate on degraded leaf)", res.MakespanSec)
	}
}

// TestHealthDeadLeafRequeues pins the eviction contract: a job stranded on a
// leaf that dies mid-run is requeued with full demand restored, its slots are
// released exactly once, and it restarts on a surviving leaf.
func TestHealthDeadLeafRequeues(t *testing.T) {
	cfg := Config{
		Machine: testMachine(4, 2),
		Jobs:    []JobSpec{{ID: 0, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0}},
		Policy:  FirstFit{},
		Oracle:  flatOracle(0.1, 0, "A"),
		Health: healthTimeline(map[int][]struct {
			At float64
			H  LeafHealth
		}{
			0: {{At: 0.4, H: HealthDead}},
		}),
		HealthEvents: []float64{0.4},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requeues != 1 {
		t.Fatalf("Requeues = %d, want 1", res.Requeues)
	}
	j := res.Jobs[0]
	if j.Leaf != 1 {
		t.Fatalf("job finished on leaf %d, want the surviving leaf 1", j.Leaf)
	}
	// Demand restored: 0.4s of progress is lost, the 1.0s solo restarts at
	// the eviction instant.
	if math.Abs(j.End-1.4) > 1e-9 {
		t.Fatalf("job ended at %v, want 1.4 (restart at 0.4 + 1.0 solo)", j.End)
	}
}

// TestHealthRequeueAccountingNoDoubleBook drains a full leaf mid-campaign and
// then revives it: every evicted job re-places without the allocator ever
// seeing a double-booked node, and the revived leaf is reusable.  The
// cluster allocation machinery errors on any node allocated twice or released
// twice, so an error-free run is the accounting contract.
func TestHealthRequeueAccountingNoDoubleBook(t *testing.T) {
	jobs := []JobSpec{
		{ID: 0, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0},
		{ID: 1, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0},
		// Arrives while leaf 0 is dead and leaf 1 holds the evicted pair.
		{ID: 2, Workload: "A", Slots: 1, Iterations: 5, Arrival: 0.6},
	}
	cfg := Config{
		Machine: testMachine(8, 2), // 4 nodes per leaf, 2 slots of 2 nodes
		Jobs:    jobs,
		Policy:  FirstFit{},
		Oracle:  flatOracle(0.1, 0, "A"),
		Health: healthTimeline(map[int][]struct {
			At float64
			H  LeafHealth
		}{
			0: {{At: 0.5, H: HealthDead}, {At: 2.0, H: HealthOK}},
		}),
		HealthEvents: []float64{0.5, 2.0},
		NodesPerSlot: 2,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 3 {
		t.Fatalf("%d outcomes, want 3", len(res.Jobs))
	}
	// FirstFit packs both initial jobs onto leaf 0 (2 slots); both evict.
	if res.Requeues != 2 {
		t.Fatalf("Requeues = %d, want 2", res.Requeues)
	}
	for _, j := range res.Jobs[:2] {
		if j.Leaf != 1 {
			t.Fatalf("evicted job %d finished on leaf %d, want 1", j.ID, j.Leaf)
		}
		if j.End < 1.5-1e-9 {
			t.Fatalf("evicted job %d ended at %v, before a full restart could finish", j.ID, j.End)
		}
	}
	// Job 2 arrived while leaf 1 was full and leaf 0 dead: it must wait for
	// capacity (a completion on leaf 1 or leaf 0's revival), never stack
	// onto booked slots.
	if res.Jobs[2].Start < 1.5-1e-9 && res.Jobs[2].Leaf == 1 {
		t.Fatalf("job 2 started at %v on full leaf 1", res.Jobs[2].Start)
	}
}

// TestHealthRevivalUnsticksQueue pins the deadlock exception: with every
// leaf dead and nothing running, the scheduler must wait for a future health
// event instead of declaring the queue stuck.
func TestHealthRevivalUnsticksQueue(t *testing.T) {
	cfg := Config{
		Machine: testMachine(4, 2),
		Jobs:    []JobSpec{{ID: 0, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0}},
		Policy:  FirstFit{},
		Oracle:  flatOracle(0.1, 0, "A"),
		Health: healthTimeline(map[int][]struct {
			At float64
			H  LeafHealth
		}{
			0: {{At: 0, H: HealthDead}, {At: 1.0, H: HealthOK}},
			1: {{At: 0, H: HealthDead}, {At: 1.0, H: HealthOK}},
		}),
		HealthEvents: []float64{1.0},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Jobs[0].Start-1.0) > 1e-9 {
		t.Fatalf("job started at %v, want 1.0 (first revival)", res.Jobs[0].Start)
	}
}

func TestPredictorGuidedPenalizesDegradedLeaf(t *testing.T) {
	pred := fakePredictor{table: map[string]float64{}}
	oracle := flatOracle(0.1, 50, "Target", "Light")
	oracle.Sigs = map[string]core.Signature{
		"Target": {Component: "Target"}, "Light": {Component: "Light"},
	}
	oracle.Profiles = map[string]core.Profile{
		"Target": {App: "Target"}, "Light": {App: "Light"},
	}
	p := NewPredictorGuided(pred, oracle)
	cands := []Candidate{
		{Leaf: 0, FreeSlots: 2, UsedSlots: 1, Residents: []string{"Light"}, Health: HealthDegraded},
		{Leaf: 1, FreeSlots: 2, UsedSlots: 0, Health: HealthOK},
	}
	choice, _, err := p.Choose(JobSpec{Workload: "Target", Slots: 1}, cands)
	if err != nil {
		t.Fatal(err)
	}
	// The zero-prediction table makes both placements contention-free; the
	// usual consolidation tie-break would pick the loaded leaf 0, but the
	// degraded penalty must push it past the margin.
	if choice != 1 {
		t.Fatalf("chose candidate %d, want the healthy leaf (1)", choice)
	}
	// Without the health signal the loaded leaf wins, pinning that the flip
	// above really is the penalty.
	cands[0].Health = HealthOK
	choice, _, err = p.Choose(JobSpec{Workload: "Target", Slots: 1}, cands)
	if err != nil {
		t.Fatal(err)
	}
	if choice != 0 {
		t.Fatalf("healthy consolidation chose %d, want the loaded leaf (0)", choice)
	}
}

func TestPredictorGuidedUnknownHealthFallsBackToPack(t *testing.T) {
	pred := fakePredictor{table: map[string]float64{
		PairKey("Target", "Heavy"): 500, // would normally repel the target
	}}
	oracle := flatOracle(0.1, 50, "Target", "Heavy")
	oracle.Sigs = map[string]core.Signature{
		"Target": {Component: "Target"}, "Heavy": {Component: "Heavy"},
	}
	oracle.Profiles = map[string]core.Profile{
		"Target": {App: "Target"}, "Heavy": {App: "Heavy"},
	}
	p := NewPredictorGuided(pred, oracle)
	cands := []Candidate{
		{Leaf: 0, FreeSlots: 2, UsedSlots: 1, Residents: []string{"Heavy"}, Health: HealthUnknown},
		{Leaf: 1, FreeSlots: 2, UsedSlots: 0, Health: HealthUnknown},
	}
	choice, _, err := p.Choose(JobSpec{Workload: "Target", Slots: 1}, cands)
	if err != nil {
		t.Fatal(err)
	}
	// With no health information the policy must not trust predictions over
	// an unknown fabric: it consolidates like Pack (most-loaded leaf).
	if choice != 0 {
		t.Fatalf("chose candidate %d, want Pack's most-loaded leaf (0)", choice)
	}
}
