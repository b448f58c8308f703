package sched

import (
	"math"
	"reflect"
	"testing"

	"github.com/hpcperf/switchprobe/internal/cluster"
	"github.com/hpcperf/switchprobe/internal/core"
	"github.com/hpcperf/switchprobe/internal/netsim"
)

// testMachine returns a machine with the given node count split across
// leaves (2 nodes per leaf slot pair by default).
func testMachine(nodes, leaves int) cluster.Config {
	cfg := cluster.CabConfig()
	cfg.Net.Nodes = nodes
	if leaves > 1 {
		cfg.Net.Topology = netsim.FatTree{Leaves: leaves, UplinksPerLeaf: 1}
	}
	return cfg
}

// flatOracle returns a static oracle where every workload iterates in
// iterSec and every shared pair slows down by sharedPct (disjoint pairs are
// free).
func flatOracle(iterSec, sharedPct float64, apps ...string) *StaticOracle {
	o := &StaticOracle{
		IterSec:         map[string]float64{},
		Shared:          map[string]float64{},
		Util:            map[string]float64{},
		ContendedFabric: true,
	}
	for _, a := range apps {
		o.IterSec[a] = iterSec
		o.Util[a] = 10
		for _, b := range apps {
			o.Shared[PairKey(a, b)] = sharedPct
		}
	}
	return o
}

func TestArrivalSpecDeterministic(t *testing.T) {
	spec := ArrivalSpec{
		Jobs: 20, Seed: 7, Mix: []string{"FFTW", "MCB"},
		MeanInterarrival: 0.1, MinIterations: 10, MaxIterations: 30,
		TwoSlotFraction: 0.25,
	}
	a, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec generated different streams")
	}
	spec.Seed = 8
	c, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical streams")
	}
	twoSlot := false
	for i, j := range a {
		if j.ID != i {
			t.Fatalf("job %d has ID %d", i, j.ID)
		}
		if i > 0 && j.Arrival < a[i-1].Arrival {
			t.Fatalf("arrivals not monotone at job %d", i)
		}
		if j.Iterations < 10 || j.Iterations > 30 {
			t.Fatalf("job %d iterations %d outside range", i, j.Iterations)
		}
		if j.Slots == 2 {
			twoSlot = true
		}
	}
	if !twoSlot {
		t.Fatal("no two-slot jobs in a 20-job stream with fraction 0.25")
	}
}

func TestArrivalSpecRejectsBadInput(t *testing.T) {
	good := ArrivalSpec{Jobs: 1, Mix: []string{"FFTW"}, MeanInterarrival: 1, MinIterations: 1, MaxIterations: 1}
	for _, mutate := range []func(*ArrivalSpec){
		func(s *ArrivalSpec) { s.Jobs = 0 },
		func(s *ArrivalSpec) { s.Mix = nil },
		func(s *ArrivalSpec) { s.MeanInterarrival = 0 },
		func(s *ArrivalSpec) { s.MeanInterarrival = -1 },
		func(s *ArrivalSpec) { s.MeanInterarrival = math.NaN() },
		func(s *ArrivalSpec) { s.MeanInterarrival = math.Inf(1) },
		func(s *ArrivalSpec) { s.MeanInterarrival = math.Inf(-1) },
		func(s *ArrivalSpec) { s.MinIterations = 0 },
		func(s *ArrivalSpec) { s.MaxIterations = 0 },
		func(s *ArrivalSpec) { s.TwoSlotFraction = 1.5 },
	} {
		s := good
		mutate(&s)
		if _, err := s.Generate(); err == nil {
			t.Fatalf("expected error for %+v", s)
		}
	}
}

func TestRunSingleJobNoContention(t *testing.T) {
	res, err := Run(Config{
		Machine: testMachine(4, 2),
		Jobs:    []JobSpec{{ID: 0, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0}},
		Policy:  FirstFit{},
		Oracle:  flatOracle(0.1, 50, "A"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 1 {
		t.Fatalf("got %d outcomes", len(res.Jobs))
	}
	j := res.Jobs[0]
	if math.Abs(j.Stretch-1) > 1e-12 || math.Abs(res.MakespanSec-1.0) > 1e-12 {
		t.Fatalf("solo job stretch %v makespan %v, want 1 and 1.0s", j.Stretch, res.MakespanSec)
	}
	if j.Colocated || res.Colocations != 0 {
		t.Fatal("solo job marked colocated")
	}
}

// TestRunSharedChargeSlowsBothJobs pins the charging arithmetic: two
// identical jobs packed onto one leaf at 100% mutual slowdown run at half
// speed and finish together at twice the solo duration.
func TestRunSharedChargeSlowsBothJobs(t *testing.T) {
	jobs := []JobSpec{
		{ID: 0, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0},
		{ID: 1, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0},
	}
	packed, err := Run(Config{
		Machine: testMachine(4, 2), Jobs: jobs, Policy: Pack{},
		Oracle: flatOracle(0.1, 100, "A"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range packed.Jobs {
		if math.Abs(j.End-2.0) > 1e-9 || math.Abs(j.Stretch-2.0) > 1e-9 {
			t.Fatalf("packed job %d end %v stretch %v, want 2.0 and 2.0", j.ID, j.End, j.Stretch)
		}
	}
	if packed.Colocations != 1 {
		t.Fatalf("packed colocations = %d, want 1", packed.Colocations)
	}

	spread, err := Run(Config{
		Machine: testMachine(4, 2), Jobs: jobs, Policy: Spread{},
		Oracle: flatOracle(0.1, 100, "A"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range spread.Jobs {
		if math.Abs(j.Stretch-1.0) > 1e-9 {
			t.Fatalf("spread job %d stretch %v, want 1.0 (disjoint leaves are free)", j.ID, j.Stretch)
		}
	}
	if spread.Colocations != 0 {
		t.Fatalf("spread colocations = %d, want 0", spread.Colocations)
	}
}

// TestRunQueueingFCFS fills a one-leaf (star) machine and checks the third
// job waits for a completion, keeping FCFS order.
func TestRunQueueingFCFS(t *testing.T) {
	jobs := []JobSpec{
		{ID: 0, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0},
		{ID: 1, Workload: "A", Slots: 1, Iterations: 20, Arrival: 0},
		{ID: 2, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0},
	}
	res, err := Run(Config{
		Machine: testMachine(4, 1), Jobs: jobs, Policy: FirstFit{},
		Oracle: flatOracle(0.1, 0, "A"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Slots: 4 nodes / 2 slots => 2 concurrent jobs. Job 0 ends at 1.0,
	// job 2 starts then, job 1 ends at 2.0, job 2 at 2.0.
	byID := map[int]JobOutcome{}
	for _, j := range res.Jobs {
		byID[j.ID] = j
	}
	if byID[2].Start != byID[0].End {
		t.Fatalf("job 2 started at %v, want at job 0's end %v", byID[2].Start, byID[0].End)
	}
	if w := byID[2].WaitSec; math.Abs(w-1.0) > 1e-9 {
		t.Fatalf("job 2 waited %v, want 1.0", w)
	}
	if res.MeanWaitSec == 0 || res.P95Stretch < res.MeanStretch {
		t.Fatalf("summary inconsistent: meanWait %v p95 %v mean %v", res.MeanWaitSec, res.P95Stretch, res.MeanStretch)
	}
}

// TestRunTwoSlotJobNeedsWholeLeaf checks a two-slot job blocks (FCFS, no
// backfill) until a whole leaf is free.
func TestRunTwoSlotJobNeedsWholeLeaf(t *testing.T) {
	jobs := []JobSpec{
		{ID: 0, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0},
		{ID: 1, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0},
		{ID: 2, Workload: "A", Slots: 2, Iterations: 10, Arrival: 0.01},
		{ID: 3, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0.02},
	}
	res, err := Run(Config{
		Machine: testMachine(4, 2), Jobs: jobs, Policy: Spread{},
		Oracle: flatOracle(0.1, 0, "A"),
	})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int]JobOutcome{}
	for _, j := range res.Jobs {
		byID[j.ID] = j
	}
	// Spread puts jobs 0 and 1 on different leaves; the 2-slot job 2 must
	// wait for a full leaf, and job 3 must not jump the queue.
	if byID[2].Start <= 0.01 {
		t.Fatalf("two-slot job started at %v despite no free leaf", byID[2].Start)
	}
	if byID[3].Start < byID[2].Start {
		t.Fatalf("job 3 (start %v) backfilled ahead of blocked job 2 (start %v)", byID[3].Start, byID[2].Start)
	}
}

func TestRunRejectsOversizedJob(t *testing.T) {
	_, err := Run(Config{
		Machine: testMachine(4, 2),
		Jobs:    []JobSpec{{ID: 0, Workload: "A", Slots: 3, Iterations: 1, Arrival: 0}},
		Policy:  FirstFit{},
		Oracle:  flatOracle(0.1, 0, "A"),
	})
	if err == nil {
		t.Fatal("expected error for a job larger than any leaf")
	}
}

// TestRunUnevenLeaves places jobs on a 5-node, 2-leaf machine where the
// second leaf has fewer nodes and therefore fewer slots.
func TestRunUnevenLeaves(t *testing.T) {
	cfg := cluster.CabConfig()
	cfg.Net.Nodes = 5
	cfg.Net.Topology = netsim.FatTree{Leaves: 2, UplinksPerLeaf: 1}
	jobs := []JobSpec{
		{ID: 0, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0},
		{ID: 1, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0},
		{ID: 2, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0},
	}
	res, err := Run(Config{
		Machine: cfg, Jobs: jobs, Policy: Spread{},
		Oracle: flatOracle(0.1, 0, "A"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Leaf 0 holds nodes {0,1,2} (2 slots of 1 node... nodesPerSlot =
	// ceil? 3/2=1 node per slot), leaf 1 holds {3,4} (2 slots).  All three
	// jobs run immediately.
	if res.TotalSlots < 3 {
		t.Fatalf("total slots %d, want at least 3", res.TotalSlots)
	}
	for _, j := range res.Jobs {
		if j.WaitSec != 0 {
			t.Fatalf("job %d waited %v on a cluster with free slots", j.ID, j.WaitSec)
		}
	}
}

// fakePredictor predicts from a fixed (target app, co-runner component)
// table, so policy behaviour is pinned without measurements.
type fakePredictor struct {
	table map[string]float64
}

func (fakePredictor) Name() string { return "fake" }

func (f fakePredictor) Predict(target core.Profile, coRunner core.Signature) (float64, error) {
	return f.table[PairKey(target.App, coRunner.Component)], nil
}

// predictorFixture builds a predictor-guided config on a 3-leaf cluster
// (2 nodes per leaf, two one-node slots each) with the given job stream.
func predictorFixture(pred fakePredictor, jobs []JobSpec) Config {
	apps := []string{"Heavy", "Light", "Target", "Blocker"}
	oracle := flatOracle(0.1, 50, apps...)
	oracle.Sigs = map[string]core.Signature{}
	oracle.Profiles = map[string]core.Profile{}
	for _, a := range apps {
		oracle.Sigs[a] = core.Signature{Component: a}
		oracle.Profiles[a] = core.Profile{App: a}
	}
	return Config{
		Machine: testMachine(6, 3),
		Jobs:    jobs,
		Policy:  NewPredictorGuided(pred, oracle),
		Oracle:  oracle,
	}
}

// TestPredictorGuidedPicksCompatibleLeaf: the arriving target avoids
// occupied leaves while an empty one exists, and when forced to co-locate it
// joins the resident its predictor scores cheapest.
func TestPredictorGuidedPicksCompatibleLeaf(t *testing.T) {
	pred := fakePredictor{table: map[string]float64{
		PairKey("Target", "Heavy"): 80,
		PairKey("Heavy", "Target"): 40,
		PairKey("Target", "Light"): 5,
		PairKey("Light", "Target"): 5,
		PairKey("Light", "Heavy"):  30,
		PairKey("Heavy", "Light"):  30,
	}}
	res, err := Run(predictorFixture(pred, []JobSpec{
		{ID: 0, Workload: "Heavy", Slots: 1, Iterations: 100, Arrival: 0},
		{ID: 1, Workload: "Light", Slots: 1, Iterations: 100, Arrival: 0.001},
		{ID: 2, Workload: "Target", Slots: 1, Iterations: 10, Arrival: 0.01},
	}))
	if err != nil {
		t.Fatal(err)
	}
	leafOf := map[string]int{}
	for _, j := range res.Jobs {
		leafOf[j.Workload] = j.Leaf
	}
	// Light's leaf scores within the consolidation margin of the empty
	// leaf, so the target absorbs Light's spare slot and leaves the empty
	// leaf for less compatible arrivals; Heavy's leaf (score 120) is out.
	if leafOf["Target"] == leafOf["Heavy"] {
		t.Fatalf("target joined Heavy's leaf %d", leafOf["Target"])
	}
	if leafOf["Target"] != leafOf["Light"] {
		t.Fatalf("target placed on leaf %d, want to consolidate onto Light's leaf %d",
			leafOf["Target"], leafOf["Light"])
	}

	// Fill the empty leaf with a two-slot blocker: the target must now
	// co-locate and must pick Light (score 10) over Heavy (score 120).
	res, err = Run(predictorFixture(pred, []JobSpec{
		{ID: 0, Workload: "Heavy", Slots: 1, Iterations: 100, Arrival: 0},
		{ID: 1, Workload: "Light", Slots: 1, Iterations: 100, Arrival: 0.001},
		{ID: 2, Workload: "Blocker", Slots: 2, Iterations: 100, Arrival: 0.002},
		{ID: 3, Workload: "Target", Slots: 1, Iterations: 10, Arrival: 0.01},
	}))
	if err != nil {
		t.Fatal(err)
	}
	leafOf = map[string]int{}
	for _, j := range res.Jobs {
		leafOf[j.Workload] = j.Leaf
	}
	if leafOf["Target"] != leafOf["Light"] {
		t.Fatalf("target placed on leaf %d, want Light's leaf %d (Heavy on %d)",
			leafOf["Target"], leafOf["Light"], leafOf["Heavy"])
	}
	var targetDecision Decision
	for _, d := range res.Decisions {
		if d.Workload == "Target" {
			targetDecision = d
		}
	}
	if targetDecision.Score != 10 || targetDecision.Feasible != 2 {
		t.Fatalf("decision log %+v, want score 10 over 2 feasible leaves", targetDecision)
	}
}

// TestPredictorGuidedDefersCatastrophicPlacement: when every feasible leaf
// predicts a heavily contended pairing, the policy waits for a completion
// instead of committing, and the job starts exactly when a resident leaves.
func TestPredictorGuidedDefersCatastrophicPlacement(t *testing.T) {
	pred := fakePredictor{table: map[string]float64{
		PairKey("Target", "Heavy"): 80,
		PairKey("Heavy", "Target"): 40,
		PairKey("Heavy", "Heavy"):  100,
	}}
	cfg := predictorFixture(pred, []JobSpec{
		{ID: 0, Workload: "Heavy", Slots: 1, Iterations: 100, Arrival: 0}, // 10s solo
		{ID: 1, Workload: "Heavy", Slots: 1, Iterations: 200, Arrival: 0.001},
		{ID: 2, Workload: "Heavy", Slots: 1, Iterations: 300, Arrival: 0.002},
		{ID: 3, Workload: "Target", Slots: 1, Iterations: 10, Arrival: 0.01},
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int]JobOutcome{}
	for _, j := range res.Jobs {
		byID[j.ID] = j
	}
	if res.Deferrals == 0 {
		t.Fatal("expected deferrals with only catastrophic placements available")
	}
	if got, want := byID[3].Start, byID[0].End; got != want {
		t.Fatalf("target started at %v, want at the first Heavy's completion %v", got, want)
	}
	if byID[3].Colocated {
		t.Fatal("target should start on the freed leaf, not co-located")
	}
}

func TestPolicyChoices(t *testing.T) {
	cands := []Candidate{
		{Leaf: 0, FreeSlots: 1, UsedSlots: 1, Residents: []string{"A"}},
		{Leaf: 1, FreeSlots: 2, UsedSlots: 0},
		{Leaf: 2, FreeSlots: 1, UsedSlots: 1, Residents: []string{"B"}},
	}
	job := JobSpec{ID: 9, Workload: "C", Slots: 1, Iterations: 1}
	if i, _, _ := (FirstFit{}).Choose(job, cands); i != 0 {
		t.Fatalf("firstfit chose %d, want 0", i)
	}
	if i, _, _ := (Pack{}).Choose(job, cands); i != 0 {
		t.Fatalf("pack chose %d, want 0 (most loaded, lowest index)", i)
	}
	if i, _, _ := (Spread{}).Choose(job, cands); i != 1 {
		t.Fatalf("spread chose %d, want 1 (least loaded)", i)
	}
	r1, r2 := NewRandom(3), NewRandom(3)
	for i := 0; i < 10; i++ {
		a, _, _ := r1.Choose(job, cands)
		b, _, _ := r2.Choose(job, cands)
		if a != b {
			t.Fatal("random policy not deterministic per seed")
		}
	}
}

func TestNewPolicy(t *testing.T) {
	for _, name := range PolicyNames() {
		pred, oracle := fakePredictor{}, flatOracle(1, 0, "A")
		p, err := NewPolicy(name, 1, pred, oracle)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("policy %q reports name %q", name, p.Name())
		}
	}
	if _, err := NewPolicy("greedy", 1, nil, nil); err == nil {
		t.Fatal("expected error for unknown policy")
	}
	if _, err := NewPolicy(PolicyPredictor, 1, nil, nil); err == nil {
		t.Fatal("expected error for predictor policy without a predictor")
	}
}
