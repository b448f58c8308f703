package experiments_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	. "github.com/hpcperf/switchprobe/internal/experiments"
	"github.com/hpcperf/switchprobe/internal/netsim"
	"github.com/hpcperf/switchprobe/internal/report"
	"github.com/hpcperf/switchprobe/internal/sched"
)

func TestDefaultSchedScenarios(t *testing.T) {
	scens := DefaultSchedScenarios(6)
	if len(scens) != 3 {
		t.Fatalf("got %d scenarios, want 3", len(scens))
	}
	if scens[0].Label != "star" {
		t.Fatalf("first scenario %q, want star", scens[0].Label)
	}
	ft, ok := scens[2].Topology.(netsim.FatTree)
	if !ok || ft.Oversubscription(6) <= 1 {
		t.Fatalf("last scenario %+v, want an oversubscribed fat-tree", scens[2])
	}
	for _, nodes := range []int{6, 18, 8} {
		for _, sc := range DefaultSchedScenarios(nodes) {
			if sc.Topology == nil {
				continue
			}
			if ft, ok := sc.Topology.(netsim.FatTree); ok {
				if _, err := ft.Build(nodes); err != nil {
					t.Fatalf("scenario %s invalid for %d nodes: %v", sc.Label, nodes, err)
				}
			}
		}
	}
	// Tiny machines cannot oversubscribe one-node leaves: the contended
	// scenario is dropped instead of duplicating the 1:1 fabric, and labels
	// stay unique.
	for _, nodes := range []int{2, 3, 4} {
		scens := DefaultSchedScenarios(nodes)
		seen := map[string]bool{}
		for _, sc := range scens {
			if seen[sc.Label] {
				t.Fatalf("duplicate scenario label %q for %d nodes", sc.Label, nodes)
			}
			seen[sc.Label] = true
		}
	}
}

func TestSchedRejectsUnknownInputs(t *testing.T) {
	s := NewSuite(MustNewConfig(PresetCI, 1))
	if _, err := s.Sched(SchedSpec{Apps: []string{"NoSuchApp"}}); err == nil {
		t.Fatal("expected error for unknown app")
	}
	if _, err := s.Sched(SchedSpec{Predictor: "NoSuchModel"}); err == nil {
		t.Fatal("expected error for unknown predictor")
	}
	if _, err := s.Sched(SchedSpec{Policies: []string{"greedy"}, Scenarios: []SchedScenario{{Label: "star"}}}); err == nil {
		t.Fatal("expected error for unknown policy")
	}
	// Both campaigns reject a bad mean arrival gap or a negative job count
	// before any scenario simulates, naming the value.
	ResetSimUsage()
	type badSpec struct {
		spec SchedSpec
		want string
	}
	bad := []badSpec{{SchedSpec{Jobs: -3}, "job count -3"}}
	for _, gap := range []float64{math.NaN(), math.Inf(1), -1, 1e300} {
		bad = append(bad, badSpec{SchedSpec{MeanInterarrivalMs: gap}, fmt.Sprintf("inter-arrival %v ms", gap)})
	}
	for _, c := range bad {
		if _, err := s.Sched(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Sched: want an error naming %q, got %v", c.want, err)
		}
		if _, err := s.Faults(FaultsSpec{Sched: c.spec}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Faults: want an error naming %q, got %v", c.want, err)
		}
	}
	if runs := SimUsage().Runs; runs != 0 {
		t.Fatalf("%d simulation runs executed before the bad specs were rejected", runs)
	}
}

// contendedScenario is the campaign's headline fabric at CI scale: a 3-leaf
// fat-tree with one uplink per leaf, i.e. 2:1 oversubscription on 6 nodes.
func contendedScenario() SchedScenario {
	return SchedScenario{Label: "fattree-2:1", Topology: netsim.FatTree{Leaves: 3, UplinksPerLeaf: 1}}
}

// TestSchedPredictorGuidedWinsOnContendedFabric is the subsystem's
// acceptance property: on the oversubscribed fat-tree, the
// predictor-in-the-loop policy achieves lower mean job stretch than both
// blind placements it is judged against, and its runs resolve every
// coefficient from the engine without extra simulations after the prefetch.
// The campaign is BenchmarkSchedCampaign's, so it also holds the cold
// simulations to the cut-through budget: the fast path elides work, and at
// least as many events as the kernel fires.
func TestSchedPredictorGuidedWinsOnContendedFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping sched campaign in -short mode")
	}
	s := NewSuite(MustNewConfig(PresetCI, 1))
	ResetSimUsage()
	r, err := s.Sched(SchedSpec{Scenarios: []SchedScenario{contendedScenario()}})
	if err != nil {
		t.Fatal(err)
	}
	if u := SimUsage(); u.EventsElided <= 0 || u.EventsElided < u.EventsFired {
		t.Errorf("cut-through elided %d events against %d fired; want > 0 and >= fired", u.EventsElided, u.EventsFired)
	}
	pg, ok1 := r.MeanStretch("fattree-2:1", sched.PolicyPredictor)
	pack, ok2 := r.MeanStretch("fattree-2:1", sched.PolicyPack)
	spread, ok3 := r.MeanStretch("fattree-2:1", sched.PolicySpread)
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("missing policy rows in %+v", r.Scenarios)
	}
	if pg >= pack || pg >= spread {
		t.Fatalf("predictor mean stretch %.3f not below pack %.3f and spread %.3f", pg, pack, spread)
	}
	for _, row := range r.Rows {
		if row.Cache.Simulated > 0 {
			t.Fatalf("policy %s run executed %d simulations; prefetch incomplete", row.Policy, row.Cache.Simulated)
		}
		if row.OracleMisses > 0 {
			t.Fatalf("policy %s run missed the oracle memo %d times; prefetch incomplete", row.Policy, row.OracleMisses)
		}
		if row.OracleLookups == 0 {
			t.Fatalf("policy %s run reported no coefficient lookups", row.Policy)
		}
		if row.Jobs != r.Spec.Streams*r.Spec.Jobs {
			t.Fatalf("row %s/%s pooled %d jobs, want %d", row.Scenario, row.Policy, row.Jobs, r.Spec.Streams*r.Spec.Jobs)
		}
	}
}

// TestSchedDeterministicCSVAcrossRuns extends the determinism regression to
// the scheduler campaign: under a fixed seed, two fresh suites must render
// byte-identical CSVs on the star and on the oversubscribed fat-tree.
func TestSchedDeterministicCSVAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping sched determinism regression in -short mode")
	}
	spec := SchedSpec{
		Apps:      []string{"FFTW", "MCB", "VPFFT"},
		Scenarios: []SchedScenario{{Label: "star"}, contendedScenario()},
	}
	render := func() []byte {
		s := NewSuite(MustNewConfig(PresetCI, 1))
		r, err := s.Sched(spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.SchedTable(r).WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := render(), render(); !bytes.Equal(a, b) {
		t.Fatal("sched campaign CSV differs between runs with the same seed")
	}
}
