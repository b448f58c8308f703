package experiments_test

import (
	"reflect"
	"strings"
	"testing"

	. "github.com/hpcperf/switchprobe/internal/experiments"
	"github.com/hpcperf/switchprobe/internal/netsim"
	"github.com/hpcperf/switchprobe/internal/report"
	"github.com/hpcperf/switchprobe/internal/sched"
	"github.com/hpcperf/switchprobe/internal/sim"
)

// faultedScenario is the faults campaign's CI fabric: the contended 2:1
// fat-tree, whose single uplink per leaf makes every case bite.
func faultedScenario() SchedScenario {
	return SchedScenario{Label: "fattree-2:1", Topology: netsim.FatTree{Leaves: 3, UplinksPerLeaf: 1}}
}

// redundantScenario has two uplinks per leaf, so a single trunk failure
// genuinely fails over instead of partitioning.
func redundantScenario() SchedScenario {
	return SchedScenario{Label: "fattree-1:1", Topology: netsim.FatTree{Leaves: 3, UplinksPerLeaf: 2}}
}

func quickFaultsSpec() FaultsSpec {
	return FaultsSpec{
		Sched: SchedSpec{
			Jobs: 8, Streams: 2,
			Policies:  []string{sched.PolicyPack, sched.PolicyPredictor},
			Scenarios: []SchedScenario{redundantScenario(), faultedScenario()},
		},
	}
}

func TestFaultsSpecValidation(t *testing.T) {
	s := NewSuite(MustNewConfig(PresetCI, 1))
	if _, err := s.Faults(FaultsSpec{MTBF: sim.Millisecond}); err == nil {
		t.Fatal("expected error for MTBF without MTTR")
	}
	if _, err := s.Faults(FaultsSpec{Sched: SchedSpec{
		Scenarios: []SchedScenario{{Label: "star", Topology: netsim.Star{}}},
	}}); err == nil {
		t.Fatal("expected error for a star-only scenario set (no trunks to fail)")
	}
	if _, err := s.Faults(FaultsSpec{Cases: []string{"meteor"}}); err == nil {
		t.Fatal("expected error for an unknown fault case")
	}
	if _, err := s.Faults(FaultsSpec{Cases: []string{FaultCaseMTBF}}); err == nil {
		t.Fatal("expected error for the mtbf case without MTBF/MTTR")
	}
	if _, err := s.Faults(FaultsSpec{Cases: []string{FaultCaseCustom}}); err == nil {
		t.Fatal("expected error for the custom case without a plan")
	}
	// A degrade factor whose MTU serialization overflows the virtual clock
	// is rejected before any case simulates.
	ResetSimUsage()
	overflow := &netsim.FaultPlan{Events: []netsim.FaultEvent{
		{At: sim.Millisecond, Trunk: "leaf0.up0", Kind: netsim.FaultDegrade, Factor: 1e300},
	}}
	_, err := s.Faults(FaultsSpec{Plan: overflow})
	if err == nil || !strings.Contains(err.Error(), "degrade:leaf0.up0@1ms:1e+300") {
		t.Fatalf("expected an upfront error naming the overflowing degrade event, got %v", err)
	}
	if runs := SimUsage().Runs; runs != 0 {
		t.Fatalf("%d simulation runs executed before the bad plan was rejected", runs)
	}
}

// TestFaultsCampaign is the resilience subsystem's acceptance test: the
// campaign produces nonzero failure/retransmit/reroute telemetry, a bounded
// probe slowdown under a degraded uplink, a predictor-guided stretch no worse
// than blind pack on the faulted fabric, and byte-identical results across
// repeat runs.
func TestFaultsCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping faults campaign in -short mode")
	}
	s := NewSuite(MustNewConfig(PresetCI, 1))
	spec := quickFaultsSpec()
	r, err := s.Faults(spec)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(r.Scenarios) * len(r.Cases) * len(r.Policies)
	if len(r.Rows) != wantRows {
		t.Fatalf("%d rows, want %d", len(r.Rows), wantRows)
	}

	down, ok := r.Row("fattree-2:1", FaultCaseDownUp, sched.PolicyPack)
	if !ok {
		t.Fatal("missing downup row")
	}
	if down.TrunksFailed == 0 {
		t.Fatalf("downup failed %d trunks, want > 0", down.TrunksFailed)
	}
	if down.Retransmits == 0 {
		t.Fatal("downup run lost no packets to retransmit; the saturating burst is broken")
	}
	// Failover reroutes need a surviving uplink: the redundant 1:1 fabric
	// must recompute routes, while the single-uplink 2:1 fabric structurally
	// cannot (a down trunk there is a partition, not a detour).
	red, ok := r.Row("fattree-1:1", FaultCaseDownUp, sched.PolicyPack)
	if !ok {
		t.Fatal("missing redundant downup row")
	}
	if red.Reroutes == 0 {
		t.Fatal("downup on the redundant fabric recomputed no routes")
	}
	if down.Reroutes != 0 {
		t.Fatalf("downup on the single-uplink fabric rerouted %d pairs; there is no surviving uplink", down.Reroutes)
	}

	deg, ok := r.Row("fattree-2:1", FaultCaseDegrade, sched.PolicyPack)
	if !ok {
		t.Fatal("missing degrade row")
	}
	if deg.SlowdownPct <= 0 {
		t.Fatalf("degraded uplink slowdown %.2f%%, want positive", deg.SlowdownPct)
	}
	if deg.SlowdownPct > 300 {
		t.Fatalf("degraded uplink slowdown %.2f%% unbounded; factor-2 serialization should stay under 300%%", deg.SlowdownPct)
	}

	part, ok := r.Row("fattree-2:1", FaultCasePartition, sched.PolicyPack)
	if !ok {
		t.Fatal("missing partition row")
	}
	if part.Requeues == 0 {
		t.Fatal("partition case requeued no jobs; the dead-leaf timeline never fired")
	}

	// On the faulted fabric the health-aware predictor must not lose to
	// blind pack.
	for _, c := range r.Cases {
		pg, ok1 := r.Row("fattree-2:1", c, sched.PolicyPredictor)
		pack, ok2 := r.Row("fattree-2:1", c, sched.PolicyPack)
		if !ok1 || !ok2 {
			t.Fatalf("case %s: missing policy rows", c)
		}
		if pg.MeanStretch > pack.MeanStretch*1.0001 {
			t.Fatalf("case %s: predictor mean stretch %.3f above pack %.3f on faulted fabric",
				c, pg.MeanStretch, pack.MeanStretch)
		}
	}

	// Determinism: a second campaign over a fresh suite reproduces every row
	// and renders byte-identical CSV.
	r2, err := NewSuite(MustNewConfig(PresetCI, 1)).Faults(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Rows, r2.Rows) {
		t.Fatal("faults campaign rows differ across runs")
	}
	t1, t2 := report.FaultTable(r), report.FaultTable(r2)
	if !reflect.DeepEqual(t1, t2) {
		t.Fatal("FaultTable differs across identical campaigns")
	}
	if len(t1.Rows) != wantRows {
		t.Fatalf("FaultTable has %d rows, want %d", len(t1.Rows), wantRows)
	}
}

// TestFaultsMTBFCase exercises the generated-failure case end to end: both
// fields set enable the mtbf case, whose failures come from the kernel's
// dedicated fault substream and are reproducible.
func TestFaultsMTBFCase(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping faults campaign in -short mode")
	}
	s := NewSuite(MustNewConfig(PresetCI, 1))
	spec := quickFaultsSpec()
	spec.Cases = []string{FaultCaseMTBF}
	spec.MTBF = 10 * sim.Millisecond
	spec.MTTR = 2 * sim.Millisecond
	r, err := s.Faults(spec)
	if err != nil {
		t.Fatal(err)
	}
	row, ok := r.Row("fattree-2:1", FaultCaseMTBF, sched.PolicyPack)
	if !ok {
		t.Fatal("missing mtbf row")
	}
	if row.TrunksFailed == 0 {
		t.Fatal("mtbf case generated no trunk failures over the window")
	}
	r2, err := NewSuite(MustNewConfig(PresetCI, 1)).Faults(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Rows, r2.Rows) {
		t.Fatal("mtbf campaign rows differ across runs")
	}
}
