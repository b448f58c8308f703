package core

import (
	"testing"

	"github.com/hpcperf/switchprobe/internal/workload"
)

func TestPhaseUtilizationsInSignature(t *testing.T) {
	if testing.Short() {
		t.Skip("phase-resolved campaign is slow; skipped in -short mode")
	}
	o := TestOptions()
	cal := calibrate(t, o)
	sig := *execute(t, AppImpactSpec(o, workload.NewMILC(o.Scale), SlotAll), &cal).Signature
	if len(sig.Phases) == 0 {
		t.Fatal("expected phase-resolved utilization data")
	}
	if len(sig.Phases) > o.PhaseWindows {
		t.Fatalf("phases = %d, want at most %d", len(sig.Phases), o.PhaseWindows)
	}
	totalSamples := 0
	for i, ph := range sig.Phases {
		if ph.UtilizationPct < 0 || ph.UtilizationPct > 100 {
			t.Fatalf("phase %d utilization %v outside [0,100]", i, ph.UtilizationPct)
		}
		if ph.Samples <= 0 {
			t.Fatalf("phase %d has no samples", i)
		}
		if ph.End <= ph.Start {
			t.Fatalf("phase %d has invalid window [%v, %v]", i, ph.Start, ph.End)
		}
		if ph.MeanLatency <= 0 {
			t.Fatalf("phase %d mean latency %v", i, ph.MeanLatency)
		}
		totalSamples += ph.Samples
	}
	if totalSamples != len(sig.Samples) {
		t.Fatalf("phase samples (%d) do not add up to the signature samples (%d)",
			totalSamples, len(sig.Samples))
	}
}

func TestPhaseResolutionDisabled(t *testing.T) {
	o := TestOptions()
	o.PhaseWindows = 0
	cal := calibrate(t, o)
	sig := *execute(t, AppImpactSpec(o, workload.NewMCB(o.Scale), SlotAll), &cal).Signature
	if len(sig.Phases) != 0 {
		t.Fatalf("phases should be absent when disabled, got %d", len(sig.Phases))
	}
}

func TestPhaseWindowsValidation(t *testing.T) {
	o := DefaultOptions()
	o.PhaseWindows = -1
	if err := o.Validate(); err == nil {
		t.Fatal("expected validation error for negative phase windows")
	}
	o.PhaseWindows = 0
	if err := o.Validate(); err != nil {
		t.Fatalf("zero phase windows should be allowed (disabled): %v", err)
	}
}

func TestPhasedAppShowsUtilizationVariation(t *testing.T) {
	// AMG alternates communication-heavy V-cycles with long dense phases, so
	// its per-window utilization should vary more than the idle switch's.
	o := TestOptions()
	cal := calibrate(t, o)
	amg := workload.NewAMG(o.Scale)
	// Make the dense phase long and frequent so phases clearly alternate
	// within the short CI window.
	amg.DensePhaseInterval = 2
	sig := *execute(t, AppImpactSpec(o, amg, SlotAll), &cal).Signature
	if len(sig.Phases) < 2 {
		t.Skipf("not enough phases to compare (%d)", len(sig.Phases))
	}
	lo, hi := 200.0, -1.0
	for _, ph := range sig.Phases {
		if ph.UtilizationPct < lo {
			lo = ph.UtilizationPct
		}
		if ph.UtilizationPct > hi {
			hi = ph.UtilizationPct
		}
	}
	if hi < lo {
		t.Fatalf("no phase data: lo=%v hi=%v", lo, hi)
	}
	// The variation does not need to be large in absolute terms, but the
	// phase machinery must produce distinct values rather than copies of the
	// mean.
	if hi == lo && sig.UtilizationPct > 1 {
		t.Fatalf("all phases identical (%.2f%%) despite non-trivial mean utilization", hi)
	}
}
