package core

import (
	"strings"
	"testing"

	"github.com/hpcperf/switchprobe/internal/inject"
	"github.com/hpcperf/switchprobe/internal/sim"
	"github.com/hpcperf/switchprobe/internal/workload"
)

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := TestOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Options){
		func(o *Options) { o.Window = 0 },
		func(o *Options) { o.WarmupIterations = -1 },
		func(o *Options) { o.MinIterations = 0 },
		func(o *Options) { o.MinProbeSamples = 1 },
		func(o *Options) { o.HistBins = 0 },
		func(o *Options) { o.HistHiMicros = 0 },
		func(o *Options) { o.Machine.ClockHz = 0 },
		func(o *Options) { o.MPI.ControlBytes = 0 },
		func(o *Options) { o.Probe.MessageBytes = 0 },
	}
	for i, mutate := range mutations {
		o := DefaultOptions()
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestWithSeedAndRunSeeds(t *testing.T) {
	o := DefaultOptions()
	o2 := o.WithSeed(99)
	if o2.Seed != 99 || o.Seed == 99 {
		t.Fatal("WithSeed should not mutate the receiver")
	}
	if o.runSeed("a") == o.runSeed("b") {
		t.Fatal("different labels must give different run seeds")
	}
	if o.runSeed("a") != o.runSeed("a") {
		t.Fatal("same label must give the same run seed")
	}
	if o.runSeed("a") == o2.runSeed("a") {
		t.Fatal("different base seeds must give different run seeds")
	}
}

func TestDegradationPercent(t *testing.T) {
	base := Runtime{TimePerIteration: 1000}
	obs := Runtime{TimePerIteration: 1500}
	if got := DegradationPercent(base, obs); got != 50 {
		t.Fatalf("degradation = %v, want 50", got)
	}
	if got := DegradationPercent(Runtime{}, obs); got != 0 {
		t.Fatalf("degenerate baseline should give 0, got %v", got)
	}
	faster := Runtime{TimePerIteration: 900}
	if got := DegradationPercent(base, faster); got != -10 {
		t.Fatalf("speedup should be negative degradation, got %v", got)
	}
}

func TestProfileDegradationAt(t *testing.T) {
	p := Profile{
		App: "X",
		Points: []ProfilePoint{
			{UtilizationPct: 80, DegradationPct: 100},
			{UtilizationPct: 20, DegradationPct: 10},
			{UtilizationPct: 50, DegradationPct: 40},
		},
	}
	cases := []struct{ u, want float64 }{
		{20, 10}, {50, 40}, {80, 100}, {35, 25}, {0, 10}, {95, 100},
	}
	for _, c := range cases {
		got, err := p.DegradationAt(c.u)
		if err != nil {
			t.Fatal(err)
		}
		if diff := got - c.want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("DegradationAt(%v) = %v, want %v", c.u, got, c.want)
		}
	}
	if _, err := (Profile{App: "empty"}).DegradationAt(50); err == nil {
		t.Fatal("expected error for empty profile")
	}
}

// execute runs spec live, failing the test on error.
func execute(t *testing.T, spec RunSpec, cal *Calibration) Artifact {
	t.Helper()
	art, err := ExecuteSpec(spec, cal)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// calibrate measures the idle switch under o.
func calibrate(t *testing.T, o Options) Calibration {
	t.Helper()
	return *execute(t, CalibrateSpec(o), nil).Calibration
}

func TestCalibrate(t *testing.T) {
	cal := calibrate(t, TestOptions())
	meanMicros := cal.Idle.Mean * 1e6
	if meanMicros < 0.9 || meanMicros > 2.5 {
		t.Fatalf("idle mean %.3f µs outside the expected Cab-like band", meanMicros)
	}
	if cal.Service.Mu <= 0 || cal.Service.VarS < 0 {
		t.Fatalf("invalid service model %+v", cal.Service)
	}
	if cal.Idle.Hist == nil || cal.Idle.Hist.Total() == 0 {
		t.Fatal("idle histogram empty")
	}
	if len(cal.Idle.Samples) < TestOptions().MinProbeSamples {
		t.Fatalf("too few idle samples: %d", len(cal.Idle.Samples))
	}
	// The idle switch should be reported as lightly utilized.
	if cal.Idle.UtilizationPct > 35 {
		t.Fatalf("idle utilization %.1f%% unreasonably high", cal.Idle.UtilizationPct)
	}
}

func TestSignatureTooFewSamples(t *testing.T) {
	o := TestOptions()
	o.Window = 300 * sim.Microsecond // far too short for MinProbeSamples
	_, err := ExecuteSpec(CalibrateSpec(o), nil)
	if err == nil || !strings.Contains(err.Error(), "probe samples") {
		t.Fatalf("expected too-few-samples error, got %v", err)
	}
}

func TestInjectorUtilizationOrdering(t *testing.T) {
	o := TestOptions()
	cal := calibrate(t, o)
	light := *execute(t, InjectorImpactSpec(o, inject.NewConfig(1, 1, 2.5e7)), &cal).Signature
	heavy := *execute(t, InjectorImpactSpec(o, inject.NewConfig(7, 10, 2.5e4)), &cal).Signature
	if heavy.UtilizationPct <= light.UtilizationPct {
		t.Fatalf("heavy injector utilization (%.1f%%) not above light (%.1f%%)",
			heavy.UtilizationPct, light.UtilizationPct)
	}
	if heavy.Mean <= light.Mean {
		t.Fatalf("heavy injector mean latency (%.3g) not above light (%.3g)", heavy.Mean, light.Mean)
	}
	if heavy.UtilizationPct < 30 {
		t.Fatalf("heavy injector utilization only %.1f%%; expected substantial switch usage", heavy.UtilizationPct)
	}
	if light.UtilizationPct > 50 {
		t.Fatalf("light injector utilization %.1f%%; expected a lightly used switch", light.UtilizationPct)
	}
}

func TestAppBaselineAndSignature(t *testing.T) {
	if testing.Short() {
		t.Skip("full baseline+signature campaign is slow; skipped in -short mode")
	}
	o := TestOptions()
	cal := calibrate(t, o)
	fftw := workload.NewFFTW(o.Scale)
	base := *execute(t, BaselineSpec(o, fftw, SlotAll), nil).Runtime
	if base.Iterations < o.MinIterations || base.TimePerIteration <= 0 {
		t.Fatalf("bad baseline %+v", base)
	}
	sig := *execute(t, AppImpactSpec(o, fftw, SlotAll), &cal).Signature
	if sig.Component != "FFTW" {
		t.Fatalf("component = %q", sig.Component)
	}
	// A communication-heavy application must raise probe latency above idle.
	if sig.Mean <= cal.Idle.Mean {
		t.Fatalf("FFTW impact mean (%.3g) not above idle (%.3g)", sig.Mean, cal.Idle.Mean)
	}
	if sig.UtilizationPct <= cal.Idle.UtilizationPct {
		t.Fatalf("FFTW utilization (%.1f%%) not above idle (%.1f%%)",
			sig.UtilizationPct, cal.Idle.UtilizationPct)
	}
}

func TestCompressionDegradationOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("compression campaign is slow; skipped in -short mode")
	}
	o := TestOptions()
	fftw := workload.NewFFTW(o.Scale)
	mcb := workload.NewMCB(o.Scale)
	heavy := inject.NewConfig(7, 10, 2.5e4)

	baseFFTW := *execute(t, BaselineSpec(o, fftw, SlotAll), nil).Runtime
	degFFTW := *execute(t, CompressSpec(o, fftw, heavy, SlotAll), nil).Runtime
	baseMCB := *execute(t, BaselineSpec(o, mcb, SlotAll), nil).Runtime
	degMCB := *execute(t, CompressSpec(o, mcb, heavy, SlotAll), nil).Runtime
	dFFTW := DegradationPercent(baseFFTW, degFFTW)
	dMCB := DegradationPercent(baseMCB, degMCB)
	if dFFTW < 20 {
		t.Fatalf("FFTW degradation under heavy injection only %.1f%%; expected substantial slowdown", dFFTW)
	}
	if dMCB > dFFTW/2 {
		t.Fatalf("MCB degradation (%.1f%%) should be far below FFTW's (%.1f%%)", dMCB, dFFTW)
	}
}

func TestMeasureAppPairSelfCoRun(t *testing.T) {
	if testing.Short() {
		t.Skip("co-run campaign is slow; skipped in -short mode")
	}
	o := TestOptions()
	fftw := workload.NewFFTW(o.Scale)
	base := *execute(t, BaselineSpec(o, fftw, SlotAll), nil).Runtime
	pair := execute(t, PairSpec(o, fftw, fftw, false), nil)
	ra, rb := *pair.Runtime, *pair.RuntimeB
	if ra.App != "FFTW" || rb.App != "FFTW" {
		t.Fatalf("apps = %q/%q", ra.App, rb.App)
	}
	da := DegradationPercent(base, ra)
	db := DegradationPercent(base, rb)
	// Two copies of the most network-hungry application must slow each other
	// down measurably (Table I reports 45% on Cab).
	if da < 5 || db < 5 {
		t.Fatalf("self co-run degradations too small: %.1f%% / %.1f%%", da, db)
	}
}

func TestBuildProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profile campaign is slow; skipped in -short mode")
	}
	o := TestOptions()
	cal := calibrate(t, o)
	grid := []inject.Config{
		inject.NewConfig(1, 1, 2.5e7),
		inject.NewConfig(7, 10, 2.5e4),
	}
	live := func(spec RunSpec) (Artifact, error) { return ExecuteSpec(spec, &cal) }
	prof, err := AssembleProfile(live, o, workload.NewMILC(o.Scale), grid, SlotAll)
	if err != nil {
		t.Fatal(err)
	}
	if prof.App != "MILC" || len(prof.Points) != 2 {
		t.Fatalf("profile = %+v", prof)
	}
	light, heavy := prof.Points[0], prof.Points[1]
	if heavy.UtilizationPct <= light.UtilizationPct {
		t.Fatalf("utilization not ordered: %.1f vs %.1f", light.UtilizationPct, heavy.UtilizationPct)
	}
	if heavy.DegradationPct <= light.DegradationPct {
		t.Fatalf("degradation not ordered: %.1f vs %.1f", light.DegradationPct, heavy.DegradationPct)
	}
	if _, err := prof.DegradationAt(50); err != nil {
		t.Fatal(err)
	}
}

// TestBuildProfileReusesSignatures: AssembleProfile takes each injector
// signature from its executor, so one the caller already holds is reused.
func TestBuildProfileReusesSignatures(t *testing.T) {
	o := TestOptions()
	cal := calibrate(t, o)
	cfg := inject.NewConfig(1, 1, 2.5e6)
	sig := *execute(t, InjectorImpactSpec(o, cfg), &cal).Signature
	reuse := func(spec RunSpec) (Artifact, error) {
		if spec.Kind == RunInjectorImpact {
			return Artifact{Signature: &sig}, nil
		}
		return ExecuteSpec(spec, nil)
	}
	prof, err := AssembleProfile(reuse, o, workload.NewMCB(o.Scale), []inject.Config{cfg}, SlotAll)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Points[0].UtilizationPct != sig.UtilizationPct {
		t.Fatal("precomputed signature not reused")
	}
}

func TestMeanStdInterval(t *testing.T) {
	s := Signature{Mean: 10, StdDev: 2}
	iv := s.MeanStdInterval()
	if iv.Lo != 8 || iv.Hi != 12 {
		t.Fatalf("interval = %+v", iv)
	}
}

func TestDeterministicMeasurements(t *testing.T) {
	o := TestOptions()
	a := *execute(t, BaselineSpec(o, workload.NewAMG(o.Scale), SlotAll), nil).Runtime
	b := *execute(t, BaselineSpec(o, workload.NewAMG(o.Scale), SlotAll), nil).Runtime
	if a.TimePerIteration != b.TimePerIteration || a.Iterations != b.Iterations {
		t.Fatalf("non-deterministic baseline: %+v vs %+v", a, b)
	}
}
