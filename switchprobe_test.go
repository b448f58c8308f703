package switchprobe

import (
	"testing"
)

func TestFacadeOptionsAndApplications(t *testing.T) {
	if DefaultOptions().Machine.Nodes() != 18 {
		t.Fatalf("default machine nodes = %d", DefaultOptions().Machine.Nodes())
	}
	if ReducedOptions().Machine.Nodes() != 6 {
		t.Fatalf("reduced machine nodes = %d", ReducedOptions().Machine.Nodes())
	}
	apps := Applications(ReducedScale(0.1))
	if len(apps) != 6 {
		t.Fatalf("applications = %d", len(apps))
	}
	names := ApplicationNames()
	for i, a := range apps {
		if a.Name() != names[i] {
			t.Fatalf("app %d = %s, want %s", i, a.Name(), names[i])
		}
	}
	if _, err := ApplicationByName("FFTW", FullScale); err != nil {
		t.Fatal(err)
	}
	if _, err := ApplicationByName("bogus", FullScale); err == nil {
		t.Fatal("expected error for unknown application")
	}
}

func TestFacadeInjectorAndPredictors(t *testing.T) {
	if got := len(InjectorGrid()); got != 40 {
		t.Fatalf("injector grid = %d", got)
	}
	if got := len(ReducedInjectorGrid()); got == 0 || got >= 40 {
		t.Fatalf("reduced injector grid = %d", got)
	}
	cfg := NewInjectorConfig(7, 10, 2.5e4)
	if cfg.Partners != 7 || cfg.Messages != 10 {
		t.Fatalf("injector config = %+v", cfg)
	}
	preds := Predictors()
	if len(preds) != 4 {
		t.Fatalf("predictors = %d", len(preds))
	}
	if _, err := PredictorByName("Queue"); err != nil {
		t.Fatal(err)
	}
	if _, err := PredictorByName("bogus"); err == nil {
		t.Fatal("expected error for unknown predictor")
	}
}

func TestFacadeExperimentConfig(t *testing.T) {
	for _, preset := range []Preset{PresetPaper, PresetDefault, PresetCI} {
		cfg, err := NewExperimentConfig(preset, 3)
		if err != nil {
			t.Fatalf("%s: %v", preset, err)
		}
		if NewSuite(cfg) == nil {
			t.Fatalf("%s: nil suite", preset)
		}
	}
	if _, err := NewExperimentConfig("bogus", 1); err == nil {
		t.Fatal("expected error for unknown preset")
	}
}

func TestFacadeDegradationPercent(t *testing.T) {
	base := Runtime{TimePerIteration: 200}
	obs := Runtime{TimePerIteration: 300}
	if got := DegradationPercent(base, obs); got != 50 {
		t.Fatalf("degradation = %v", got)
	}
}

// TestBuildProfileReusesInjectorSignatures: BuildProfile takes an injector
// signature the caller already holds instead of measuring it again.
func TestBuildProfileReusesInjectorSignatures(t *testing.T) {
	if testing.Short() {
		t.Skip("profile measurement is slow; skipped in -short mode")
	}
	opts := ReducedOptions()
	cal, err := Calibrate(opts)
	if err != nil {
		t.Fatal(err)
	}
	app, err := ApplicationByName("MCB", opts.Scale)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewInjectorConfig(1, 1, 2.5e6)
	held := Signature{Component: cfg.Label(), UtilizationPct: 42.5, Mean: 3e-6, StdDev: 1e-6}
	prof, err := BuildProfile(opts, cal, app, []InjectorConfig{cfg}, map[string]Signature{cfg.Label(): held})
	if err != nil {
		t.Fatal(err)
	}
	if p := prof.Points[0]; p.UtilizationPct != held.UtilizationPct || p.ImpactMean != held.Mean {
		t.Fatalf("profile point %+v did not take the held signature %+v", p, held)
	}
}

func TestFacadeMeasurementWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement workflow is slow; skipped in -short mode")
	}
	opts := ReducedOptions()
	cal, err := Calibrate(opts)
	if err != nil {
		t.Fatal(err)
	}
	app, err := ApplicationByName("MCB", opts.Scale)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := MeasureAppImpact(opts, cal, app)
	if err != nil {
		t.Fatal(err)
	}
	if sig.Component != "MCB" || sig.UtilizationPct < 0 || sig.UtilizationPct > 100 {
		t.Fatalf("signature = %+v", sig)
	}
	base, err := MeasureAppBaseline(opts, app)
	if err != nil {
		t.Fatal(err)
	}
	under, err := MeasureAppUnderInjector(opts, app, NewInjectorConfig(4, 1, 2.5e6))
	if err != nil {
		t.Fatal(err)
	}
	if DegradationPercent(base, under) < -20 {
		t.Fatalf("implausible speedup under interference: base=%v under=%v", base, under)
	}
	prof, err := BuildProfile(opts, cal, app, []InjectorConfig{NewInjectorConfig(1, 1, 2.5e6)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := EvaluatePair(Predictors(), prof, sig, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pp.PredictedPct) != 4 {
		t.Fatalf("pair prediction = %+v", pp)
	}
}
