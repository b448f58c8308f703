package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/hpcperf/switchprobe/internal/experiments"
	"github.com/hpcperf/switchprobe/internal/report"
)

func TestRunRejectsUnknownPreset(t *testing.T) {
	if err := run([]string{"-preset", "bogus", "-exp", "fig6"}, os.Stdout); err == nil {
		t.Fatal("expected error for unknown preset")
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	err := run([]string{"-preset", "ci", "-exp", "fig99"}, os.Stdout)
	if err == nil {
		t.Fatal("expected error for unknown experiment")
	}
	if !strings.Contains(err.Error(), "valid:") {
		t.Fatalf("error should list the valid experiments: %v", err)
	}
	// Unknown names anywhere in a comma list are rejected before any
	// experiment runs.
	if err := run([]string{"-preset", "ci", "-exp", "fig3,bogus"}, os.Stdout); err == nil {
		t.Fatal("expected error for unknown experiment in list")
	}
}

func TestRunRejectsUnknownTopologyAndPlacement(t *testing.T) {
	err := run([]string{"-preset", "ci", "-exp", "fig3", "-topology", "torus"}, os.Stdout)
	if err == nil {
		t.Fatal("expected error for unknown topology")
	}
	if !strings.Contains(err.Error(), "valid:") {
		t.Fatalf("error should list the valid topologies: %v", err)
	}
	err = run([]string{"-preset", "ci", "-exp", "fig3", "-placement", "diagonal"}, os.Stdout)
	if err == nil {
		t.Fatal("expected error for unknown placement")
	}
	if !strings.Contains(err.Error(), "valid:") {
		t.Fatalf("error should list the valid placements: %v", err)
	}
}

func TestPresetErrorListsChoices(t *testing.T) {
	err := run([]string{"-preset", "bogus", "-exp", "fig3"}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "valid:") {
		t.Fatalf("error should list the valid presets: %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-nosuchflag"}, os.Stdout); err == nil {
		t.Fatal("expected flag parse error")
	}
}

func TestRunOneUnknownName(t *testing.T) {
	suite := experiments.NewSuite(experiments.MustNewConfig(experiments.PresetCI, 1))
	if _, _, err := runOne(suite, "bogus", "FFTW", "VPFFT"); err == nil {
		t.Fatal("expected error for unknown experiment name")
	}
}

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	tbl := report.Table{Headers: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	if err := writeCSV(dir, "demo", tbl); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "demo.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "a,b\n1,2") {
		t.Fatalf("csv content = %q", data)
	}
}

// TestRunCreatesCSVDirUpfront: run creates the -csv directory before any
// experiment, so a path that cannot be a directory fails naming -csv before
// any simulation time is spent, not after the first table is printed.
func TestRunCreatesCSVDirUpfront(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	experiments.ResetSimUsage()
	err := run([]string{"-preset", "ci", "-exp", "fig3", "-csv", file}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "-csv") {
		t.Fatalf("-csv on a regular file: want an error naming -csv, got %v", err)
	}
	if runs := experiments.SimUsage().Runs; runs != 0 {
		t.Fatalf("%d simulation runs executed before the bad -csv was rejected", runs)
	}
}

// TestWarmCacheByteIdentity is the acceptance test of the artifact store: a
// second swprobe run against a warm -cache-dir must execute zero simulation
// runs and emit byte-identical CSVs to the cold run.
func TestWarmCacheByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI runs are slow; skipped in -short mode")
	}
	cache := t.TempDir()
	coldDir, warmDir := t.TempDir(), t.TempDir()
	runInto := func(csvDir string) string {
		t.Helper()
		out, err := os.CreateTemp(t.TempDir(), "out")
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		args := []string{"-preset", "ci", "-exp", "fig3,table1", "-csv", csvDir, "-cache-dir", cache}
		if err := run(args, out); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	coldOut := runInto(coldDir)
	if !strings.Contains(coldOut, "Simulator:") {
		t.Fatalf("cold run reported no simulations:\n%s", coldOut)
	}
	warmOut := runInto(warmDir)
	if strings.Contains(warmOut, "Simulator:") {
		t.Fatalf("warm run still executed simulations:\n%s", warmOut)
	}
	if !strings.Contains(warmOut, " 0 simulated") {
		t.Fatalf("warm run cache line missing zero-simulations signal:\n%s", warmOut)
	}
	for _, name := range []string{"fig3.csv", "table1.csv"} {
		cold, err := os.ReadFile(filepath.Join(coldDir, name))
		if err != nil {
			t.Fatal(err)
		}
		warm, err := os.ReadFile(filepath.Join(warmDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(cold) != string(warm) {
			t.Fatalf("%s differs between cold and warm runs", name)
		}
	}
}

// TestNoCacheMatchesCachedRun: disabling the store must not change results —
// the live path and the cached path stay byte-identical.
func TestNoCacheMatchesCachedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI runs are slow; skipped in -short mode")
	}
	cache := t.TempDir()
	cachedDir, liveDir := t.TempDir(), t.TempDir()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if err := run([]string{"-preset", "ci", "-exp", "fig3", "-csv", cachedDir, "-cache-dir", cache}, devnull); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-preset", "ci", "-exp", "fig3", "-csv", liveDir, "-cache-dir", cache, "-no-cache"}, devnull); err != nil {
		t.Fatal(err)
	}
	cached, err := os.ReadFile(filepath.Join(cachedDir, "fig3.csv"))
	if err != nil {
		t.Fatal(err)
	}
	live, err := os.ReadFile(filepath.Join(liveDir, "fig3.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(cached) != string(live) {
		t.Fatal("fig3.csv differs between cached and -no-cache runs")
	}
}

func TestRunFig6EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI run is slow; skipped in -short mode")
	}
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	csvDir := filepath.Join(t.TempDir(), "x", "y") // run creates nested dirs
	if err := run([]string{"-preset", "ci", "-exp", "fig6", "-seed", "3", "-csv", csvDir}, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "utilization_pct") {
		t.Fatalf("unexpected CLI output:\n%s", data)
	}
	if _, err := os.Stat(filepath.Join(csvDir, "fig6.csv")); err != nil {
		t.Fatalf("csv not written: %v", err)
	}
}

func TestRunValidatesSchedFlags(t *testing.T) {
	err := run([]string{"-preset", "ci", "-exp", "sched", "-policy", "greedy"}, os.Stdout)
	if err == nil {
		t.Fatal("expected error for unknown policy")
	}
	if !strings.Contains(err.Error(), "valid:") || !strings.Contains(err.Error(), "predictor") {
		t.Fatalf("error should list the valid policies: %v", err)
	}
	// "sched" is accepted by the upfront experiment validation (the run
	// itself is exercised by the slow end-to-end test below).
	err = run([]string{"-preset", "ci", "-exp", "sched,bogus"}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "sched") {
		t.Fatalf("experiment validation should mention sched: %v", err)
	}
	// A mean arrival gap that is not finite, is negative, or whose 16-job
	// stream overflows the virtual clock is rejected upfront under both
	// campaigns that read it, with the value in the message: unchecked, NaN
	// and Inf panic in the scheduler, -1 silently runs as 0 (derive from
	// load) and 1e300 reports a mean stretch below 1.
	for _, exp := range []string{"sched", "faults", "fig6,faults"} {
		for _, c := range []struct{ arg, want string }{
			{"NaN", "NaN"}, {"Inf", "+Inf"}, {"-Inf", "-Inf"}, {"-1", "-1"}, {"1e300", "1e+300"}, {"1e12", "1e+12"},
		} {
			err := run([]string{"-preset", "ci", "-exp", exp, "-arrivals", c.arg}, os.Stdout)
			if err == nil || !strings.Contains(err.Error(), "inter-arrival "+c.want+" ms") {
				t.Errorf("-exp %s -arrivals %s: want an error naming %s, got %v", exp, c.arg, c.want, err)
			}
		}
	}
	// A negative job count is rejected before Fig. 3 simulates anything, not
	// by the scheduler after the earlier experiments have run and printed.
	for _, exp := range []string{"fig3,sched", "fig3,faults"} {
		experiments.ResetSimUsage()
		err := run([]string{"-preset", "ci", "-exp", exp, "-jobs", "-3"}, os.Stdout)
		if err == nil || !strings.Contains(err.Error(), "-jobs") || !strings.Contains(err.Error(), "-3") {
			t.Errorf("-exp %s -jobs -3: want an error naming -jobs and -3, got %v", exp, err)
		}
		if runs := experiments.SimUsage().Runs; runs != 0 {
			t.Errorf("-exp %s -jobs -3: %d simulation runs executed before the rejection", exp, runs)
		}
	}
}

// TestRunSchedEndToEnd runs the scheduler campaign through the CLI on the
// contended CI fabric with a trimmed spec, checking the rendered table, the
// summary contrast and the per-policy cache lines.
func TestRunSchedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping sched campaign in -short mode")
	}
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	csvDir := t.TempDir()
	if err := run([]string{
		"-preset", "ci", "-exp", "sched", "-policy", "pack,predictor",
		"-jobs", "8", "-csv", csvDir,
	}, out); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	text := string(blob)
	for _, want := range []string{"Scheduler campaign", "fattree-", "mean_stretch", "Sched cache [pack]", "Sched cache [predictor]"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
	if _, err := os.Stat(filepath.Join(csvDir, "sched.csv")); err != nil {
		t.Fatalf("sched CSV not written: %v", err)
	}
}

// TestRunValidatesExecutionFlags: -workers is not a flag; each simulation
// runs on one goroutine, and -parallel is the one concurrency flag.
func TestRunValidatesExecutionFlags(t *testing.T) {
	err := run([]string{"-preset", "ci", "-exp", "fig3", "-workers", "2"}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -workers") {
		t.Fatalf("-workers should be an unknown flag, got %v", err)
	}
}

// TestRunRejectsNegativeParallel: a negative -parallel is rejected before
// anything simulates rather than read as "all CPUs".
func TestRunRejectsNegativeParallel(t *testing.T) {
	experiments.ResetSimUsage()
	err := run([]string{"-preset", "ci", "-exp", "fig3", "-parallel", "-1"}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "-parallel") || !strings.Contains(err.Error(), "-1") {
		t.Fatalf("-parallel -1: want an error naming -parallel and -1, got %v", err)
	}
	if runs := experiments.SimUsage().Runs; runs != 0 {
		t.Fatalf("-parallel -1: %d simulation runs executed before the rejection", runs)
	}
}

// TestRunParallelByteIdenticalCLI runs the same fat-tree campaign on one
// campaign worker and on four and requires byte-identical CSV output: every
// simulation runs on its own goroutine, so -parallel is pure wall-clock,
// never a model input.
func TestRunParallelByteIdenticalCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI runs are slow; skipped in -short mode")
	}
	runCSV := func(extra ...string) string {
		t.Helper()
		out, err := os.CreateTemp(t.TempDir(), "out")
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		csvDir := t.TempDir()
		args := append([]string{
			"-preset", "ci", "-exp", "fig6", "-seed", "7",
			"-topology", "fattree", "-leaves", "3", "-csv", csvDir,
		}, extra...)
		if err := run(args, out); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(filepath.Join(csvDir, "fig6.csv"))
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	seq := runCSV("-parallel", "1")
	par := runCSV("-parallel", "4")
	if seq != par {
		t.Fatalf("-parallel changed the simulated output:\nsequential:\n%s\nparallel:\n%s", seq, par)
	}
}

// TestObservationByteIdentity is the acceptance test of the telemetry
// contract: running the full campaign set with the metrics server listening
// and trace export enabled must emit CSVs byte-identical to an unobserved
// run, at -parallel 1 and 2 alike.  Telemetry draws no randomness and never
// joins fingerprints, so watching a campaign can never change its results.
func TestObservationByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI runs are slow; skipped in -short mode")
	}
	expList := "fig3,table1,sched,faults"
	csvNames := []string{"fig3.csv", "table1.csv", "sched.csv", "faults.csv"}
	runCampaign := func(parallel int, observe bool) string {
		t.Helper()
		out, err := os.CreateTemp(t.TempDir(), "out")
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		csvDir := t.TempDir()
		args := []string{
			"-preset", "ci", "-exp", expList, "-policy", "pack,predictor",
			"-jobs", "6", "-csv", csvDir, "-parallel", strconv.Itoa(parallel),
		}
		var traceFile string
		if observe {
			traceFile = filepath.Join(t.TempDir(), "trace.json")
			args = append(args,
				"-listen", "127.0.0.1:0",
				"-trace", traceFile,
				"-trace-sample", "64",
			)
		}
		if err := run(args, out); err != nil {
			t.Fatal(err)
		}
		if observe {
			// The exported trace must be well-formed Chrome trace-event JSON
			// with at least one event: the campaign fires kernel, sched and
			// fault emitters.
			blob, err := os.ReadFile(traceFile)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(blob, &doc); err != nil {
				t.Fatalf("trace file is not valid JSON: %v", err)
			}
			if len(doc.TraceEvents) == 0 {
				t.Fatal("trace file holds zero events for a full campaign")
			}
		}
		return csvDir
	}
	// Every run is compared with the first unobserved one, so the CSVs must
	// also match across -parallel values.
	var reference string
	for _, parallel := range []int{1, 2} {
		plain := runCampaign(parallel, false)
		observed := runCampaign(parallel, true)
		if reference == "" {
			reference = plain
		}
		for _, name := range csvNames {
			want, err := os.ReadFile(filepath.Join(reference, name))
			if err != nil {
				t.Fatal(err)
			}
			for _, dir := range []string{plain, observed} {
				got, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if string(want) != string(got) {
					t.Errorf("parallel=%d: %s in %s differs from the unobserved -parallel 1 run", parallel, name, dir)
				}
			}
		}
	}
}

func TestRunValidatesFaultFlags(t *testing.T) {
	// MTBF and MTTR are a pair: either alone is rejected with an example of
	// the valid combination.
	err := run([]string{"-preset", "ci", "-exp", "faults", "-mtbf", "50ms"}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "-mttr") {
		t.Fatalf("-mtbf without -mttr should be rejected upfront: %v", err)
	}
	err = run([]string{"-preset", "ci", "-exp", "faults", "-mttr", "5ms"}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "-mtbf") {
		t.Fatalf("-mttr without -mtbf should be rejected upfront: %v", err)
	}
	// A fault plan on an explicit star is a contradiction: stars have no
	// trunks to fail, and the message must point at the trunked alternative.
	err = run([]string{"-preset", "ci", "-exp", "faults", "-topology", "star",
		"-fault-plan", "down:leaf0.up0@1ms"}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "fattree") {
		t.Fatalf("fault plan on -topology star should be rejected naming fattree: %v", err)
	}
	// Fault flags without the faults campaign do nothing; reject them with
	// the valid combination instead of ignoring them silently.
	err = run([]string{"-preset", "ci", "-exp", "fig3", "-fault-plan", "down:leaf0.up0@1ms"}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "-exp faults") {
		t.Fatalf("fault flags without -exp faults should be rejected upfront: %v", err)
	}
	// Plan syntax errors surface before anything runs.
	err = run([]string{"-preset", "ci", "-exp", "faults", "-fault-plan", "meteor"}, os.Stdout)
	if err == nil {
		t.Fatal("expected error for malformed -fault-plan")
	}
}

// TestRunRejectsBadDegradeFactors: a non-finite degrade factor, or one whose
// degraded MTU serialization overflows the virtual clock, fails upfront with
// an error naming the event (such plans used to run and report a degraded
// trunk as faster, or as not degraded at all).
func TestRunRejectsBadDegradeFactors(t *testing.T) {
	for _, factor := range []string{"Inf", "NaN", "1e300"} {
		t.Run(factor, func(t *testing.T) {
			err := run([]string{"-preset", "ci", "-exp", "faults", "-policy", "pack",
				"-fault-plan", "degrade:leaf0.up0@1ms:" + factor}, os.Stdout)
			if err == nil || !strings.Contains(err.Error(), "degrade:leaf0.up0@1ms:") {
				t.Fatalf("degrade factor %s: want an error naming the event, got %v", factor, err)
			}
		})
	}
}

// TestRunFaultsEndToEnd runs the resilience campaign through the CLI twice
// and requires nonzero fault telemetry plus byte-identical CSV output: the
// whole campaign, faults included, is a pure function of the seed.
func TestRunFaultsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping faults campaign in -short mode")
	}
	runCSV := func() (string, string) {
		t.Helper()
		out, err := os.CreateTemp(t.TempDir(), "out")
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		csvDir := t.TempDir()
		if err := run([]string{
			"-preset", "ci", "-exp", "faults", "-policy", "pack,predictor",
			"-jobs", "6", "-csv", csvDir,
		}, out); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(filepath.Join(csvDir, "faults.csv"))
		if err != nil {
			t.Fatal(err)
		}
		text, err := os.ReadFile(out.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(blob), string(text)
	}
	csv1, text := runCSV()
	for _, want := range []string{"Resilience campaign", "downup", "degrade", "partition", "trunks_failed", "faults:", "retransmits"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
	csv2, _ := runCSV()
	if csv1 != csv2 {
		t.Fatalf("faults campaign CSV differs across runs:\nfirst:\n%s\nsecond:\n%s", csv1, csv2)
	}
}
