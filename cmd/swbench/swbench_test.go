package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"github.com/hpcperf/switchprobe/internal/engine"
	"github.com/hpcperf/switchprobe/internal/experiments"
)

var update = flag.Bool("update", false, "regenerate testdata/reference.json (runs every workload at full size for seeds 1 and 2)")

// TestMain lets the test binary serve as the benchmark's child process:
// the smoke test's parent re-executes it with roleEnv set.
func TestMain(m *testing.M) {
	if role := os.Getenv(roleEnv); role != "" {
		os.Exit(childMain(role, os.Args[1:]))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the code from
// drifting apart: the same workloads, metrics, units, directions and bounds.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %+v\ncode           %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %+v\ncode           %+v", b.PerLayer, perLayer)
	}
}

// TestSmoke runs every workload at tiny size through the real parent/child
// path and checks that every metric BENCHMARK.json names is printed with its
// unit, and that the result line carries exactly the contract's keys.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload in child processes")
	}
	b := readBenchmarkFile(t)
	work := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out := runOK(t, "-workload", w.name, "-size", "tiny", "-iterations", "2", "-trace", "1", "-work", work)
			for _, d := range append(append([]metricDef{}, b.EndToEnd...), b.PerLayer...) {
				re := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(d.Name) + ` .* ` + regexp.QuoteMeta(d.Unit) + `( |$)`)
				if !re.MatchString(out) {
					t.Errorf("report does not print %s with unit %s", d.Name, d.Unit)
				}
			}
			line := resultOf(t, out, b.PerLayer)
			if line.Attempted != 2 || line.Failed != 0 || !line.Correct {
				t.Errorf("result line %+v, want 2 correct iterations", line)
			}
			shares := 0.0
			for _, bucket := range shareBuckets {
				shares += line.Metrics["share."+bucket].Value
			}
			if math.Abs(shares-100) > 1 {
				t.Errorf("share.* sums to %.2f%%", shares)
			}
			spans, err := os.ReadFile(filepath.Join(work, fmt.Sprintf("spans-%s-seed1.json", w.name)))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct{ TraceEvents []traceEvent }
			if err := json.Unmarshal(spans, &trace); err != nil || len(trace.TraceEvents) == 0 {
				t.Errorf("spans file: %d events, %v", len(trace.TraceEvents), err)
			}
		})
	}
	t.Run("untraced", func(t *testing.T) {
		out := runOK(t, "-workload", "fig3-probe", "-size", "tiny", "-iterations", "1", "-work", work)
		line := resultOf(t, out, b.EndToEnd)
		for _, d := range b.EndToEnd {
			if line.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s = %v, want a positive measurement", d.Name, line.Metrics[d.Name].Value)
			}
		}
	})
}

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out, io.Discard); err != nil {
		t.Fatalf("swbench %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

// resultOf parses the last output line and checks it names exactly defs.
func resultOf(t *testing.T, out string, defs []metricDef) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, lines[len(lines)-1])
	}
	if len(line.Metrics) != len(defs) {
		t.Errorf("result line has %d metrics, want %d", len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("result line: %s = %+v, want unit %s", d.Name, m, d.Unit)
		}
	}
	return line
}

func TestFailedChecksMakeTheRunIncorrect(t *testing.T) {
	rep := childReport{
		Iterations: []iterSample{{WallS: 1}, {WallS: 1, Failed: true}},
		Failures:   []string{"result digest changed"},
	}
	res := summarize(rep, []float64{0.01}, false)
	if res.line.Correct || res.line.Attempted != 2 || res.line.Failed != 1 {
		t.Errorf("result line %+v, want 1 of 2 failed and incorrect", res.line)
	}
	if err := run([]string{"-trace", "2"}, io.Discard, io.Discard); err == nil {
		t.Error("-trace 2 accepted")
	}
}

// TestReference checks the reference bands cover every workload for seeds
// 1 and 2.  With -update it first regenerates them by running every
// workload at full size.
func TestReference(t *testing.T) {
	if *update {
		refs := references{}
		for _, seed := range []int64{1, 2} {
			key := fmt.Sprint(seed)
			refs[key] = map[string]summary{}
			for _, w := range workloads {
				cfg, err := w.config(seed, false)
				if err != nil {
					t.Fatal(err)
				}
				s := experiments.NewSuiteWithEngine(cfg, engine.MustNew(""))
				out, err := w.run(s, seed, false, untraced)
				if err != nil {
					t.Fatalf("%s seed %d: %v", w.name, seed, err)
				}
				refs[key][w.name] = out.sum
			}
		}
		data, err := json.MarshalIndent(refs, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "reference.json"), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		referenceJSON = data
	}
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2} {
		for _, w := range workloads {
			ref, ok := refs.lookup(seed, w.name)
			if !ok {
				t.Errorf("no reference for %s seed %d", w.name, seed)
				continue
			}
			if bad := ref.finite(); len(bad) > 0 {
				t.Errorf("%s seed %d: %v", w.name, seed, bad)
			}
		}
	}
}

func TestBandViolations(t *testing.T) {
	ref := summary{
		Fig3Mean: map[string]float64{"No App": 1.0},
		Fig3Freq: map[string][]float64{"No App": {50, 50, 0}},
		Table1:   map[string]float64{"FFTW+FFTW": 50, "MCB+MCB": 1},
		XSwitch:  map[string]float64{"uplinks=1/spread": 60},
		Sched:    map[string]float64{"star/pack": 1.2},
		Faults: map[string]faultValues{"fattree-2:1/downup/pack": {
			TrunksFailed: 1, Reroutes: 0, Retransmits: 100, Requeues: 0, SlowdownPct: 30, MeanStretch: 1.3,
		}},
	}
	within := summary{
		Fig3Mean: map[string]float64{"No App": 1.5},                   // ±0.6
		Fig3Freq: map[string][]float64{"No App": {40, 60, 0}},         // CDF gap 0.10
		Table1:   map[string]float64{"FFTW+FFTW": 69, "MCB+MCB": 4.9}, // ±20, ±4
		XSwitch:  map[string]float64{"uplinks=1/spread": 40},          // ±21
		Sched:    map[string]float64{"star/pack": 1.28},               // ±0.144
		Faults: map[string]faultValues{"fattree-2:1/downup/pack": {
			TrunksFailed: 1, Reroutes: 0, Retransmits: 159, Requeues: 0, SlowdownPct: 43, MeanStretch: 1.2,
		}},
	}
	if v := bandViolations(ref, within); len(v) > 0 {
		t.Errorf("values inside the bands reported: %v", v)
	}
	outside := summary{
		Fig3Mean: map[string]float64{"No App": 1.7},
		Fig3Freq: map[string][]float64{"No App": {20, 80, 0}},
		Table1:   map[string]float64{"FFTW+FFTW": 71},
		XSwitch:  map[string]float64{"uplinks=1/spread": 38},
		Sched:    map[string]float64{"star/pack": 1.4},
		Faults: map[string]faultValues{"fattree-2:1/downup/pack": {
			TrunksFailed: 2, Reroutes: 0, Retransmits: 161, Requeues: 0, SlowdownPct: 44, MeanStretch: 1.5,
		}},
	}
	// fig3 mean, fig3 CDF, table1 FFTW+FFTW, table1 MCB+MCB missing,
	// xswitch, sched, and four fault checks.
	if v := bandViolations(ref, outside); len(v) != 10 {
		t.Errorf("got %d violations, want 10: %v", len(v), strings.Join(v, "; "))
	}
}
