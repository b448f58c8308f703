// Command benchjson runs the repository's Go benchmarks and writes the
// results as machine-readable JSON, so the performance trajectory of the
// simulator is tracked in-repo (BENCH_PR10.json, and its predecessors per
// PR) instead of in commit messages.
//
// Usage:
//
//	benchjson [-bench REGEX] [-preset ci|default|paper] [-benchtime 1x]
//	          [-count N] [-out FILE]
//
// It shells out to `go test -bench ./...` in the repository (so the numbers
// are exactly what a developer reproduces by hand), parses the standard
// benchmark output format including custom b.ReportMetric columns (the
// headline benchmarks report events_fired/op, events_elided/op,
// fast_resumes/op, ledger_clamps/op and events/s), and writes:
//
//	{
//	  "preset": "ci",
//	  "go": "go1.xx",
//	  "benchmarks": {
//	    "BenchmarkFig3PacketLatencies": {
//	      "iterations": 3,
//	      "ns_per_op": 7.2e8,
//	      "metrics": {"events_fired/op": ..., "fast_resumes/op": ..., "events/s": ...}
//	    }, ...
//	  }
//	}
//
// With -count > 1 the minimum ns/op across repetitions is kept (the least
// noisy estimator on a shared machine); custom metrics come from the same
// repetition.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// BenchResult is one benchmark's parsed outcome.
type BenchResult struct {
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Report is the file layout of BENCH_PR10.json.
type Report struct {
	Preset     string                 `json:"preset"`
	Go         string                 `json:"go"`
	Benchmarks map[string]BenchResult `json:"benchmarks"`
}

func main() {
	bench := flag.String("bench", "Fig3PacketLatencies|Table1PairSlowdowns|Table1StrictOrder|Table1Traced|SchedCampaign|BulkTraffic|FaultTraffic", "benchmark regexp passed to go test -bench")
	preset := flag.String("preset", "ci", "SWITCHPROBE_BENCH_PRESET for the run (ci, default or paper)")
	benchtime := flag.String("benchtime", "1x", "go test -benchtime value")
	count := flag.Int("count", 1, "go test -count value; the minimum ns/op across repetitions is reported")
	out := flag.String("out", "BENCH_PR10.json", "output JSON file")
	flag.Parse()

	report, err := run(*bench, *preset, *benchtime, *count)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(report.Benchmarks))
}

func run(bench, preset, benchtime string, count int) (*Report, error) {
	args := []string{"test", "-run", "^$", "-bench", bench, "-benchtime", benchtime,
		"-count", strconv.Itoa(count), "-timeout", "60m", "./..."}
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "SWITCHPROBE_BENCH_PRESET="+preset)
	outb, err := cmd.CombinedOutput()
	output := string(outb)
	fmt.Print(output)
	if err != nil {
		return nil, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	report := &Report{
		Preset:     preset,
		Go:         runtime.Version(),
		Benchmarks: make(map[string]BenchResult),
	}
	for _, line := range strings.Split(output, "\n") {
		name, res, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		if prev, seen := report.Benchmarks[name]; !seen || res.NsPerOp < prev.NsPerOp {
			report.Benchmarks[name] = res
		}
	}
	if len(report.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark results matched %q", bench)
	}
	return report, nil
}

// parseBenchLine parses one `go test -bench` result line:
//
//	BenchmarkName-8   3   721994000 ns/op   12.5 extra_metric   ...
//
// The -N GOMAXPROCS suffix is stripped from the name.
func parseBenchLine(line string) (string, BenchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", BenchResult{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", BenchResult{}, false
	}
	res := BenchResult{Iterations: iters, Metrics: map[string]float64{}}
	// The remainder alternates value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", BenchResult{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
		default:
			res.Metrics[unit] = v
		}
	}
	if res.NsPerOp == 0 {
		return "", BenchResult{}, false
	}
	if len(res.Metrics) == 0 {
		res.Metrics = nil
	}
	return name, res, true
}
