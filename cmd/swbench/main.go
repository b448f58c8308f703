// Command swbench is the repository's benchmark: it runs the measurement
// campaigns users wait on as closed-loop workloads, prints every end-to-end
// metric with its unit, checks that every iteration's results are correct,
// and in a traced run prices each layer of the simulator on its own.
//
// Usage, from the repository root (swbench.sh builds the command under
// .bench_build/ first):
//
//	bash cmd/swbench/swbench.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//	bash cmd/swbench/swbench.sh -compare base.jsonl head.jsonl
//
// Each workload runs in a child process of this binary with GOMAXPROCS and
// Config.Parallelism set to 2 (1 for warm-replay).  Without -workload every workload
// runs, one after the other.  The last stdout line of a single-workload run
// is a JSON object with the keys correct, attempted, failed and metrics:
// the end-to-end metrics with -trace 0, the per-layer metrics with -trace 1.
// -record FILE appends the run's metrics to a JSON-lines file that -compare
// reads.  See README.md for the workloads, the metric glossary and the A/B
// protocol.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupProbes is how many extra children only set up and exit, so that
// setup_s is a median rather than one process start.  A set-up takes about
// 2 ms, with an interquartile range near 10% of that within one run.
const setupProbes = 31

// options are the command-line flags.  The parent passes the same flags to
// its children; -store and -run-dir are set by the parent only.
type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      int
	size       string
	iterations int
	work       string
	spans      string
	record     string
	compare    bool

	store  string
	runDir string
	args   []string
}

func (o options) tiny() bool { return o.size == "tiny" }

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("swbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run (empty = all): "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 20, "seconds of timed iterations per run")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: spans, CPU profile and layer drivers; print per-layer metrics")
	fs.StringVar(&o.size, "size", "full", "full, or tiny: ci-scale campaigns, no warm-up iteration, small layer drivers (for the smoke test)")
	fs.IntVar(&o.iterations, "iterations", 0, "run exactly this many timed iterations instead of -seconds")
	fs.StringVar(&o.work, "work", filepath.Join(".bench_build", "swbench"), "directory for stores and spans")
	fs.StringVar(&o.spans, "spans", "", "traced runs: write spans here (default WORK/spans-WORKLOAD-seedN.json)")
	fs.StringVar(&o.record, "record", "", "append this run's metrics to a JSON-lines record file")
	fs.BoolVar(&o.compare, "compare", false, "compare two record files: swbench -compare BASE HEAD")
	fs.StringVar(&o.store, "store", "", "internal: primed store directory")
	fs.StringVar(&o.runDir, "run-dir", "", "internal: per-run scratch directory")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.args = fs.Args()
	switch {
	case o.trace != 0 && o.trace != 1:
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	case o.size != "full" && o.size != "tiny":
		return o, fmt.Errorf("-size must be full or tiny, got %q", o.size)
	case o.seconds < 1:
		return o, fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	case o.iterations < 0 || (o.trace == 1 && o.iterations == 1):
		return o, fmt.Errorf("-iterations must be 0 or positive, and at least 2 in a traced run, got %d", o.iterations)
	case o.compare && len(o.args) != 2:
		return o, fmt.Errorf("-compare takes two record files, got %d arguments", len(o.args))
	case !o.compare && len(o.args) > 0:
		return o, fmt.Errorf("unexpected arguments %q", o.args)
	}
	return o, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func main() {
	if role := os.Getenv(roleEnv); role != "" {
		os.Exit(childMain(role, os.Args[1:]))
	}
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "swbench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run whose result line was printed but whose checks
// failed; the command still exits non-zero.
var errIncorrect = errors.New("correctness checks failed")

func run(args []string, stdout, stderr io.Writer) error {
	o, err := parseOptions(args, stderr)
	if err != nil {
		return err
	}
	if o.compare {
		return compareFiles(o.args[0], o.args[1], stdout)
	}
	selected := workloads
	if o.workload != "" {
		w, err := workloadByName(o.workload)
		if err != nil {
			return err
		}
		selected = []*workload{w}
	}
	failed := false
	for _, w := range selected {
		res, err := runWorkload(w, o, stdout)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		line, err := json.Marshal(res.line)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(line))
		if o.record != "" {
			if err := appendRecord(o.record, w.name, o, res); err != nil {
				return err
			}
		}
		failed = failed || !res.line.Correct
	}
	if failed {
		return errIncorrect
	}
	return nil
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type workloadResult struct {
	line resultLine
	// e2e holds every end-to-end metric, also in traced runs, and samples
	// the per-iteration (per-child for setup_s) values behind each and
	// behind each raw timing.
	e2e     map[string]float64
	samples map[string][]float64
}

// runWorkload runs one workload in child processes, prints its report, and
// returns its result line.
func runWorkload(w *workload, o options, out io.Writer) (workloadResult, error) {
	runDir, err := filepath.Abs(filepath.Join(o.work, fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return workloadResult{}, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return workloadResult{}, err
	}
	defer os.RemoveAll(runDir)
	o.workload, o.runDir, o.store = w.name, runDir, filepath.Join(runDir, "store")
	if o.trace == 1 && o.spans == "" {
		o.spans = filepath.Join(o.work, fmt.Sprintf("spans-%s-seed%d.json", w.name, o.seed))
	}
	// A run takes about seconds plus 15 s (priming, warm-up, traced-run
	// drivers); a hung child is killed well past that.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(2*o.seconds+100)*time.Second)
	defer cancel()
	// An interrupted parent kills its child and removes the run directory.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	if w.warm {
		if _, err := spawn(ctx, rolePrime, o, w.procs); err != nil {
			return workloadResult{}, fmt.Errorf("priming: %w", err)
		}
	}
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		c, err := spawn(ctx, roleSetup, o, w.procs)
		if err != nil {
			return workloadResult{}, fmt.Errorf("set-up probe: %w", err)
		}
		setups = append(setups, c.setup.Seconds())
	}
	c, err := spawn(ctx, roleRun, o, w.procs)
	if err != nil {
		return workloadResult{}, err
	}
	setups = append(setups, c.setup.Seconds())
	var rep childReport
	if err := json.Unmarshal(c.last, &rep); err != nil {
		return workloadResult{}, fmt.Errorf("reading the child's report: %w", err)
	}
	res := summarize(rep, setups, o.trace == 1)
	printReport(out, w, o, rep, res)
	return res, nil
}

// childRun is what the parent observed of one child.
type childRun struct {
	setup time.Duration // spawn until the ready line
	last  []byte        // last stdout line
}

// spawn runs a child of this binary in role, with procs as its GOMAXPROCS,
// and waits for it to exit.
func spawn(ctx context.Context, role string, o options, procs int) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	args := []string{
		"-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(o.trace), "-size", o.size, "-iterations", fmt.Sprint(o.iterations),
		"-spans", o.spans, "-store", o.store, "-run-dir", o.runDir,
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), roleEnv+"="+role, fmt.Sprintf("GOMAXPROCS=%d", procs))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	var c childRun
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 256<<20)
	for sc.Scan() {
		if stamp, ok := strings.CutPrefix(sc.Text(), readyPrefix); ok && c.setup == 0 {
			ns, err := strconv.ParseInt(stamp, 10, 64)
			if err != nil {
				return childRun{}, fmt.Errorf("%s child: bad ready line: %w", role, err)
			}
			c.setup = time.Unix(0, ns).Sub(start)
			continue
		}
		c.last = append(c.last[:0], sc.Bytes()...)
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return childRun{}, fmt.Errorf("%s child: %w", role, err)
	}
	if scanErr != nil {
		return childRun{}, fmt.Errorf("%s child output: %w", role, scanErr)
	}
	if role != rolePrime && c.setup == 0 {
		return childRun{}, fmt.Errorf("%s child never reported ready", role)
	}
	return c, nil
}

// summarize turns a child's report into the run's metrics.  End-to-end
// metrics come from the untraced iterations only.
func summarize(rep childReport, setups []float64, traced bool) workloadResult {
	samples := map[string][]float64{"setup_s": setups}
	var tracedWall []float64
	counters := map[string][]float64{}
	failed := 0
	for _, it := range rep.Iterations {
		if it.Failed {
			failed++
		}
		if it.Traced {
			tracedWall = append(tracedWall, it.WallS)
		} else {
			for k, v := range map[string]float64{
				"campaign_vs_probe":     ratio(it.WallS, it.ProbeS),
				"campaign_cpu_vs_probe": ratio(it.CPUS, it.ProbeCPUS),
				"campaign_s":            it.WallS,
				"campaign_cpu_s":        it.CPUS,
				"probe_s":               it.ProbeS,
				"peak_rss_mb":           it.PeakRSSMiB,
			} {
				samples[k] = append(samples[k], v)
			}
		}
		for k, v := range it.Counters {
			counters[k] = append(counters[k], v)
		}
	}
	res := workloadResult{
		line: resultLine{
			Correct:   failed == 0 && len(rep.Failures) == 0 && len(rep.Iterations) > 0,
			Attempted: len(rep.Iterations),
			Failed:    failed,
			Metrics:   map[string]metricValue{},
		},
		e2e:     map[string]float64{},
		samples: samples,
	}
	for _, d := range endToEnd {
		res.e2e[d.Name] = median(samples[d.Name])
	}
	defs := endToEnd
	values := res.e2e
	if traced {
		defs, values = perLayer, map[string]float64{}
		for k, v := range rep.Layers {
			values[k] = v
		}
		for k, vs := range counters {
			values[k] = median(vs)
		}
		for _, d := range timings {
			values[d.Name] = median(samples[d.Name])
		}
		values["trace.overhead_pct"] = 100 * (ratio(median(tracedWall), values["campaign_s"]) - 1)
	}
	for _, d := range defs {
		res.line.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return res
}

// printReport writes the human-readable report of one run: every
// end-to-end metric and raw timing (median, quartiles, sample count and the
// supported tail percentile), the model-quality figures of warm-replay, the
// other per-layer metrics of a traced run, and any failure.
func printReport(out io.Writer, w *workload, o options, rep childReport, res workloadResult) {
	fmt.Fprintf(out, "== swbench %s  seed %d  size %s  trace %d  %d iterations (%d failed)  digest %.16s ==\n",
		w.name, o.seed, o.size, o.trace, res.line.Attempted, res.line.Failed, rep.Digest)
	for _, d := range append(append([]metricDef{}, endToEnd...), timings...) {
		fmt.Fprintf(out, "  %-21s %s\n", d.Name, describe(res.samples[d.Name], d.Unit))
	}
	for _, k := range sortedKeys(rep.Quality) {
		fmt.Fprintf(out, "  %-21s %.6g (model quality, deterministic per seed)\n", k, rep.Quality[k])
	}
	if o.trace == 1 {
		// perLayer starts with the timings, printed above.
		for _, d := range perLayer[len(timings):] {
			fmt.Fprintf(out, "  %-40s %.6g %s\n", d.Name, res.line.Metrics[d.Name].Value, d.Unit)
		}
		fmt.Fprintf(out, "  spans: %s\n", o.spans)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
}
