// Command swprobe reproduces the paper's experiments on the simulated
// cluster and prints each requested table or figure as text (and optionally
// CSV).
//
// Usage:
//
//	swprobe -exp fig3|fig6|fig7|table1|fig8|fig9|all|xswitch|sched|faults [-preset paper|default|ci]
//	        [-seed N] [-parallel N] [-csv DIR]
//	        [-strict-order]
//	        [-cache-dir DIR] [-no-cache]
//	        [-cpuprofile FILE] [-memprofile FILE]
//	        [-blockprofile FILE] [-mutexprofile FILE]
//	        [-topology star|fattree] [-leaves N] [-uplinks N]
//	        [-placement pack|spread|random] [-target APP] [-corunner APP]
//	        [-policy LIST|all] [-jobs N] [-arrivals MS]
//	        [-fault-plan EVENTS] [-mtbf DUR -mttr DUR]
//	        [-listen ADDR] [-trace FILE] [-trace-sample N]
//
// -listen serves live campaign telemetry over HTTP for the run's duration:
// /metrics is the Prometheus text exposition of every simulator counter,
// /progress reports the campaign phase, tasks done/planned and events per
// second as JSON, and /debug/pprof exposes the standard Go profiling
// endpoints.  -trace writes a Chrome trace-event JSON file (viewable in
// Perfetto) of sampled kernel and network events, every scheduler placement
// decision and job lifetime, and every fault window; -trace-sample keeps one
// in N high-rate events (default 1024).  Both are pure observation — they
// never touch fingerprints, random streams or campaign output, which stays
// byte-identical with them on or off (see docs/observability.md).
//
// -cpuprofile/-memprofile write pprof profiles of the whole campaign, so a
// hot-path regression can be diagnosed on any experiment without editing
// code (go tool pprof <file>).  -blockprofile/-mutexprofile additionally
// capture blocking and mutex-contention profiles.
//
// The topology flags select the simulated fabric for every experiment; the
// xswitch campaign additionally sweeps the fat-tree's oversubscription and
// compares packed vs. spread placement.
//
// -parallel caps how many simulation runs execute at once; each run is one
// goroutine driving its own kernel, ranks and network, so the output is
// byte-identical for every value.  -strict-order selects the strict
// golden-oracle event ordering (slower, byte-identical to pre-relaxed
// releases); it changes run fingerprints and therefore cache keys.
//
// The sched campaign streams a job arrival process through the
// contention-aware scheduler simulator on star + fat-tree fabrics and
// compares placement policies (-policy), including the predictor-guided one;
// -jobs and -arrivals size the stream.
//
// The faults campaign injects deterministic trunk failures, degraded
// uplinks and leaf partitions into every trunked fabric and reports
// packet-level slowdown plus retransmit/reroute telemetry next to each
// policy's job stretch and requeue counts.  -mtbf/-mttr (set together) add
// a generated-failure case drawn from a dedicated random substream;
// -fault-plan adds an explicit schedule of events
// (kind:trunk@offset[:factor], comma-separated, e.g.
// "down:leaf0.up0@2ms,up:leaf0.up0@7ms").  Fault plans join run
// fingerprints, so faulted and clean runs never share cache entries.
//
// With -cache-dir, every simulation run's artifact is persisted to a
// content-addressed store keyed by its RunSpec hash; a warm re-run of the
// same campaign executes zero simulations and reproduces byte-identical
// output.  -no-cache disables the persistent store (runs are still memoized
// in-process).
//
// Example:
//
//	swprobe -exp fig9 -preset default
//	swprobe -exp all -preset ci -csv ./results -cache-dir ~/.cache/swprobe
//	swprobe -exp xswitch -preset ci -topology fattree -uplinks 2
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/hpcperf/switchprobe/internal/cliflags"
	"github.com/hpcperf/switchprobe/internal/cluster"
	"github.com/hpcperf/switchprobe/internal/engine"
	"github.com/hpcperf/switchprobe/internal/experiments"
	"github.com/hpcperf/switchprobe/internal/netsim"
	"github.com/hpcperf/switchprobe/internal/report"
	"github.com/hpcperf/switchprobe/internal/sched"
	"github.com/hpcperf/switchprobe/internal/sim"
	"github.com/hpcperf/switchprobe/internal/stats"
	"github.com/hpcperf/switchprobe/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "swprobe:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("swprobe", flag.ContinueOnError)
	exp := fs.String("exp", "fig9", "experiment to run: fig3, fig6, fig7, table1, fig8, fig9, xswitch, sched, faults or all")
	preset := fs.String("preset", string(experiments.PresetDefault), "scale preset: paper, default or ci")
	seed := fs.Int64("seed", 1, "base random seed")
	parallel := fs.Int("parallel", 0, "max concurrent simulation runs (0 = all CPUs)")
	csvDir := fs.String("csv", "", "directory to write CSV files into (optional)")
	cacheDir := fs.String("cache-dir", "", "directory of the persistent artifact cache (empty = in-memory only)")
	noCache := fs.Bool("no-cache", false, "disable the persistent artifact cache even when -cache-dir is set")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (after the campaign) to this file")
	blockProfile := fs.String("blockprofile", "", "write a goroutine blocking profile (after the campaign) to this file")
	mutexProfile := fs.String("mutexprofile", "", "write a mutex contention profile (after the campaign) to this file")
	topology := fs.String("topology", "star", "network topology: star or fattree")
	leaves := fs.Int("leaves", 0, "fattree: number of leaf switches (0 = 2)")
	uplinks := fs.Int("uplinks", 0, "fattree: uplinks per leaf to the spine (0 = one per node, no oversubscription)")
	placement := fs.String("placement", "pack", "application placement across leaves: pack, spread or random")
	targetName := fs.String("target", "FFTW", "xswitch: application whose slowdown is measured")
	coName := fs.String("corunner", "VPFFT", "xswitch: application sharing the fabric")
	policies := fs.String("policy", "all", "sched: comma-separated placement policies or all ("+strings.Join(sched.PolicyNames(), ", ")+")")
	jobs := fs.Int("jobs", 0, "sched: arrival-stream length (0 = campaign default)")
	arrivals := fs.Float64("arrivals", 0, "sched: mean job inter-arrival gap in virtual ms (0 = derive from load)")
	strictOrder := fs.Bool("strict-order", false, "run the strict golden-oracle event ordering instead of the relaxed engine (changes run fingerprints and cache keys)")
	faultPlanStr := fs.String("fault-plan", "", "faults: explicit fault schedule, comma-separated kind:trunk@offset[:factor] events (e.g. down:leaf0.up0@2ms,up:leaf0.up0@7ms,degrade:leaf1.up0@1ms:2)")
	mtbf := fs.Duration("mtbf", 0, "faults: mean virtual time between generated trunk failures (set together with -mttr)")
	mttr := fs.Duration("mttr", 0, "faults: mean virtual trunk repair time (set together with -mtbf)")
	listen := fs.String("listen", "", "serve /metrics (Prometheus), /progress (JSON) and /debug/pprof on this address for the campaign's duration (e.g. :9090; empty = off)")
	traceFile := fs.String("trace", "", "write a Chrome trace-event JSON of the campaign to this file (Perfetto-viewable: per-leaf lanes, scheduler placements, job lifetimes, fault windows)")
	traceSample := fs.Int64("trace-sample", 1024, "with -trace: keep every Nth high-rate kernel/network event (1 = keep all); placements and fault windows are always kept")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (0 = all CPUs), got %d", *parallel)
	}
	faultPlan, faultFlagsSet, err := cliflags.ParseFaultFlags(*faultPlanStr, *mtbf, *mttr)
	if err != nil {
		return err
	}
	topologySet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "topology" {
			topologySet = true
		}
	})
	if err := cliflags.CheckFaultTopology(faultFlagsSet, topologySet, *topology); err != nil {
		return err
	}
	if *traceSample < 1 {
		return fmt.Errorf("-trace-sample must be >= 1, got %d", *traceSample)
	}

	cfg, err := experiments.NewConfig(experiments.Preset(*preset), *seed)
	if err != nil {
		return err
	}
	cfg.Parallelism = *parallel
	cfg.Options.Machine.Net.StrictOrder = *strictOrder
	topo, err := netsim.ParseTopology(*topology, *leaves, *uplinks)
	if err != nil {
		return err
	}
	cfg.Options.Machine.Net.Topology = topo
	policy, err := cluster.ParsePlacement(*placement)
	if err != nil {
		return err
	}
	cfg.Options.Placement = policy

	// Telemetry is pure observation: the listener and the trace writer print
	// to stderr only, never join fingerprints, and the campaign's stdout/CSV
	// output is byte-identical with them on or off (enforced by tests).
	if *listen != "" {
		srv, err := telemetry.NewServer(*listen, telemetry.Default(), telemetry.DefaultProgress())
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "swprobe: telemetry on http://%s (/metrics /progress /debug/pprof)\n", srv.Addr())
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		telemetry.StartTrace(f, *traceSample)
		defer func() {
			if err := telemetry.StopTrace(); err != nil {
				fmt.Fprintln(os.Stderr, "swprobe: trace:", err)
			}
			f.Close()
		}()
	}

	// Create the CSV directory now, so a bad path fails before any
	// experiment spends simulation time rather than after the first one.
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fmt.Errorf("-csv: %w", err)
		}
	}

	eng, err := engine.Open(*cacheDir, *noCache)
	if err != nil {
		return err
	}
	suite := experiments.NewSuiteWithEngine(cfg, eng)

	valid := make(map[string]bool, len(experiments.Names)+3)
	for _, name := range experiments.Names {
		valid[name] = true
	}
	valid["xswitch"] = true
	valid["sched"] = true
	valid["faults"] = true
	var wanted []string
	if *exp == "all" {
		wanted = experiments.Names
	} else {
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			if !valid[name] {
				return fmt.Errorf("unknown experiment %q (valid: %s, xswitch, sched, faults, all)",
					name, strings.Join(experiments.Names, ", "))
			}
			wanted = append(wanted, name)
		}
	}
	if faultFlagsSet {
		runsFaults := false
		for _, name := range wanted {
			if name == "faults" {
				runsFaults = true
			}
		}
		if !runsFaults {
			return fmt.Errorf("-fault-plan/-mtbf/-mttr configure the faults campaign; "+
				"valid combinations: -exp faults [-fault-plan EVENTS] [-mtbf DUR -mttr DUR] (got -exp %s)", *exp)
		}
	}

	schedSpec := experiments.SchedSpec{
		Jobs:               *jobs,
		Seed:               *seed,
		MeanInterarrivalMs: *arrivals,
	}
	if *policies != "" && *policies != "all" {
		known := make(map[string]bool, len(sched.PolicyNames()))
		for _, p := range sched.PolicyNames() {
			known[p] = true
		}
		for _, p := range strings.Split(*policies, ",") {
			p = strings.TrimSpace(p)
			if !known[p] {
				return fmt.Errorf("unknown policy %q (valid: %s, all)", p, strings.Join(sched.PolicyNames(), ", "))
			}
			schedSpec.Policies = append(schedSpec.Policies, p)
		}
	}
	// Reject a bad arrival stream before any experiment runs.
	if err := schedSpec.Validate(cfg); err != nil {
		return fmt.Errorf("-jobs/-arrivals: %w", err)
	}
	faultsSpec := experiments.FaultsSpec{
		Sched: schedSpec,
		MTBF:  sim.Duration(*mtbf),
		MTTR:  sim.Duration(*mttr),
		Plan:  faultPlan,
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "swprobe: memprofile:", err)
			}
			f.Close()
		}()
	}
	if *blockProfile != "" {
		f, err := os.Create(*blockProfile)
		if err != nil {
			return fmt.Errorf("blockprofile: %w", err)
		}
		runtime.SetBlockProfileRate(1)
		defer func() {
			if err := pprof.Lookup("block").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "swprobe: blockprofile:", err)
			}
			f.Close()
			runtime.SetBlockProfileRate(0)
		}()
	}
	if *mutexProfile != "" {
		f, err := os.Create(*mutexProfile)
		if err != nil {
			return fmt.Errorf("mutexprofile: %w", err)
		}
		runtime.SetMutexProfileFraction(1)
		defer func() {
			if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "swprobe: mutexprofile:", err)
			}
			f.Close()
			runtime.SetMutexProfileFraction(0)
		}()
	}

	experiments.ResetSimUsage()
	prog := telemetry.DefaultProgress()
	prog.Start()
	var schedCacheLines []string
	for _, name := range wanted {
		prog.SetPhase(name)
		start := time.Now()
		var (
			tbl   report.Table
			extra string
			err   error
		)
		if name == "sched" {
			var r experiments.SchedResult
			r, err = suite.Sched(schedSpec)
			if err == nil {
				tbl, extra = report.SchedTable(r), experiments.SchedSummary(r)
				schedCacheLines = schedCacheStats(r)
			}
		} else if name == "faults" {
			var r experiments.FaultsResult
			r, err = suite.Faults(faultsSpec)
			if err == nil {
				tbl, extra = report.FaultTable(r), experiments.FaultsSummary(r)
			}
		} else {
			tbl, extra, err = runOne(suite, name, *targetName, *coName)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "== %s (preset %s, seed %d, %.1fs) ==\n", name, *preset, *seed, time.Since(start).Seconds())
		fmt.Fprintln(out, tbl.Render())
		if extra != "" {
			fmt.Fprintln(out, extra)
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, name, tbl); err != nil {
				return err
			}
		}
	}
	prog.SetPhase("done")
	if u := experiments.SimUsage(); u.Runs > 0 {
		fmt.Fprintf(out, "Simulator: %s\n", u)
	}
	if eng.Stats().Lookups() > 0 {
		fmt.Fprintf(out, "Cache: %s\n", eng.Summary())
		for _, line := range schedCacheLines {
			fmt.Fprintln(out, line)
		}
	}
	return nil
}

// schedCacheStats summarizes, per policy, how the scheduler's coefficient
// lookups were served, aggregated across the campaign's scenarios.  On a
// prefetched campaign every query is an oracle-memo hit and the engine
// portion is silent; any engine traffic (and in particular simulations)
// means the prefetch missed a coefficient.
func schedCacheStats(r experiments.SchedResult) []string {
	var lines []string
	for _, policy := range r.Policies {
		var (
			total           engine.Stats
			lookups, misses int64
		)
		for _, row := range r.Rows {
			if row.Policy == policy {
				total = total.Add(row.Cache)
				lookups += row.OracleLookups
				misses += row.OracleMisses
			}
		}
		line := fmt.Sprintf("Sched cache [%s]: %d coefficient lookups, %d memoized", policy, lookups, lookups-misses)
		if misses > 0 {
			line += fmt.Sprintf("; engine: %s", total)
		}
		lines = append(lines, line)
	}
	return lines
}

// runOne produces the table (and optional trailing text) of one experiment.
func runOne(suite *experiments.Suite, name, target, corunner string) (report.Table, string, error) {
	switch name {
	case "fig3":
		r, err := suite.Fig3()
		if err != nil {
			return report.Table{}, "", err
		}
		return report.Fig3Table(r), "", nil
	case "fig6":
		r, err := suite.Fig6()
		if err != nil {
			return report.Table{}, "", err
		}
		lo, hi := r.Range()
		return report.Fig6Table(r), fmt.Sprintf("Utilization range: %.1f%% .. %.1f%%\n", lo, hi), nil
	case "fig7":
		r, err := suite.Fig7()
		if err != nil {
			return report.Table{}, "", err
		}
		labels := r.Apps
		slopes := make([]float64, len(labels))
		for i, app := range labels {
			slopes[i] = r.Fits[app].Slope
		}
		chart := report.BarChart("Sensitivity (degradation points per utilization point)", labels, slopes, 40)
		return report.Fig7Table(r), chart, nil
	case "table1":
		r, err := suite.Table1()
		if err != nil {
			return report.Table{}, "", err
		}
		return report.Table1Table(r), "", nil
	case "fig8":
		r, err := suite.Fig8()
		if err != nil {
			return report.Table{}, "", err
		}
		return report.Fig8Table(r), "", nil
	case "fig9":
		r, err := suite.Fig9()
		if err != nil {
			return report.Table{}, "", err
		}
		boxes := make([]stats.BoxPlot, len(r.Models))
		for i, m := range r.Models {
			boxes[i] = r.Boxes[m]
		}
		chart := report.BoxChart("Prediction error quartiles", r.Models, boxes, 50)
		return report.Fig9Table(r), chart + "\n" + report.Summary(r), nil
	case "xswitch":
		r, err := suite.XSwitch(target, corunner)
		if err != nil {
			return report.Table{}, "", err
		}
		return report.XSwitchTable(r), xswitchSummary(r), nil
	default:
		return report.Table{}, "", fmt.Errorf("unknown experiment %q (valid: %s, xswitch, sched, faults, all)",
			name, strings.Join(experiments.Names, ", "))
	}
}

// xswitchSummary highlights the campaign's headline contrast: packed vs
// spread placement at the strongest oversubscription measured.
func xswitchSummary(r experiments.XSwitchResult) string {
	worst := -1
	var oversub float64
	for _, p := range r.Points {
		if p.Oversubscription > oversub {
			oversub, worst = p.Oversubscription, p.Uplinks
		}
	}
	if worst < 0 {
		return ""
	}
	pack, _ := r.DegradationBy(worst, cluster.PlacePack)
	spread, _ := r.DegradationBy(worst, cluster.PlaceSpread)
	return fmt.Sprintf("At %.1f:1 oversubscription, %s degrades %.1f%% when both jobs are packed on their own leaves\nand %.1f%% when both are spread across every leaf.\n", oversub, r.Target, pack, spread)
}

// writeCSV writes one experiment's table into dir/<name>.csv; run creates
// dir before the first experiment.
func writeCSV(dir, name string, tbl report.Table) error {
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return tbl.WriteCSV(f)
}
