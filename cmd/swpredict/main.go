// Command swpredict predicts how much a target application will slow down
// when it shares a network switch with a co-runner, using the paper's four
// models, and optionally validates the prediction against an actual co-run.
//
// Usage:
//
//	swpredict -target FFTW -corunner Lulesh [-preset ci|default|paper]
//	          [-seed N] [-validate] [-topology star|fattree] [-leaves N]
//	          [-uplinks N] [-placement pack|spread|random]
//	          [-strict-order]
//	          [-cache-dir DIR] [-no-cache]
//	          [-fault-plan EVENTS] [-mtbf DUR -mttr DUR]
//
// With -cache-dir, measurement artifacts are served from (and persisted to)
// the same content-addressed store swprobe uses, so a prediction on an
// already-measured fabric runs without re-simulating anything.
//
// -fault-plan injects an explicit schedule of trunk faults
// (kind:trunk@offset[:factor] events, comma-separated) into every
// measurement run; -mtbf/-mttr (set together) instead draw failures from a
// dedicated random substream.  Both need a topology with trunks (-topology
// fattree) and join run fingerprints, so faulted measurements never share
// cache entries with clean ones.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/hpcperf/switchprobe/internal/cliflags"
	"github.com/hpcperf/switchprobe/internal/cluster"
	"github.com/hpcperf/switchprobe/internal/core"
	"github.com/hpcperf/switchprobe/internal/engine"
	"github.com/hpcperf/switchprobe/internal/experiments"
	"github.com/hpcperf/switchprobe/internal/model"
	"github.com/hpcperf/switchprobe/internal/netsim"
	"github.com/hpcperf/switchprobe/internal/report"
	"github.com/hpcperf/switchprobe/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "swpredict:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("swpredict", flag.ContinueOnError)
	targetName := fs.String("target", "FFTW", "application whose slowdown is predicted")
	coName := fs.String("corunner", "Lulesh", "application sharing the switch")
	preset := fs.String("preset", string(experiments.PresetCI), "scale preset: paper, default or ci")
	seed := fs.Int64("seed", 1, "base random seed")
	validate := fs.Bool("validate", false, "also measure the real co-run slowdown for comparison")
	topology := fs.String("topology", "star", "network topology: star or fattree")
	leaves := fs.Int("leaves", 0, "fattree: number of leaf switches (0 = 2)")
	uplinks := fs.Int("uplinks", 0, "fattree: uplinks per leaf to the spine (0 = one per node)")
	placement := fs.String("placement", "pack", "application placement across leaves: pack, spread or random")
	cacheDir := fs.String("cache-dir", "", "directory of the persistent artifact cache (empty = in-memory only)")
	noCache := fs.Bool("no-cache", false, "disable the persistent artifact cache even when -cache-dir is set")
	strictOrder := fs.Bool("strict-order", false, "run the strict golden-oracle event ordering instead of the relaxed engine (changes run fingerprints and cache keys)")
	faultPlanStr := fs.String("fault-plan", "", "inject an explicit fault schedule into every run: comma-separated kind:trunk@offset[:factor] events (e.g. down:leaf0.up0@2ms,up:leaf0.up0@7ms)")
	mtbf := fs.Duration("mtbf", 0, "mean virtual time between generated trunk failures (set together with -mttr)")
	mttr := fs.Duration("mttr", 0, "mean virtual trunk repair time (set together with -mtbf)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	faultPlan, _, err := cliflags.ParseFaultFlags(*faultPlanStr, *mtbf, *mttr)
	if err != nil {
		return err
	}
	faultPlan = cliflags.WithGenerated(faultPlan, *mtbf, *mttr)

	cfg, err := experiments.NewConfig(experiments.Preset(*preset), *seed)
	if err != nil {
		return err
	}
	cfg.Options.Machine.Net.StrictOrder = *strictOrder
	topo, err := netsim.ParseTopology(*topology, *leaves, *uplinks)
	if err != nil {
		return err
	}
	cfg.Options.Machine.Net.Topology = topo
	if faultPlan.Active() {
		// Validate the plan upfront against the selected fabric so a star
		// (no trunks) or an unknown trunk label fails with flag guidance
		// instead of deep inside the first measurement.
		if err := cliflags.ValidatePlanAgainst(faultPlan, topo, cfg.Options.Machine.Nodes()); err != nil {
			return err
		}
		cfg.Options.Machine.Net.Faults = faultPlan
		// Bound degrade factors by the configured link's MTU serialization.
		if err := cfg.Options.Machine.Net.Validate(); err != nil {
			return err
		}
	}
	policy, err := cluster.ParsePlacement(*placement)
	if err != nil {
		return err
	}
	cfg.Options.Placement = policy
	target, err := workload.ByName(*targetName, cfg.Scale)
	if err != nil {
		return err
	}
	coRunner, err := workload.ByName(*coName, cfg.Scale)
	if err != nil {
		return err
	}

	eng, err := engine.Open(*cacheDir, *noCache)
	if err != nil {
		return err
	}

	fmt.Printf("Calibrating the idle %s fabric (preset %s)...\n", topo.Name(), *preset)
	cal, err := eng.Calibration(cfg.Options)
	if err != nil {
		return err
	}
	fmt.Printf("  idle mean probe latency %.2f µs, service rate %.2e pkts/s\n",
		cal.Idle.Mean*1e6, cal.Service.Mu)

	fmt.Printf("Measuring %s's impact signature...\n", coRunner.Name())
	coSig, err := eng.AppImpact(cfg.Options, coRunner, core.SlotAll)
	if err != nil {
		return err
	}
	fmt.Printf("  mean probe latency %.2f µs -> switch utilization %.1f%%\n",
		coSig.Mean*1e6, coSig.UtilizationPct)

	fmt.Printf("Building %s's compression profile (%d injector configurations)...\n",
		target.Name(), len(cfg.ProfileGrid))
	prof, err := eng.BuildProfile(cfg.Options, target, cfg.ProfileGrid, core.SlotAll)
	if err != nil {
		return err
	}

	tbl := report.Table{
		Title:   fmt.Sprintf("Predicted slowdown of %s when co-running with %s", target.Name(), coRunner.Name()),
		Headers: []string{"model", "predicted_slowdown_pct"},
	}
	for _, m := range model.All() {
		pred, err := m.Predict(prof, coSig)
		if err != nil {
			return err
		}
		tbl.Rows = append(tbl.Rows, []string{m.Name(), fmt.Sprintf("%.1f", pred)})
	}
	fmt.Println(tbl.Render())

	if *validate {
		fmt.Println("Validating with a real co-run...")
		ra, _, err := eng.Pair(cfg.Options, target, coRunner, false)
		if err != nil {
			return err
		}
		measured := core.DegradationPercent(prof.Baseline, ra)
		fmt.Printf("Measured slowdown of %s with %s: %.1f%%\n", target.Name(), coRunner.Name(), measured)
	}
	if eng.Stats().Lookups() > 0 {
		fmt.Printf("Cache: %s\n", eng.Summary())
	}
	return nil
}
