package switchprobe

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (go test -bench=.).  Benchmarks share one lazily-built
// experiment suite so the expensive measurement campaigns (calibration,
// impact signatures, compression profiles, pairwise co-runs) are executed
// once and reused; the first benchmark touching a set of artifacts pays for
// building it.
//
// The BenchmarkAblation* functions quantify design choices of the simulated
// cluster and its predictors: finite egress buffers, the eager/rendezvous
// threshold, the size of the look-up-table grid and the phase-aware queue
// model.
//
// Two kinds of performance check live here beside swbench (cmd/swbench),
// the repository's benchmark.  TestColdCampaignBudgets holds the cold Fig. 3
// and Table 1 campaigns to exact work budgets, so it runs with go test.
// BenchmarkWallClockGates holds the A/B comparisons only a wall clock can
// check; run it as
//
//	SWITCHPROBE_BENCH_PRESET=ci go test -run '^$' -bench WallClockGates -benchtime 1x -v .

import (
	"io"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/hpcperf/switchprobe/internal/experiments"
	"github.com/hpcperf/switchprobe/internal/inject"
	"github.com/hpcperf/switchprobe/internal/model"
	"github.com/hpcperf/switchprobe/internal/telemetry"
	"github.com/hpcperf/switchprobe/internal/workload"
)

var (
	benchOnce  sync.Once
	benchSuite *experiments.Suite
)

// benchPreset selects the harness scale: the 18-node default preset, or the
// small CI preset when SWITCHPROBE_BENCH_PRESET=ci is set (or -short is
// passed), so the full harness stays usable on small machines.
func benchPreset() experiments.Preset {
	if os.Getenv("SWITCHPROBE_BENCH_PRESET") == string(experiments.PresetCI) || testing.Short() {
		return experiments.PresetCI
	}
	if os.Getenv("SWITCHPROBE_BENCH_PRESET") == string(experiments.PresetPaper) {
		return experiments.PresetPaper
	}
	return experiments.PresetDefault
}

// sharedSuite returns the lazily-built shared experiment suite.
func sharedSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	benchOnce.Do(func() {
		cfg := experiments.MustNewConfig(benchPreset(), 1)
		benchSuite = experiments.NewSuite(cfg)
	})
	return benchSuite
}

// BenchmarkFig3PacketLatencies regenerates the probe-latency distributions of
// the paper's Fig. 3 (idle switch plus each application).  Unlike the other
// figure benchmarks it builds a fresh suite every iteration so ns/op measures
// the full measurement campaign (calibration plus one impact run per
// application) rather than a cached-artifact lookup; it is the headline
// simulator-throughput benchmark.
func BenchmarkFig3PacketLatencies(b *testing.B) {
	b.ReportAllocs()
	experiments.ResetSimUsage()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.MustNewConfig(benchPreset(), 1))
		r, err := s.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.MeanMicros[experiments.IdleLabel], "idle_mean_us")
			b.ReportMetric(r.MeanMicros["FFTW"], "fftw_mean_us")
		}
	}
	reportSimMetrics(b)
}

// reportSimMetrics attaches the aggregated simulator activity of the
// benchmark's runs: kernel events fired, non-parking rank fast resumes,
// relaxed credit-ledger clamps, and per-run event throughput.
func reportSimMetrics(b *testing.B) {
	u := experiments.SimUsage()
	if u.Runs == 0 {
		return
	}
	b.ReportMetric(float64(u.EventsFired)/float64(b.N), "events_fired/op")
	b.ReportMetric(float64(u.ProcFastResumes)/float64(b.N), "fast_resumes/op")
	b.ReportMetric(float64(u.LedgerClamps)/float64(b.N), "ledger_clamps/op")
	b.ReportMetric(u.EventsPerSecond(), "events/s")
}

// BenchmarkFig6CompressionUtilization regenerates the switch-utilization
// sweep of the CompressionB configuration grid (paper Fig. 6).
func BenchmarkFig6CompressionUtilization(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			lo, hi := r.Range()
			b.ReportMetric(lo, "util_min_pct")
			b.ReportMetric(hi, "util_max_pct")
		}
	}
}

// BenchmarkFig7DegradationCurves regenerates the degradation-vs-utilization
// curves of the paper's Fig. 7.
func BenchmarkFig7DegradationCurves(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			maxOf := func(app string) float64 {
				m := 0.0
				for _, p := range r.Curves[app] {
					if p.DegradationPct > m {
						m = p.DegradationPct
					}
				}
				return m
			}
			b.ReportMetric(maxOf("FFTW"), "fftw_max_deg_pct")
			b.ReportMetric(maxOf("MCB"), "mcb_max_deg_pct")
		}
	}
}

// BenchmarkTable1PairSlowdowns regenerates the measured co-run slowdown
// matrix of the paper's Table I.  Like BenchmarkFig3PacketLatencies it builds
// a fresh suite per iteration so ns/op measures the real co-run campaign
// (baselines plus every unordered application pair) end to end.
func BenchmarkTable1PairSlowdowns(b *testing.B) {
	b.ReportAllocs()
	experiments.ResetSimUsage()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.MustNewConfig(benchPreset(), 1))
		r, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.SlowdownPct[0][0], "fftw_self_pct")
		}
	}
	reportSimMetrics(b)
}

// BenchmarkTable1StrictOrder runs the identical cold Table 1 campaign under
// the strict golden-oracle event ordering (Config.StrictOrder).  Paired with
// BenchmarkTable1PairSlowdowns — which runs the relaxed engine, the default
// since ModelVersion 3 — it prices the relaxed mode's speedup, and
// BenchmarkWallClockGates fails when relaxed stops being faster than strict.
func BenchmarkTable1StrictOrder(b *testing.B) {
	experiments.ResetSimUsage()
	for i := 0; i < b.N; i++ {
		cfg := experiments.MustNewConfig(benchPreset(), 1)
		cfg.Options.Machine.Net.StrictOrder = true
		s := experiments.NewSuite(cfg)
		r, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.SlowdownPct[0][0], "fftw_self_pct")
		}
	}
	reportSimMetrics(b)
}

// BenchmarkTable1Traced runs the cold Table 1 campaign with the structured
// trace exporter armed at the default sampling rate, discarding the output.
// Paired with BenchmarkTable1PairSlowdowns it measures the telemetry layer's
// observation overhead; BenchmarkWallClockGates gates traced/untraced at
// 1.05x, holding the contract that watching a campaign is nearly free.
func BenchmarkTable1Traced(b *testing.B) {
	experiments.ResetSimUsage()
	telemetry.StartTrace(io.Discard, 1024)
	defer func() {
		if err := telemetry.StopTrace(); err != nil {
			b.Fatal(err)
		}
	}()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.MustNewConfig(benchPreset(), 1))
		r, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.SlowdownPct[0][0], "fftw_self_pct")
		}
	}
	reportSimMetrics(b)
}

// wallClockSlack is the A/B gates' tolerance: a gate fails only when the
// side that must be fast is at least 5% slower than the side it is judged
// against, so scheduler jitter on a shared runner passes and a lost fast
// path, which costs far more, does not.
const wallClockSlack = 1.05

// BenchmarkWallClockGates runs the cold Table 1 campaign relaxed, under
// strict order and traced, three times each, and compares each side's
// fastest run: it fails when relaxed ≥ strict × slack or when traced >
// untraced × slack.  No absolute time is gated, since runners vary 2x and
// more between hardware generations.  -v prints the ratios on a pass.
func BenchmarkWallClockGates(b *testing.B) {
	best := fastestOf3(b, []gateSide{
		{"relaxed", BenchmarkTable1PairSlowdowns},
		{"strict", BenchmarkTable1StrictOrder},
		{"traced", BenchmarkTable1Traced},
	})
	relaxed, strict, traced := best["relaxed"], best["strict"], best["traced"]
	b.Logf("Table 1 relaxed %v vs strict %v (%.3fx)", relaxed, strict, float64(relaxed)/float64(strict))
	b.Logf("Table 1 traced %v vs untraced %v (%.3fx)", traced, relaxed, float64(traced)/float64(relaxed))
	if float64(relaxed) >= float64(strict)*wallClockSlack {
		b.Error("Table 1: the relaxed engine is not faster than strict order")
	}
	if float64(traced) > float64(relaxed)*wallClockSlack {
		b.Errorf("Table 1: tracing overhead exceeds the %.2fx budget", wallClockSlack)
	}
}

// gateSide is one side of a wall-clock A/B gate.
type gateSide struct {
	name  string
	bench func(*testing.B)
}

// fastestOf3 runs every side three times as sub-benchmarks, reversing the
// order of the sides each round so that none always runs first, and returns
// each side's fastest time per op: the minimum is the least noisy estimate
// on a shared machine.
func fastestOf3(b *testing.B, sides []gateSide) map[string]time.Duration {
	best := make(map[string]time.Duration, len(sides))
	for round := 0; round < 3; round++ {
		for i := range sides {
			side := sides[i]
			if round%2 == 1 {
				side = sides[len(sides)-1-i]
			}
			var perOp time.Duration
			if !b.Run(side.name, func(b *testing.B) {
				side.bench(b)
				perOp = b.Elapsed() / time.Duration(b.N)
			}) {
				b.FailNow()
			}
			if d, ok := best[side.name]; !ok || perOp < d {
				best[side.name] = perOp
			}
		}
	}
	return best
}

// TestColdCampaignBudgets runs the cold Fig. 3 and Table 1 campaigns at the
// ci preset, seed 1, each on a fresh suite, and holds them to exact work
// budgets.  The kernel fires an exact event total per campaign (the schedule
// is deterministic, so any change to it moves the count).  Heap allocations
// stay under a ceiling: the campaigns allocate ~23K (Fig. 3) and ~153K
// (Table 1) objects, repeatable to a few objects, while a rank program that
// allocates per iteration again costs tens of objects per rank-iteration,
// millions in all.
func TestColdCampaignBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("cold campaigns are slow; skipped in -short mode")
	}
	for _, c := range []struct {
		name      string
		fired     int64
		maxAllocs uint64
		campaign  func(*experiments.Suite) error
	}{
		{"Fig3", 1_677_936, 30_000, func(s *experiments.Suite) error { _, err := s.Fig3(); return err }},
		{"Table1", 11_213_939, 200_000, func(s *experiments.Suite) error { _, err := s.Table1(); return err }},
	} {
		t.Run(c.name, func(t *testing.T) {
			experiments.ResetSimUsage()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := c.campaign(experiments.NewSuite(experiments.MustNewConfig(experiments.PresetCI, 1)))
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			u := experiments.SimUsage()
			allocs := after.Mallocs - before.Mallocs
			t.Logf("%d events fired, %d allocations", u.EventsFired, allocs)
			if u.EventsFired != c.fired {
				t.Errorf("%d events fired, want exactly %d", u.EventsFired, c.fired)
			}
			if allocs > c.maxAllocs {
				t.Errorf("%d allocations exceed %d; a rank program allocates per iteration", allocs, c.maxAllocs)
			}
		})
	}
}

// BenchmarkSchedCampaign runs the contention-aware scheduler campaign on the
// headline oversubscribed fat-tree scenario: measuring the coefficient
// library (solo baselines, placed co-run pairs, signatures, predictor
// profiles) plus scheduling every policy's arrival streams.  Like the other
// headline benchmarks it builds a fresh suite per iteration, so ns/op
// measures the cold campaign end to end.
func BenchmarkSchedCampaign(b *testing.B) {
	experiments.ResetSimUsage()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.MustNewConfig(benchPreset(), 1))
		nodes := s.Config().Options.Machine.Nodes()
		scenarios := experiments.DefaultSchedScenarios(nodes)
		r, err := s.Sched(experiments.SchedSpec{
			Scenarios: scenarios[len(scenarios)-1:], // the contended fabric
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			scen := r.Scenarios[0]
			if pg, ok := r.MeanStretch(scen, "predictor"); ok {
				b.ReportMetric(pg, "predictor_stretch")
			}
			if pack, ok := r.MeanStretch(scen, "pack"); ok {
				b.ReportMetric(pack, "pack_stretch")
			}
		}
	}
	reportSimMetrics(b)
}

// BenchmarkFig8PredictionErrors regenerates the per-pair prediction errors of
// the paper's Fig. 8.
func BenchmarkFig8PredictionErrors(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(r.Study.Pairs)), "pairs")
		}
	}
}

// BenchmarkFig9ErrorSummary regenerates the per-model error summary of the
// paper's Fig. 9 and reports the headline accuracy metrics.
func BenchmarkFig9ErrorSummary(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.MeanAbsErr["Queue"], "queue_mae_pts")
			b.ReportMetric(100*r.FractionWithin10["Queue"], "queue_within10_pct")
			b.ReportMetric(r.MeanAbsErr["AverageLT"], "averagelt_mae_pts")
		}
	}
}

// BenchmarkCalibration measures one idle-switch calibration run.
func BenchmarkCalibration(b *testing.B) {
	opts := ReducedOptions()
	for i := 0; i < b.N; i++ {
		if _, err := Calibrate(opts.WithSeed(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationInfiniteBuffers compares probe latency under a heavy
// injector with the default finite egress buffers against unlimited buffers
// (no back-pressure).  Unlimited buffers let latency grow far beyond the
// bounded band the paper's Fig. 3 shows.
func BenchmarkAblationInfiniteBuffers(b *testing.B) {
	heavy := NewInjectorConfig(7, 10, 2.5e4)
	for i := 0; i < b.N; i++ {
		finiteOpts := ReducedOptions().WithSeed(int64(i + 1))
		cal, err := Calibrate(finiteOpts)
		if err != nil {
			b.Fatal(err)
		}
		finite, err := MeasureInjectorImpact(finiteOpts, cal, heavy)
		if err != nil {
			b.Fatal(err)
		}
		infOpts := finiteOpts
		infOpts.Machine.Net.EgressBufferBytes = 0
		infCal, err := Calibrate(infOpts)
		if err != nil {
			b.Fatal(err)
		}
		infinite, err := MeasureInjectorImpact(infOpts, infCal, heavy)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(finite.Mean*1e6, "finite_mean_us")
			b.ReportMetric(infinite.Mean*1e6, "infinite_mean_us")
		}
	}
}

// BenchmarkAblationEagerOnly compares FFTW's degradation under heavy
// injection with the default eager/rendezvous threshold against an
// eager-only protocol (the injector's 40 KB messages flood the switch
// without a handshake).
func BenchmarkAblationEagerOnly(b *testing.B) {
	heavy := NewInjectorConfig(7, 10, 2.5e4)
	for i := 0; i < b.N; i++ {
		opts := ReducedOptions().WithSeed(int64(i + 1))
		app, err := ApplicationByName("FFTW", opts.Scale)
		if err != nil {
			b.Fatal(err)
		}
		base, err := MeasureAppBaseline(opts, app)
		if err != nil {
			b.Fatal(err)
		}
		rendezvous, err := MeasureAppUnderInjector(opts, app, heavy)
		if err != nil {
			b.Fatal(err)
		}
		eagerOpts := opts
		eagerOpts.MPI.EagerThreshold = 1 << 30
		eagerBase, err := MeasureAppBaseline(eagerOpts, app)
		if err != nil {
			b.Fatal(err)
		}
		eager, err := MeasureAppUnderInjector(eagerOpts, app, heavy)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(DegradationPercent(base, rendezvous), "rendezvous_deg_pct")
			b.ReportMetric(DegradationPercent(eagerBase, eager), "eager_deg_pct")
		}
	}
}

// BenchmarkAblationReducedGrid compares look-up-table accuracy when the
// profile grid shrinks from the CI grid to just its two extreme
// configurations, the effect the paper attributes the LT models' errors to.
func BenchmarkAblationReducedGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := ReducedOptions().WithSeed(int64(i + 1))
		cal, err := Calibrate(opts)
		if err != nil {
			b.Fatal(err)
		}
		app, err := ApplicationByName("MILC", opts.Scale)
		if err != nil {
			b.Fatal(err)
		}
		coRunner, err := ApplicationByName("FFTW", opts.Scale)
		if err != nil {
			b.Fatal(err)
		}
		coSig, err := MeasureAppImpact(opts, cal, coRunner)
		if err != nil {
			b.Fatal(err)
		}
		fullGrid := inject.ReducedGrid()
		coarseGrid := []inject.Config{fullGrid[0], fullGrid[len(fullGrid)-1]}
		predictWith := func(grid []inject.Config) float64 {
			prof, err := BuildProfile(opts, cal, app, grid, nil)
			if err != nil {
				b.Fatal(err)
			}
			pred, err := (model.AverageLT{}).Predict(prof, coSig)
			if err != nil {
				b.Fatal(err)
			}
			return pred
		}
		fine := predictWith(fullGrid)
		coarse := predictWith(coarseGrid)
		if i == 0 {
			b.ReportMetric(fine, "fine_grid_pred_pct")
			b.ReportMetric(coarse, "coarse_grid_pred_pct")
		}
	}
}

// BenchmarkAblationPhaseAwareQueue compares the paper's constant-utilization
// queue model with this library's phase-aware extension on the pairing the
// paper identifies as its hardest case: a network-sensitive target (FFTW)
// co-running with a phase-varying co-runner (AMG).
func BenchmarkAblationPhaseAwareQueue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := ReducedOptions().WithSeed(int64(i + 1))
		cal, err := Calibrate(opts)
		if err != nil {
			b.Fatal(err)
		}
		target, err := ApplicationByName("FFTW", opts.Scale)
		if err != nil {
			b.Fatal(err)
		}
		coRunner, err := ApplicationByName("AMG", opts.Scale)
		if err != nil {
			b.Fatal(err)
		}
		coSig, err := MeasureAppImpact(opts, cal, coRunner)
		if err != nil {
			b.Fatal(err)
		}
		prof, err := BuildProfile(opts, cal, target, ReducedInjectorGrid(), nil)
		if err != nil {
			b.Fatal(err)
		}
		queue, err := (model.Queue{}).Predict(prof, coSig)
		if err != nil {
			b.Fatal(err)
		}
		phased, err := (model.QueuePhase{}).Predict(prof, coSig)
		if err != nil {
			b.Fatal(err)
		}
		ra, _, err := MeasureAppPair(opts, target, coRunner)
		if err != nil {
			b.Fatal(err)
		}
		measured := DegradationPercent(prof.Baseline, ra)
		if i == 0 {
			b.ReportMetric(measured, "measured_pct")
			b.ReportMetric(queue, "queue_pred_pct")
			b.ReportMetric(phased, "queuephase_pred_pct")
		}
	}
}

// BenchmarkWorkloadBaselines measures the baseline iteration rate of every
// application model at reduced scale (one run each per iteration).
func BenchmarkWorkloadBaselines(b *testing.B) {
	opts := ReducedOptions()
	for _, app := range workload.Registry(opts.Scale) {
		app := app
		b.Run(app.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rt, err := MeasureAppBaseline(opts.WithSeed(int64(i+1)), app)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(rt.TimePerIteration.Micros(), "virtual_us_per_iter")
				}
			}
		})
	}
}
