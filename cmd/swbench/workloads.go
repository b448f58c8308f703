package main

import (
	"fmt"
	"strings"

	"github.com/hpcperf/switchprobe/internal/experiments"
	"github.com/hpcperf/switchprobe/internal/inject"
	"github.com/hpcperf/switchprobe/internal/report"
)

// phaseFunc runs one of the benchmark's calls into the experiments layer
// under a phase name, recording a span around it in traced iterations.
type phaseFunc func(name string, fn func() error) error

// workload is one set of campaign inputs the benchmark runs, as a closed
// loop: one campaign in flight, the next starting when it finishes.
type workload struct {
	name string
	why  string
	// preset is the full-size scale; tiny runs use the ci preset.
	preset experiments.Preset
	// warm workloads read a store primed, untimed, before the run; the
	// others open a fresh on-disk store every iteration.
	warm bool
	// procs is both the child's GOMAXPROCS and Config.Parallelism.  The
	// benchmark is sized for a 2-CPU machine, and a fixed value keeps
	// results comparable across machines with more CPUs.
	procs int
	// run executes one iteration's campaign calls on a freshly opened suite.
	run func(s *experiments.Suite, seed int64, tiny bool, phase phaseFunc) (outcome, error)
}

// outcome is what one iteration produced: the rendered tables, whose CSV
// digest must not change between iterations, and the summary values the
// reference bands check.
type outcome struct {
	tables []report.Table
	sum    summary
}

var workloads = []*workload{
	{
		name:   "table1-cold",
		why:    "cold Table 1 at ci: bulk MPI co-runs through netsim, mpisim and the sim lane; the engine only misses and writes",
		preset: experiments.PresetCI,
		procs:  2,
		run: func(s *experiments.Suite, _ int64, _ bool, phase phaseFunc) (out outcome, err error) {
			// Table1 fetches the baselines first itself; calling them out
			// separately only splits the trace into the two parallel waves.
			if _, err := step(phase, "baselines", s.Baselines); err != nil {
				return out, err
			}
			r, err := step(phase, "table1", s.Table1)
			if err != nil {
				return out, err
			}
			out.tables = append(out.tables, report.Table1Table(r))
			out.sum.addTable1(r)
			return out, nil
		},
	},
	{
		name:   "fig3-probe",
		why:    "cold Fig. 3 on 18 nodes: probe packets with delivery observers and a serial calibration phase",
		preset: experiments.PresetDefault,
		procs:  2,
		run: func(s *experiments.Suite, _ int64, _ bool, phase phaseFunc) (out outcome, err error) {
			if _, err := step(phase, "calibrate", s.Calibration); err != nil {
				return out, err
			}
			r, err := step(phase, "fig3", s.Fig3)
			if err != nil {
				return out, err
			}
			out.tables = append(out.tables, report.Fig3Table(r))
			out.sum.addFig3(r)
			return out, nil
		},
	},
	{
		name:   "faults-fattree",
		why:    "cold faults campaign on fat-trees: trunk failures, failover, retransmits and the scheduler under leaf health",
		preset: experiments.PresetCI,
		procs:  2,
		run: func(s *experiments.Suite, seed int64, tiny bool, phase phaseFunc) (out outcome, err error) {
			r, err := step(phase, "faults", func() (experiments.FaultsResult, error) {
				return s.Faults(experiments.FaultsSpec{Sched: schedSpec(seed, tiny)})
			})
			if err != nil {
				return out, err
			}
			out.tables = append(out.tables, report.FaultTable(r))
			out.sum.addFaults(r)
			return out, nil
		},
	},
	{
		name:   "warm-replay",
		why:    "every cached campaign served from a primed store: hashing, store reads, predictors and the scheduler, no simulation",
		preset: experiments.PresetCI,
		warm:   true,
		// The replay's parallel sections fan out microsecond-scale cache
		// hits.  With two procs each fan-out waits on waking the other
		// CPU, whose latency on a shared 2-vCPU machine swung the median
		// iteration by up to 15% between runs; with one it held within 4%,
		// at the same median.
		procs: 1,
		run:   replayAll,
	},
}

// replayAll runs every engine-cached campaign the way swprobe -exp all plus
// xswitch and sched does.  On an empty store it is the priming run; on a
// primed one, the warm-replay iteration.
func replayAll(s *experiments.Suite, seed int64, tiny bool, phase phaseFunc) (out outcome, err error) {
	fig3, err := step(phase, "fig3", s.Fig3)
	if err != nil {
		return out, err
	}
	fig6, err := step(phase, "fig6", s.Fig6)
	if err != nil {
		return out, err
	}
	fig7, err := step(phase, "fig7", s.Fig7)
	if err != nil {
		return out, err
	}
	table1, err := step(phase, "table1", s.Table1)
	if err != nil {
		return out, err
	}
	fig8, err := step(phase, "fig8", s.Fig8)
	if err != nil {
		return out, err
	}
	fig9, err := step(phase, "fig9", s.Fig9)
	if err != nil {
		return out, err
	}
	xs, err := step(phase, "xswitch", func() (experiments.XSwitchResult, error) { return s.XSwitch("FFTW", "VPFFT") })
	if err != nil {
		return out, err
	}
	sr, err := step(phase, "sched", func() (experiments.SchedResult, error) { return s.Sched(schedSpec(seed, tiny)) })
	if err != nil {
		return out, err
	}
	out.tables = []report.Table{
		report.Fig3Table(fig3), report.Fig6Table(fig6), report.Fig7Table(fig7),
		report.Table1Table(table1), report.Fig8Table(fig8), report.Fig9Table(fig9),
		report.XSwitchTable(xs), report.SchedTable(sr),
	}
	out.sum.addFig3(fig3)
	out.sum.addTable1(table1)
	out.sum.addXSwitch(xs)
	out.sum.addSched(sr)
	out.sum.QueueMAE = fig9.MeanAbsErr["Queue"]
	return out, nil
}

// step runs fn as a phase and returns its result.
func step[T any](phase phaseFunc, name string, fn func() (T, error)) (T, error) {
	var v T
	err := phase(name, func() (err error) {
		v, err = fn()
		return err
	})
	return v, err
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(workloadNames(), ", "))
}

// config returns the campaign configuration of a workload.  Tiny runs, for
// the smoke test, use the ci preset with a two-configuration injector grid.
func (w *workload) config(seed int64, tiny bool) (experiments.Config, error) {
	preset := w.preset
	if tiny {
		preset = experiments.PresetCI
	}
	cfg, err := campaignConfig(preset, seed, tiny)
	cfg.Parallelism = w.procs
	return cfg, err
}

func campaignConfig(preset experiments.Preset, seed int64, tiny bool) (experiments.Config, error) {
	cfg, err := experiments.NewConfig(preset, seed)
	if err != nil {
		return cfg, err
	}
	if tiny {
		g := cfg.Grid
		cfg.Grid = []inject.Config{g[0], g[len(g)-1]}
		cfg.ProfileGrid = cfg.Grid
	}
	return cfg, nil
}

// schedApps is the scheduler campaign's job mix (its default at full size).
func schedApps(tiny bool) []string {
	if tiny {
		return []string{"FFTW", "MCB"}
	}
	return []string{"FFTW", "MCB", "VPFFT", "Lulesh"}
}

// schedSpec sizes the sched and faults campaigns: the campaign defaults at
// full size, one short stream over two applications when tiny.
func schedSpec(seed int64, tiny bool) experiments.SchedSpec {
	spec := experiments.SchedSpec{Seed: seed, Apps: schedApps(tiny)}
	if tiny {
		spec.Jobs, spec.Streams = 4, 1
	}
	return spec
}
