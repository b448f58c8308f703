package main

// metricDef names one metric of the benchmark.  BENCHMARK.json at the root
// of the repository lists the same metrics; the smoke test fails when the
// two drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func (m metricDef) lowerIsBetter() bool { return m.Better == "lower" }

// endToEnd are the metrics a user of the campaigns sees, each with the share
// of the parent's median by which it may worsen before a change counts as a
// regression.  The campaign's wall and CPU time are reported as multiples of
// the speed probe's (probe.go): on a shared 2-vCPU machine the run medians
// of the raw times spread by up to a third over ten runs, as the machine's
// speed drifts over minutes, and the ratios' by up to 11%.  setup_s carries
// the widest bound: it is about 2 ms of process start and store open, and
// drifts with the machine unscaled.
var endToEnd = []metricDef{
	{"campaign_vs_probe", "ratio", "lower", 0.15},
	{"campaign_cpu_vs_probe", "ratio", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.10},
}

// timings are the raw times behind the end-to-end ratios.  Every report
// prints them; they are per-layer metrics because they are not steady
// enough between runs to bound.
var timings = []metricDef{
	{"campaign_s", "s", "lower", 0},
	{"campaign_cpu_s", "s", "lower", 0},
	{"probe_s", "s", "lower", 0},
}

// phaseNames are the benchmark's calls into the experiments layer, in
// report order (the union of every workload's phases), plus "open" (engine
// and suite construction) and "check" (rendering, digest and reference
// bands, outside the timed region).
var phaseNames = []string{
	"open", "calibrate", "baselines", "fig3", "fig6", "fig7", "table1",
	"fig8", "fig9", "xswitch", "sched", "faults", "check",
}

// runKinds are the core.ExecuteSpec kinds the traced run sweeps.
var runKinds = []string{"calibrate", "impact", "injector", "baseline", "compress", "pair", "placed_pair"}

// modelNames are the predictors whose per-call cost the traced run measures.
var modelNames = []string{"AverageLT", "AverageStDevLT", "PDFLT", "Queue"}

// perLayer lists every per-layer metric, in report order.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := append(append([]metricDef{}, timings...), higher("experiments.parallel_util", "ratio"))
	for _, p := range phaseNames {
		defs = append(defs, lower("experiments.phase_s."+p, "s"))
	}
	defs = append(defs,
		lower("core.runs", "count"),
		lower("core.busy_s", "s"),
		lower("core.host_s_per_virtual_s", "s/s"),
	)
	for _, k := range runKinds {
		defs = append(defs, lower("core.run_ms."+k+".p50", "ms"), lower("core.run_ms."+k+".tail", "ms"))
	}
	defs = append(defs,
		lower("sim.events_fired", "count"),
		higher("sim.events_elided", "count"),
		higher("sim.fast_resumes", "count"),
		lower("sim.host_ns_per_event", "ns"),
		lower("sim.ns_per_event", "ns"),
		higher("netsim.trains", "count"),
		higher("netsim.pkts_per_train", "pkts"),
		lower("netsim.ledger_clamps", "count"),
		lower("netsim.trunks_failed", "count"),
		lower("netsim.retransmits", "count"),
		lower("netsim.reroutes", "count"),
		lower("netsim.bulk_ns_per_pkt", "ns"),
		lower("netsim.bulk_strict_ns_per_pkt", "ns"),
		lower("netsim.probe_ns", "ns"),
		lower("netsim.fault_ns_per_pkt", "ns"),
		lower("mpisim.ns_per_msg", "ns"),
		lower("engine.lookups", "count"),
		higher("engine.memory_hits", "count"),
		higher("engine.disk_hits", "count"),
		higher("engine.deduped", "count"),
		lower("engine.simulated", "count"),
		lower("engine.stored", "count"),
		lower("engine.load_errors", "count"),
		lower("engine.store_errors", "count"),
		higher("engine.hit_ratio", "ratio"),
		lower("engine.hash_us", "us"),
		lower("engine.mem_hit_us", "us"),
		lower("engine.disk_hit_us", "us"),
		lower("engine.store_write_us", "us"),
		lower("sched.decision_us", "us"),
	)
	for _, m := range modelNames {
		defs = append(defs, lower("model.predict_us."+m, "us"))
	}
	defs = append(defs,
		lower("runtime.alloc_mb", "MiB"),
		lower("runtime.gc_cycles", "count"),
		lower("runtime.gc_cpu_s", "s"),
	)
	for _, b := range shareBuckets {
		defs = append(defs, lower("share."+b, "%"))
	}
	return append(defs, lower("trace.overhead_pct", "%"))
}
