package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/hpcperf/switchprobe/internal/core"
	"github.com/hpcperf/switchprobe/internal/engine"
	"github.com/hpcperf/switchprobe/internal/experiments"
)

// The parent runs every workload in a child process of this same binary,
// selected by roleEnv, so that each workload gets a fresh process with its
// own GOMAXPROCS and peak RSS.
const (
	roleEnv = "SWBENCH_ROLE"
	// roleSetup children set up, report ready and exit: extra set-up samples.
	roleSetup = "setup"
	// roleRun children set up, report ready, run the iterations and print a
	// childReport as their last stdout line.
	roleRun = "run"
	// rolePrime children run one warm-replay iteration on an empty store.
	rolePrime = "prime"
)

// readyPrefix starts the line a child prints once set-up is done, followed
// by the wall clock in Unix nanoseconds.  The parent takes set-up time from
// that stamp rather than from when it reads the line, which would add its
// own wake-up latency.
const readyPrefix = "ready "

// maxFailures caps the distinct failure messages a child reports.
const maxFailures = 20

// childReport is a run child's result, the last line of its stdout.
type childReport struct {
	Iterations []iterSample       `json:"iterations"`
	Failures   []string           `json:"failures,omitempty"`
	Digest     string             `json:"digest"`
	Quality    map[string]float64 `json:"quality,omitempty"`
	Layers     map[string]float64 `json:"layers,omitempty"`
}

// iterSample is one timed iteration: wall and process CPU time of the
// campaign calls and of the latest speed probe, the peak resident set while
// the calls ran, and the layer counters they moved.
type iterSample struct {
	WallS      float64            `json:"wall_s"`
	CPUS       float64            `json:"cpu_s"`
	ProbeS     float64            `json:"probe_s"`
	ProbeCPUS  float64            `json:"probe_cpu_s"`
	PeakRSSMiB float64            `json:"peak_rss_mib"`
	Traced     bool               `json:"traced,omitempty"`
	Failed     bool               `json:"failed,omitempty"`
	Counters   map[string]float64 `json:"counters"`
}

type child struct {
	w    *workload
	o    options
	cfg  experiments.Config
	tr   *tracer
	refs references

	digest  string
	shares  map[string]int64
	quality map[string]float64
	failed  map[string]bool

	// probed is when the speed probe last ran, and probeS and probeCPUS
	// what it took.
	probed            time.Time
	probeS, probeCPUS float64
}

func childMain(role string, args []string) int {
	err := func() error {
		o, err := parseOptions(args, os.Stderr)
		if err != nil {
			return err
		}
		w, err := workloadByName(o.workload)
		if err != nil {
			return err
		}
		cfg, err := w.config(o.seed, o.tiny())
		if err != nil {
			return err
		}
		c := &child{w: w, o: o, cfg: cfg, tr: newTracer(false), shares: map[string]int64{}, failed: map[string]bool{}}
		switch role {
		case rolePrime:
			return c.prime()
		case roleSetup, roleRun:
			return c.run(role == roleSetup)
		}
		return fmt.Errorf("unknown role %q", role)
	}()
	if err != nil {
		fmt.Fprintf(os.Stderr, "swbench %s: %v\n", role, err)
		return 1
	}
	return 0
}

// untraced runs a phase without recording it.
func untraced(_ string, fn func() error) error { return fn() }

// prime fills the store with one uncached run of the workload's campaigns.
func (c *child) prime() error {
	eng, err := engine.New(c.o.store)
	if err != nil {
		return err
	}
	if _, err := c.w.run(experiments.NewSuiteWithEngine(c.cfg, eng), c.o.seed, c.o.tiny(), untraced); err != nil {
		return fmt.Errorf("priming the store: %w", err)
	}
	if st := eng.Stats(); st.Stored == 0 || st.StoreErrors > 0 {
		return fmt.Errorf("priming the store: %s", st)
	}
	return nil
}

func (c *child) run(setupOnly bool) error {
	// Set-up: configuration (done by the caller), and one engine and store
	// open with suite construction.
	if _, _, err := c.open(c.iterDir(0)); err != nil {
		return err
	}
	if _, err := fmt.Println(readyPrefix + strconv.FormatInt(time.Now().UnixNano(), 10)); err != nil {
		return err
	}
	if setupOnly {
		return nil
	}
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	c.refs = refs

	var rep childReport
	if !c.o.tiny() {
		// One discarded warm-up iteration: page cache, lazily built tables
		// and pools are filled before timing starts.
		_, fails := c.iterate(0, false)
		c.fail(fails...)
	}
	start := time.Now()
	budget := time.Duration(c.o.seconds) * time.Second
	for i := 1; ; i++ {
		// Traced runs alternate untraced and traced iterations, so the two
		// sides see the same machine conditions.
		traced := c.o.trace == 1 && i%2 == 0
		sample, fails := c.iterate(i, traced)
		rep.Iterations = append(rep.Iterations, sample)
		c.fail(fails...)
		if c.o.iterations > 0 {
			if i >= c.o.iterations {
				break
			}
			continue
		}
		if time.Since(start) >= budget && (c.o.trace == 0 || i >= 2) {
			break
		}
	}
	if c.o.trace == 1 {
		layers, err := c.layerMetrics()
		if err != nil {
			c.fail(err.Error())
		}
		rep.Layers = layers
		if err := c.tr.write(c.o.spans); err != nil {
			c.fail(err.Error())
		}
	}
	rep.Digest, rep.Quality = c.digest, c.quality
	for msg := range c.failed {
		rep.Failures = append(rep.Failures, msg)
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// fail records distinct failure messages, up to maxFailures.
func (c *child) fail(msgs ...string) {
	for _, m := range msgs {
		if len(c.failed) < maxFailures {
			c.failed[m] = true
		}
	}
}

// iterDir is the store directory of iteration i: the primed store for warm
// workloads, a fresh directory for cold ones.
func (c *child) iterDir(i int) string {
	if c.w.warm {
		return c.o.store
	}
	return filepath.Join(c.o.runDir, fmt.Sprintf("iter-%d", i))
}

func (c *child) open(dir string) (*engine.Engine, *experiments.Suite, error) {
	eng, err := engine.New(dir)
	if err != nil {
		return nil, nil, err
	}
	return eng, experiments.NewSuiteWithEngine(c.cfg, eng), nil
}

// phase runs one call into the experiments layer under a span.
func (c *child) phase(name string, fn func() error) error {
	defer c.tr.begin(name)()
	return fn()
}

// iterate runs one iteration: open a suite, run the campaign calls, and
// check the outcome.  Wall and CPU time cover the open and the campaign
// calls; the check runs after timing stops.
func (c *child) iterate(i int, traced bool) (iterSample, []string) {
	dir := c.iterDir(i)
	if !c.w.warm {
		defer os.RemoveAll(dir)
	}
	// Each iteration starts from a collected heap returned to the OS, as a
	// campaign started in a fresh process would, and measures its own peak
	// resident set.  The speed probe runs on that quiet heap too.
	debug.FreeOSMemory()
	if time.Since(c.probed) >= probeEvery {
		c.probed = time.Now()
		c.probeS, c.probeCPUS = speedProbe(c.w.procs)
	}
	resetPeakRSS()
	c.tr.on = traced
	c.tr.beginRequest()
	endIteration := c.tr.begin("iteration")
	defer endIteration()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return iterSample{Failed: true}, []string{err.Error()}
		}
	}

	before := takeSnapshot()
	var (
		eng   *engine.Engine
		suite *experiments.Suite
		out   outcome
	)
	err := c.phase("open", func() (err error) {
		eng, suite, err = c.open(dir)
		return err
	})
	if err == nil {
		out, err = c.w.run(suite, c.o.seed, c.o.tiny(), c.phase)
	}
	after := takeSnapshot()

	var fails []string
	if traced {
		pprof.StopCPUProfile()
		if err := c.addProfile(prof.Bytes()); err != nil {
			fails = append(fails, err.Error())
		}
	}
	var es engine.Stats
	if eng != nil {
		es = eng.Stats()
	}
	sample := iterSample{
		WallS:      after.wall.Sub(before.wall).Seconds(),
		CPUS:       after.cpuS - before.cpuS,
		ProbeS:     c.probeS,
		ProbeCPUS:  c.probeCPUS,
		PeakRSSMiB: peakRSSMiB(),
		Traced:     traced,
		Counters:   counters(before, after, es, c.w.procs),
	}
	if err != nil {
		fails = append(fails, err.Error())
	} else {
		_ = c.phase("check", func() error {
			fails = append(fails, c.check(out, es, before, after)...)
			return nil
		})
	}
	sample.Failed = len(fails) > 0
	return sample, fails
}

// check applies the correctness checks to one iteration's outcome.
func (c *child) check(out outcome, es engine.Stats, before, after snapshot) []string {
	var fails []string
	h := sha256.New()
	for _, t := range out.tables {
		if err := t.WriteCSV(h); err != nil {
			fails = append(fails, fmt.Sprintf("rendering %q: %v", t.Title, err))
		}
	}
	// The determinism contract: the same seed renders the same CSV bytes
	// on every iteration.
	digest := hex.EncodeToString(h.Sum(nil))
	if c.digest == "" {
		c.digest = digest
	} else if digest != c.digest {
		fails = append(fails, fmt.Sprintf("result digest %.12s differs from the first iteration's %.12s", digest, c.digest))
	}
	fails = append(fails, out.sum.finite()...)
	if !c.o.tiny() {
		if ref, ok := c.refs.lookup(c.o.seed, c.w.name); ok {
			fails = append(fails, bandViolations(ref, out.sum)...)
		}
	}
	if c.w.warm {
		if es.Simulated != 0 {
			fails = append(fails, fmt.Sprintf("warm replay simulated %d specs", es.Simulated))
		}
		if runs := after.usage.Runs - before.usage.Runs; runs != 0 {
			fails = append(fails, fmt.Sprintf("warm replay executed %d live simulation runs", runs))
		}
		c.quality = map[string]float64{"queue_mae_pts": out.sum.QueueMAE, "sched_gain_pct": out.sum.SchedGain}
	}
	return fails
}

// addProfile folds one traced iteration's CPU profile into the share counts.
func (c *child) addProfile(data []byte) error {
	p, err := parseProfile(data)
	if err != nil {
		return err
	}
	counts, err := p.bucketCounts()
	if err != nil {
		return err
	}
	for b, n := range counts {
		c.shares[b] += n
	}
	return nil
}

// resetPeakRSS restarts the kernel's resident-set high-water mark (VmHWM)
// at the current resident set.  Where the kernel does not allow it, VmHWM
// stays the peak of the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB returns VmHWM in MiB, or 0 where /proc is not available.
func peakRSSMiB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscanf(rest, "%g kB", &kib); err == nil {
				return kib / 1024
			}
		}
	}
	return 0
}

// snapshot is the process state an iteration's deltas are taken between.
type snapshot struct {
	wall  time.Time
	cpuS  float64
	usage core.SimUsage
	// allocBytes, gcCycles and gcCPUS are runtime/metrics readings.
	allocBytes, gcCycles, gcCPUS float64
}

func takeSnapshot() snapshot {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(samples)
	value := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return snapshot{
		usage:      experiments.SimUsage(),
		cpuS:       processCPUSeconds(),
		allocBytes: value(samples[0]),
		gcCycles:   value(samples[1]),
		gcCPUS:     value(samples[2]),
		wall:       time.Now(),
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters derives the per-layer counters of one iteration from the
// simulator usage, engine, and runtime deltas between two snapshots.
func counters(b, a snapshot, es engine.Stats, procs int) map[string]float64 {
	d := func(after, before int64) float64 { return float64(after - before) }
	wall := a.wall.Sub(b.wall).Seconds()
	busyNS := d(a.usage.WallNS, b.usage.WallNS)
	fired := d(a.usage.EventsFired, b.usage.EventsFired)
	elided := d(a.usage.EventsElided, b.usage.EventsElided)
	trains := d(a.usage.TrainsWalked, b.usage.TrainsWalked)
	lookups := float64(es.Lookups())
	return map[string]float64{
		"experiments.parallel_util": ratio(busyNS/1e9, wall*float64(procs)),
		"core.runs":                 d(a.usage.Runs, b.usage.Runs),
		"core.busy_s":               busyNS / 1e9,
		"core.host_s_per_virtual_s": ratio(busyNS, d(a.usage.VirtualNS, b.usage.VirtualNS)),
		"sim.events_fired":          fired,
		"sim.events_elided":         elided,
		"sim.fast_resumes":          d(a.usage.ProcFastResumes, b.usage.ProcFastResumes),
		"sim.host_ns_per_event":     ratio(busyNS, fired+elided),
		"netsim.trains":             trains,
		"netsim.pkts_per_train":     ratio(d(a.usage.TrainPackets, b.usage.TrainPackets), trains),
		"netsim.ledger_clamps":      d(a.usage.LedgerClamps, b.usage.LedgerClamps),
		"netsim.trunks_failed":      d(a.usage.TrunksFailed, b.usage.TrunksFailed),
		"netsim.retransmits":        d(a.usage.PacketsRetransmitted, b.usage.PacketsRetransmitted),
		"netsim.reroutes":           d(a.usage.RoutesRecomputed, b.usage.RoutesRecomputed),
		"engine.lookups":            lookups,
		"engine.memory_hits":        float64(es.MemoryHits),
		"engine.disk_hits":          float64(es.DiskHits),
		"engine.deduped":            float64(es.Deduped),
		"engine.simulated":          float64(es.Simulated),
		"engine.stored":             float64(es.Stored),
		"engine.load_errors":        float64(es.LoadErrors),
		"engine.store_errors":       float64(es.StoreErrors),
		"engine.hit_ratio":          ratio(float64(es.MemoryHits+es.DiskHits+es.Deduped), lookups),
		"runtime.alloc_mb":          (a.allocBytes - b.allocBytes) / (1 << 20),
		"runtime.gc_cycles":         a.gcCycles - b.gcCycles,
		"runtime.gc_cpu_s":          a.gcCPUS - b.gcCPUS,
	}
}
