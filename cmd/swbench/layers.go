package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/hpcperf/switchprobe/internal/cluster"
	"github.com/hpcperf/switchprobe/internal/core"
	"github.com/hpcperf/switchprobe/internal/engine"
	"github.com/hpcperf/switchprobe/internal/experiments"
	"github.com/hpcperf/switchprobe/internal/inject"
	"github.com/hpcperf/switchprobe/internal/model"
	"github.com/hpcperf/switchprobe/internal/mpisim"
	"github.com/hpcperf/switchprobe/internal/netsim"
	"github.com/hpcperf/switchprobe/internal/sched"
	"github.com/hpcperf/switchprobe/internal/sim"
	registry "github.com/hpcperf/switchprobe/internal/workload"
)

// The traced run prices each layer on its own after the campaign
// iterations: small drivers that call one layer's public entry points
// directly and divide host time by the work the layer reports.

// driverReps is how often each driver repeats; the median is reported.
const driverReps = 3

// layerMetrics returns the traced run's per-layer metrics: phase self times
// and CPU shares from the traced iterations, then every layer driver.
func (c *child) layerMetrics() (map[string]float64, error) {
	out := map[string]float64{}
	self := c.tr.selfTimes()
	for _, p := range phaseNames {
		out["experiments.phase_s."+p] = median(self[p])
	}
	var total int64
	for _, n := range c.shares {
		total += n
	}
	for _, b := range shareBuckets {
		out["share."+b] = 100 * ratio(float64(c.shares[b]), float64(total))
	}

	c.tr.on = true
	drivers := []struct {
		name string
		run  func(out map[string]float64) error
	}{
		{"core", c.coreAndEngineDrivers},
		{"sim", c.simDriver},
		{"netsim", c.netsimDrivers},
		{"mpisim", c.mpisimDriver},
		{"sched", c.schedAndModelDrivers},
	}
	for _, d := range drivers {
		c.tr.beginRequest()
		end := c.tr.begin("layer." + d.name)
		err := d.run(out)
		end()
		if err != nil {
			return out, fmt.Errorf("%s driver: %w", d.name, err)
		}
	}
	return out, nil
}

// size scales a driver's work count down for tiny runs.
func (c *child) size(full int) int {
	if c.o.tiny() {
		return max(1, full/10)
	}
	return full
}

// timed runs fn driverReps times and returns the median of its per-op
// costs: fn reports how many operations it did, and the result is the
// wall time per operation in the given unit.
func timed(unit time.Duration, fn func() (ops float64, err error)) (float64, error) {
	var per []float64
	for r := 0; r < driverReps; r++ {
		start := time.Now()
		ops, err := fn()
		wall := time.Since(start)
		if err != nil {
			return 0, err
		}
		if ops <= 0 {
			return 0, fmt.Errorf("driver did no work")
		}
		per = append(per, float64(wall)/float64(unit)/ops)
	}
	return median(per), nil
}

// executed is a spec with the artifact its last sweep run produced.
type executed struct {
	spec core.RunSpec
	art  core.Artifact
}

// coreAndEngineDrivers sweeps every core.ExecuteSpec kind sequentially on
// the workload's options, then prices the engine's hash, store write, disk
// hit and memory hit on the swept specs and artifacts.
func (c *child) coreAndEngineDrivers(out map[string]float64) error {
	o := c.cfg.Options
	fftw, err := registry.ByName("FFTW", o.Scale)
	if err != nil {
		return err
	}
	mcb, err := registry.ByName("MCB", o.Scale)
	if err != nil {
		return err
	}
	inj := c.cfg.ProfileGrid[len(c.cfg.ProfileGrid)/2]
	spread := o
	spread.Placement = cluster.PlaceSpread
	sweep := []struct {
		kind string
		spec core.RunSpec
	}{
		{"calibrate", core.CalibrateSpec(o)},
		{"impact", core.AppImpactSpec(o, fftw, core.SlotAll)},
		{"injector", core.InjectorImpactSpec(o, inj)},
		{"baseline", core.BaselineSpec(o, fftw, core.SlotAll)},
		{"compress", core.CompressSpec(o, fftw, inj, core.SlotAll)},
		{"pair", core.PairSpec(o, fftw, mcb, false)},
		{"placed_pair", core.PairSpec(spread, fftw, mcb, true)},
	}
	// Each kind repeats up to driverReps times within a per-kind budget, so
	// the 18-node preset's slow runs do not stretch the traced run.
	budget := 400 * time.Millisecond
	var cal *core.Calibration
	var done []executed
	for _, k := range sweep {
		var ms []float64
		var art core.Artifact
		for len(ms) < driverReps && (len(ms) == 0 || sum(ms) < float64(budget.Milliseconds())) {
			end := c.tr.begin("core." + k.kind)
			start := time.Now()
			art, err = core.ExecuteSpec(k.spec, cal)
			ms = append(ms, float64(time.Since(start))/float64(time.Millisecond))
			end()
			if err != nil {
				return fmt.Errorf("%s: %w", k.kind, err)
			}
		}
		if art.Calibration != nil {
			cal = art.Calibration
		}
		out["core.run_ms."+k.kind+".p50"] = median(ms)
		out["core.run_ms."+k.kind+".tail"] = sorted(ms)[len(ms)-1]
		done = append(done, executed{k.spec, art})
	}
	return engineDrivers(done, filepath.Join(c.o.runDir, "engine-driver"), c.size(50), out)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// engineDrivers prices the engine per operation over rounds passes of the
// given specs: hashing, persisting to a store, a fresh engine's disk hit,
// and the same engine's memory hit.
func engineDrivers(specs []executed, dir string, rounds int, out map[string]float64) error {
	defer os.RemoveAll(dir)
	store, err := engine.OpenStore(dir)
	if err != nil {
		return err
	}
	hashes := make([]string, len(specs))
	var hashUs, writeUs, diskUs, memUs []float64
	n := float64(len(specs))
	perOp := func(start time.Time) float64 { return float64(time.Since(start)) / float64(time.Microsecond) / n }
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for i, s := range specs {
			hashes[i] = s.spec.Hash()
		}
		hashUs = append(hashUs, perOp(start))

		start = time.Now()
		for i, s := range specs {
			if err := store.Save(s.spec, hashes[i], s.art); err != nil {
				return err
			}
		}
		writeUs = append(writeUs, perOp(start))

		eng, err := engine.New(dir)
		if err != nil {
			return err
		}
		for _, pass := range []*[]float64{&diskUs, &memUs} {
			start = time.Now()
			for _, s := range specs {
				if _, err := eng.Run(s.spec); err != nil {
					return err
				}
			}
			*pass = append(*pass, perOp(start))
		}
		if st := eng.Stats(); st.DiskHits != int64(len(specs)) || st.MemoryHits != int64(len(specs)) {
			return fmt.Errorf("engine driver expected %d disk and memory hits, got %s", len(specs), st)
		}
	}
	out["engine.hash_us"] = median(hashUs)
	out["engine.store_write_us"] = median(writeUs)
	out["engine.disk_hit_us"] = median(diskUs)
	out["engine.mem_hit_us"] = median(memUs)
	return nil
}

// simDriver prices one kernel event: 64 Post chains with pseudo-random
// delays keep the event heap populated the way concurrent flows do.
func (c *child) simDriver(out map[string]float64) error {
	events := c.size(1_000_000)
	v, err := timed(time.Nanosecond, func() (float64, error) {
		k := sim.NewKernel(c.o.seed)
		rng := rand.New(rand.NewSource(c.o.seed))
		delays := make([]sim.Duration, 1024)
		for i := range delays {
			delays[i] = sim.Duration(1 + rng.Intn(1000))
		}
		left, next := events, 0
		var fire func()
		fire = func() {
			if left <= 0 {
				return
			}
			left--
			next++
			k.Post(delays[next&1023], fire)
		}
		for i := 0; i < 64; i++ {
			k.Post(delays[i], fire)
		}
		k.Run()
		return float64(k.Stats().EventsFired), nil
	})
	out["sim.ns_per_event"] = v
	return err
}

// netsimDrivers price a delivered packet of closed-loop bulk traffic in the
// relaxed and the strict engine, a probe on an idle fabric, and a packet of
// cross-leaf bulk traffic on a fat-tree under a fault plan.
func (c *child) netsimDrivers(out map[string]float64) error {
	base := c.cfg.Options.Machine.Net
	perNode := c.size(250)
	strict := base
	strict.StrictOrder = true
	faulted := base
	faulted.Topology = netsim.FatTree{Leaves: 2, UplinksPerLeaf: 2}
	faulted.Faults = &netsim.FaultPlan{Events: []netsim.FaultEvent{
		{At: 300 * sim.Microsecond, Trunk: "leaf0.up0", Kind: netsim.FaultTrunkDown},
		{At: 900 * sim.Microsecond, Trunk: "leaf0.up0", Kind: netsim.FaultTrunkUp},
		{At: 600 * sim.Microsecond, Trunk: "leaf0.up1", Kind: netsim.FaultDegrade, Factor: 2},
	}}
	for _, d := range []struct {
		metric   string
		cfg      netsim.Config
		crossing bool
	}{
		{"netsim.bulk_ns_per_pkt", base, false},
		{"netsim.bulk_strict_ns_per_pkt", strict, false},
		{"netsim.fault_ns_per_pkt", faulted, true},
	} {
		v, err := timed(time.Nanosecond, func() (float64, error) {
			return bulkTraffic(d.cfg, c.o.seed, perNode, d.crossing)
		})
		if err != nil {
			return fmt.Errorf("%s: %w", d.metric, err)
		}
		out[d.metric] = v
	}
	v, err := timed(time.Nanosecond, func() (float64, error) {
		return probeStream(base, c.o.seed, c.size(20000))
	})
	out["netsim.probe_ns"] = v
	return err
}

// bulkTraffic keeps one message stream in flight per node, injecting the
// next message from the previous one's completion, and returns the packets
// delivered.  crossing sends every message to the paired node on the other
// half of the machine, across the fat-tree trunks.
func bulkTraffic(cfg netsim.Config, seed int64, perNode int, crossing bool) (float64, error) {
	k := sim.NewKernel(seed)
	n, err := netsim.New(k, cfg)
	if err != nil {
		return 0, err
	}
	nodes := cfg.Nodes
	delivered := 0
	var sendErr error
	var send func(src, m int)
	send = func(src, m int) {
		if m >= perNode {
			return
		}
		dst := (src + 1 + m) % nodes
		if crossing {
			dst = (src + nodes/2) % nodes
		}
		if dst == src {
			dst = (dst + 1) % nodes
		}
		size := 2048 + (m%7)*1024
		err := n.SendMessage(src, dst, size, netsim.Flow{Class: "bulk", ID: m % 8},
			func(sim.Time) { delivered++; send(src, m+1) })
		if err != nil && sendErr == nil {
			sendErr = err
		}
	}
	for src := 0; src < nodes; src++ {
		send(src, 0)
	}
	k.Run()
	if sendErr != nil {
		return 0, sendErr
	}
	if want := nodes * perNode; delivered != want {
		return 0, fmt.Errorf("delivered %d of %d messages", delivered, want)
	}
	return float64(n.Stats().PacketsDelivered), nil
}

// probeStream sends count probes with delivery observers across an idle
// fabric, 2µs apart, and returns the probes delivered.
func probeStream(cfg netsim.Config, seed int64, count int) (float64, error) {
	k := sim.NewKernel(seed)
	n, err := netsim.New(k, cfg)
	if err != nil {
		return 0, err
	}
	nodes := cfg.Nodes
	delivered := 0
	var sendErr error
	observe := func(netsim.Delivery) { delivered++ }
	for i := 0; i < count; i++ {
		src := i % nodes
		dst := (src + 1 + i/nodes%(nodes-1)) % nodes
		k.CallAt(sim.Time(i)*sim.Time(2*sim.Microsecond), func(any) {
			if err := n.SendProbe(src, dst, 512, netsim.Flow{Class: "impact"}, observe); err != nil && sendErr == nil {
				sendErr = err
			}
		}, nil)
	}
	k.Run()
	if sendErr != nil {
		return 0, sendErr
	}
	if delivered != count {
		return 0, fmt.Errorf("delivered %d of %d probes", delivered, count)
	}
	return float64(delivered), nil
}

// mpisimDriver prices one point-to-point message: every rank of a job
// spanning the machine exchanges 4 KiB eager messages with its neighbour
// through the continuation runtime.
func (c *child) mpisimDriver(out map[string]float64) error {
	o := c.cfg.Options
	rounds := c.size(500)
	v, err := timed(time.Nanosecond, func() (float64, error) {
		k := sim.NewKernel(c.o.seed)
		m, err := cluster.New(k, o.Machine)
		if err != nil {
			return 0, err
		}
		job, err := m.AllocateSpread("swbench", 1, o.Machine.Nodes())
		if err != nil {
			return 0, err
		}
		w, err := mpisim.NewWorld(m, job, o.MPI)
		if err != nil {
			return 0, err
		}
		w.LaunchProgram(func(r *mpisim.Rank, done mpisim.Cont) {
			peer := r.Rank() ^ 1
			if peer >= r.Size() {
				done()
				return
			}
			var round func(i int)
			round = func(i int) {
				if i == rounds {
					done()
					return
				}
				r.SendRecvThen(peer, 0, 4096, peer, 0, func() { round(i + 1) })
			}
			round(0)
		})
		k.Run()
		if !w.Done() {
			return 0, fmt.Errorf("exchange did not finish")
		}
		return float64(w.Stats().MessagesSent), nil
	})
	out["mpisim.ns_per_msg"] = v
	return err
}

// schedAndModelDrivers price one scheduler placement decision and one
// predictor call on the sched campaign's contended fat-tree at the ci
// preset, for every workload.  The oracle is warmed first: from the primed
// store on warm-replay, by simulation elsewhere.
func (c *child) schedAndModelDrivers(out map[string]float64) error {
	cfg, err := campaignConfig(experiments.PresetCI, c.o.seed, c.o.tiny())
	if err != nil {
		return err
	}
	dir := ""
	if c.w.warm {
		dir = c.o.store
	}
	eng, err := engine.New(dir)
	if err != nil {
		return err
	}
	o := cfg.Options
	nodes := o.Machine.Nodes()
	scens := experiments.DefaultSchedScenarios(nodes)
	o.Machine.Net.Topology = scens[len(scens)-1].Topology
	grid := cfg.ProfileGrid
	if len(grid) > 3 {
		// The sched campaign's predictor grid: first, middle and last.
		grid = []inject.Config{grid[0], grid[len(grid)/2], grid[len(grid)-1]}
	}
	oracle := sched.NewEngineOracle(eng, o, grid)
	apps := schedApps(c.o.tiny())

	var warm []func() error
	for _, a := range apps {
		warm = append(warm,
			func() error { _, err := oracle.SoloIterationSec(a); return err },
			func() error { _, err := oracle.Signature(a); return err },
			func() error { _, err := oracle.Profile(a); return err })
		for _, b := range apps {
			warm = append(warm,
				func() error { _, err := oracle.SharedSlowdownPct(a, b); return err },
				func() error { _, err := oracle.DisjointSlowdownPct(a, b); return err })
		}
	}
	if err := engine.Parallel(len(warm), c.w.procs,
		func(i int) string { return fmt.Sprintf("warming the sched oracle (%d)", i) },
		func(i int) error { return warm[i]() }); err != nil {
		return err
	}

	// The arrival stream is sized like the campaign's: offered load 1 over
	// six slots, 40..80 solo iterations, 20% double-width jobs.
	meanSolo := 0.0
	for _, a := range apps {
		iter, err := oracle.SoloIterationSec(a)
		if err != nil {
			return err
		}
		meanSolo += iter * 60 / float64(len(apps))
	}
	const slots = 6
	jobs, err := sched.ArrivalSpec{
		Jobs: max(4, c.size(16)), Seed: c.o.seed, Mix: apps,
		MeanInterarrival: meanSolo * 1.2 / slots,
		MinIterations:    40, MaxIterations: 80, TwoSlotFraction: 0.2,
	}.Generate()
	if err != nil {
		return err
	}
	decision, err := timed(time.Microsecond, func() (float64, error) {
		decisions := 0
		for _, name := range sched.PolicyNames() {
			policy, err := sched.NewPolicy(name, c.o.seed, model.Queue{}, oracle)
			if err != nil {
				return 0, err
			}
			res, err := sched.Run(sched.Config{
				Machine: o.Machine, Seed: c.o.seed, NodesPerSlot: max(1, nodes/slots),
				Jobs: jobs, Policy: policy, Oracle: oracle,
			})
			if err != nil {
				return 0, fmt.Errorf("policy %s: %w", name, err)
			}
			decisions += len(res.Decisions)
		}
		return float64(decisions), nil
	})
	if err != nil {
		return err
	}
	out["sched.decision_us"] = decision

	var profs []core.Profile
	var sigs []core.Signature
	for _, a := range apps {
		prof, err := oracle.Profile(a)
		if err != nil {
			return err
		}
		sig, err := oracle.Signature(a)
		if err != nil {
			return err
		}
		profs, sigs = append(profs, prof), append(sigs, sig)
	}
	calls := c.size(200)
	for _, m := range model.All() {
		v, err := timed(time.Microsecond, func() (float64, error) {
			n := 0
			for i := 0; i < calls; i++ {
				for _, prof := range profs {
					for _, sig := range sigs {
						if _, err := m.Predict(prof, sig); err != nil {
							return 0, err
						}
						n++
					}
				}
			}
			return float64(n), nil
		})
		if err != nil {
			return fmt.Errorf("%s: %w", m.Name(), err)
		}
		out["model.predict_us."+m.Name()] = v
	}
	return nil
}
