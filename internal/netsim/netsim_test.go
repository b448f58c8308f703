package netsim

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"github.com/hpcperf/switchprobe/internal/sim"
)

func testConfig() Config {
	cfg := CabConfig()
	cfg.Nodes = 4
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := CabConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Nodes = 1 },
		func(c *Config) { c.LinkBandwidth = 0 },
		func(c *Config) { c.MTU = 0 },
		func(c *Config) { c.TailProb = 1.5 },
		func(c *Config) { c.TailProb = -0.1 },
		func(c *Config) { c.EgressBufferBytes = -1 },
		func(c *Config) { c.EgressBufferBytes = 100 },
	}
	for i, mutate := range bad {
		c := CabConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	k := sim.NewKernel(1)
	if _, err := New(k, Config{}); err == nil {
		t.Fatal("expected error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic")
		}
	}()
	MustNew(k, Config{})
}

func TestCabConfigShape(t *testing.T) {
	c := CabConfig()
	if c.Nodes != 18 {
		t.Fatalf("nodes = %d, want 18", c.Nodes)
	}
	if c.LinkBandwidth != 5e9 {
		t.Fatalf("bandwidth = %v, want 5e9", c.LinkBandwidth)
	}
}

// TestConfigFingerprintCoversEveryModelField enforces Fingerprint's contract
// field by field: changing any Config field must change the fingerprint, or
// runs that simulate differently would share cached artifacts.  The table
// must name every Config field, so a new field cannot be added without a
// fingerprint case.
func TestConfigFingerprintCoversEveryModelField(t *testing.T) {
	mutations := map[string]func(*Config){
		"Nodes":             func(c *Config) { c.Nodes = 12 },
		"LinkBandwidth":     func(c *Config) { c.LinkBandwidth = 4e9 },
		"MTU":               func(c *Config) { c.MTU = 2048 },
		"WireDelay":         func(c *Config) { c.WireDelay = 300 * sim.Nanosecond },
		"FabricDelay":       func(c *Config) { c.FabricDelay = 250 * sim.Nanosecond },
		"FabricJitter":      func(c *Config) { c.FabricJitter = 100 * sim.Nanosecond },
		"TailProb":          func(c *Config) { c.TailProb = 0.03 },
		"TailDelay":         func(c *Config) { c.TailDelay = 3 * sim.Microsecond },
		"EgressBufferBytes": func(c *Config) { c.EgressBufferBytes = 8 * 1024 },
		"Topology":          func(c *Config) { c.Topology = FatTree{Leaves: 3, UplinksPerLeaf: 2} },
		"StrictOrder":       func(c *Config) { c.StrictOrder = true },
		"Faults": func(c *Config) {
			c.Faults = &FaultPlan{Events: []FaultEvent{{At: sim.Millisecond, Trunk: "leaf0.up1", Kind: FaultTrunkDown}}}
		},
	}

	typ := reflect.TypeOf(Config{})
	if typ.NumField() != len(mutations) {
		t.Fatalf("Config has %d fields, the table covers %d", typ.NumField(), len(mutations))
	}
	base := CabConfig().Fingerprint()
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		mutate, ok := mutations[name]
		if !ok {
			t.Fatalf("Config.%s has no fingerprint case", name)
		}
		c := CabConfig()
		mutate(&c)
		if c.Fingerprint() == base {
			t.Errorf("Config.%s left the fingerprint unchanged", name)
		}
	}
}

func TestIdleProbeLatency(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := testConfig()
	cfg.TailProb = 0 // deterministic path for this test
	cfg.FabricJitter = 0
	n := MustNew(k, cfg)
	var got sim.Duration
	err := n.SendProbe(0, 1, 1024, Flow{Class: "impact", ID: 0}, func(d Delivery) {
		got = d.Latency()
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	want := n.IdleLatencyEstimate(1024)
	if got != want {
		t.Fatalf("idle probe latency = %v, want %v", got, want)
	}
	// Sanity: the Cab-like idle latency should be around 1-1.5 µs.
	if got < 800*sim.Nanosecond || got > 2*sim.Microsecond {
		t.Fatalf("idle latency %v outside the expected Cab-like range", got)
	}
}

func TestProbeErrors(t *testing.T) {
	k := sim.NewKernel(1)
	n := MustNew(k, testConfig())
	cases := []struct {
		src, dst, size int
	}{
		{0, 0, 100},     // same node
		{-1, 1, 100},    // src out of range
		{0, 99, 100},    // dst out of range
		{0, 1, 0},       // zero size
		{0, 1, 1 << 20}, // larger than MTU
	}
	for i, c := range cases {
		if err := n.SendProbe(c.src, c.dst, c.size, Flow{}, nil); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestMessageErrors(t *testing.T) {
	k := sim.NewKernel(1)
	n := MustNew(k, testConfig())
	if err := n.SendMessage(0, 0, 100, Flow{}, nil); err == nil {
		t.Fatal("expected same-node error")
	}
	if err := n.SendMessage(0, 1, 0, Flow{}, nil); err == nil {
		t.Fatal("expected size error")
	}
	if err := n.SendMessage(5, 1, 10, Flow{}, nil); err == nil {
		t.Fatal("expected range error")
	}
}

func TestMessageSegmentationAndCompletion(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := testConfig()
	n := MustNew(k, cfg)
	size := cfg.MTU*3 + 100 // 4 packets
	completions := 0
	var completedAt sim.Time
	if err := n.SendMessage(0, 2, size, Flow{Class: "app", ID: 7}, func(at sim.Time) {
		completions++
		completedAt = at
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if completions != 1 {
		t.Fatalf("completions = %d, want 1", completions)
	}
	if completedAt == 0 {
		t.Fatal("completion time not set")
	}
	s := n.Stats()
	if s.PacketsDelivered != 4 {
		t.Fatalf("packets = %d, want 4", s.PacketsDelivered)
	}
	if s.BytesDelivered != int64(size) {
		t.Fatalf("bytes = %d, want %d", s.BytesDelivered, size)
	}
	if s.BytesByClass["app"] != int64(size) {
		t.Fatalf("bytes by class = %v", s.BytesByClass)
	}
}

func TestObserverSeesEveryPacket(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := testConfig()
	n := MustNew(k, cfg)
	seen := 0
	n.Observe(func(d Delivery) {
		seen++
		if d.Latency() <= 0 {
			t.Errorf("non-positive latency %v", d.Latency())
		}
	})
	if err := n.SendMessage(1, 3, cfg.MTU*5, Flow{Class: "x"}, nil); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if seen != 5 {
		t.Fatalf("observer saw %d packets, want 5", seen)
	}
}

func TestSingleFlowThroughputNearLinkRate(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := testConfig()
	n := MustNew(k, cfg)
	const totalBytes = 10 << 20 // 10 MB
	done := sim.Time(0)
	if err := n.SendMessage(0, 1, totalBytes, Flow{Class: "bulk"}, func(at sim.Time) { done = at }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	elapsed := done.Seconds()
	gbps := float64(totalBytes) / elapsed
	// Should achieve at least 80% of link bandwidth and never exceed it by
	// more than rounding.
	if gbps < 0.8*cfg.LinkBandwidth {
		t.Fatalf("throughput %.2e B/s too low (link %.2e)", gbps, cfg.LinkBandwidth)
	}
	if gbps > 1.05*cfg.LinkBandwidth {
		t.Fatalf("throughput %.2e B/s exceeds link bandwidth %.2e", gbps, cfg.LinkBandwidth)
	}
}

func TestRoundRobinProtectsProbeFromBulkFlow(t *testing.T) {
	// A probe sharing the NIC with a large in-flight bulk message must not
	// wait for the entire message: the NIC arbitrates per flow.
	k := sim.NewKernel(1)
	cfg := testConfig()
	cfg.TailProb = 0
	n := MustNew(k, cfg)
	bulkBytes := 2 << 20 // 2 MB to a different destination
	if err := n.SendMessage(0, 2, bulkBytes, Flow{Class: "bulk", ID: 1}, nil); err != nil {
		t.Fatal(err)
	}
	var probeLatency sim.Duration
	k.After(10*sim.Microsecond, func() {
		if err := n.SendProbe(0, 1, 1024, Flow{Class: "impact", ID: 0}, func(d Delivery) {
			probeLatency = d.Latency()
		}); err != nil {
			t.Fatal(err)
		}
	})
	k.Run()
	bulkDrain := n.serialization(bulkBytes)
	if probeLatency == 0 {
		t.Fatal("probe never delivered")
	}
	if probeLatency > bulkDrain/10 {
		t.Fatalf("probe latency %v suggests FIFO behind the whole bulk message (drain %v)", probeLatency, bulkDrain)
	}
	if probeLatency < n.IdleLatencyEstimate(1024) {
		t.Fatalf("probe latency %v below idle estimate", probeLatency)
	}
}

func TestBackpressureBoundsLatencyAndThrottlesSenders(t *testing.T) {
	// Several nodes blast traffic at node 0; with finite egress buffers the
	// probe latency through the hot port stays bounded near the buffer drain
	// time, while with unlimited buffers it grows far beyond it.
	run := func(buffer int) sim.Duration {
		k := sim.NewKernel(7)
		cfg := testConfig()
		cfg.EgressBufferBytes = buffer
		cfg.TailProb = 0
		n := MustNew(k, cfg)
		for src := 1; src < cfg.Nodes; src++ {
			if err := n.SendMessage(src, 0, 4<<20, Flow{Class: "blast", ID: src}, nil); err != nil {
				t.Fatal(err)
			}
		}
		var lat sim.Duration
		k.After(500*sim.Microsecond, func() {
			if err := n.SendProbe(1, 0, 1024, Flow{Class: "impact"}, func(d Delivery) { lat = d.Latency() }); err != nil {
				t.Fatal(err)
			}
		})
		k.Run()
		if lat == 0 {
			t.Fatal("probe never delivered")
		}
		return lat
	}
	bounded := run(32 * 1024)
	unbounded := run(0)
	bufferDrain := sim.Duration(float64(32*1024) / testConfig().LinkBandwidth * float64(sim.Second))
	if bounded > 6*bufferDrain {
		t.Fatalf("back-pressured probe latency %v far exceeds buffer drain %v", bounded, bufferDrain)
	}
	if unbounded < 4*bounded {
		t.Fatalf("unlimited-buffer latency %v not much larger than bounded %v", unbounded, bounded)
	}
}

func TestStallEventsCountedUnderCongestion(t *testing.T) {
	k := sim.NewKernel(3)
	cfg := testConfig()
	n := MustNew(k, cfg)
	for src := 1; src < cfg.Nodes; src++ {
		if err := n.SendMessage(src, 0, 1<<20, Flow{Class: "blast", ID: src}, nil); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	if n.Stats().StallEvents == 0 {
		t.Fatal("expected stall events when a single egress port is oversubscribed")
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	// Mean probe latency must increase monotonically-ish with background load;
	// this is the physical basis of the whole methodology.
	meanProbe := func(bgMessages int) float64 {
		k := sim.NewKernel(11)
		cfg := testConfig()
		n := MustNew(k, cfg)
		// Background: each node sends bgMessages of 40 KB to the next node
		// every 200 µs.
		for node := 0; node < cfg.Nodes; node++ {
			node := node
			var burst func()
			burst = func() {
				for m := 0; m < bgMessages; m++ {
					dst := (node + 1 + m%(cfg.Nodes-1)) % cfg.Nodes
					if dst == node {
						dst = (dst + 1) % cfg.Nodes
					}
					_ = n.SendMessage(node, dst, 40*1024, Flow{Class: "bg", ID: node}, nil)
				}
				k.Post(200*sim.Microsecond, burst)
			}
			k.Post(0, burst)
		}
		var sum float64
		var count int
		var probe func()
		probe = func() {
			_ = n.SendProbe(0, 2, 1024, Flow{Class: "impact"}, func(d Delivery) {
				sum += d.Latency().Micros()
				count++
			})
			k.Post(50*sim.Microsecond, probe)
		}
		k.Post(0, func() { k.Post(50*sim.Microsecond, probe) })
		k.RunUntil(sim.Time(20 * sim.Millisecond))
		k.Shutdown()
		if count == 0 {
			t.Fatal("no probes delivered")
		}
		return sum / float64(count)
	}
	idle := meanProbe(0)
	light := meanProbe(1)
	heavy := meanProbe(8)
	if !(idle < light && light < heavy) {
		t.Fatalf("latency not increasing with load: idle=%.2f light=%.2f heavy=%.2f µs", idle, light, heavy)
	}
	if idle < 1.0 || idle > 2.0 {
		t.Fatalf("idle mean latency %.2f µs outside the expected ~1.25 µs band", idle)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (int64, sim.Time) {
		k := sim.NewKernel(99)
		cfg := testConfig()
		n := MustNew(k, cfg)
		var last sim.Time
		n.Observe(func(d Delivery) { last = d.Arrived })
		for i := 0; i < 10; i++ {
			src := i % cfg.Nodes
			dst := (i + 1) % cfg.Nodes
			if err := n.SendMessage(src, dst, 10000+i*1000, Flow{Class: "x", ID: i}, nil); err != nil {
				t.Fatal(err)
			}
		}
		k.Run()
		return n.Stats().PacketsDelivered, last
	}
	p1, t1 := run()
	p2, t2 := run()
	if p1 != p2 || t1 != t2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", p1, t1, p2, t2)
	}
}

// leafStormRun drives a fat-tree workload that alternates leaf-local storms
// with a cross-leaf phase loading every spine trunk, and returns the full
// delivery trace plus the final statistics.
func leafStormRun() (string, Stats, error) {
	k := sim.NewKernel(123)
	cfg := CabConfig()
	cfg.Nodes = 16
	cfg.Topology = FatTree{Leaves: 4, UplinksPerLeaf: 2}
	n := MustNew(k, cfg)
	var trace strings.Builder
	n.Observe(func(d Delivery) {
		fmt.Fprintf(&trace, "%d>%d sz=%d sent=%d arr=%d\n",
			d.Src, d.Dst, d.Size, int64(d.Sent), int64(d.Arrived))
	})
	var sendErr error
	send := func(src, dst, size int, flow Flow) {
		if err := n.SendMessage(src, dst, size, flow, nil); err != nil && sendErr == nil {
			sendErr = err
		}
	}
	localStorm := func(round int) {
		for leaf := 0; leaf < 4; leaf++ {
			for a := 0; a < 4; a++ {
				for b := 0; b < 4; b++ {
					if a != b {
						src, dst := leaf*4+a, leaf*4+b
						send(src, dst, 48*1024+src*131+round*977, Flow{Class: "local", ID: round*1000 + src*16 + dst})
					}
				}
			}
		}
	}
	localStorm(0)
	k.CallAt(2*sim.Time(sim.Millisecond), func(any) {
		for src := 0; src < 16; src++ {
			send(src, (src+5)%16, 96*1024, Flow{Class: "cross", ID: 2000 + src})
		}
	}, nil)
	k.CallAt(5*sim.Time(sim.Millisecond), func(any) { localStorm(1) }, nil)
	k.Run()
	return trace.String(), n.Stats(), sendErr
}

// TestConcurrentNetworksByteIdentical: a network is driven only by the
// goroutine that runs its kernel and shares no mutable state with any other
// network, so simulations run side by side — as engine.Parallel runs
// campaign specs under -parallel — reproduce a lone run's schedule byte for
// byte.  Under -race it also catches state shared between networks.
func TestConcurrentNetworksByteIdentical(t *testing.T) {
	wantTrace, wantStats, err := leafStormRun()
	if err != nil {
		t.Fatal(err)
	}
	if wantStats.BytesByClass["local"] == 0 || wantStats.BytesByClass["cross"] == 0 {
		t.Fatalf("workload lost a phase: bytes by class %v", wantStats.BytesByClass)
	}
	type result struct {
		trace string
		stats Stats
		err   error
	}
	results := make([]result, 4)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(r *result) {
			defer wg.Done()
			r.trace, r.stats, r.err = leafStormRun()
		}(&results[i])
	}
	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("copy %d: %v", i, r.err)
		}
		if r.trace != wantTrace {
			t.Fatalf("copy %d: delivery trace diverges from a lone run:\nlone:\n%s\nconcurrent:\n%s",
				i, head(wantTrace, 20), head(r.trace, 20))
		}
		if !reflect.DeepEqual(r.stats, wantStats) {
			t.Fatalf("copy %d: stats diverge from a lone run:\nlone: %+v\nconcurrent: %+v", i, wantStats, r.stats)
		}
	}
}

func TestMeanLinkUtilization(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := testConfig()
	n := MustNew(k, cfg)
	if err := n.SendMessage(0, 1, 5<<20, Flow{Class: "x"}, nil); err != nil {
		t.Fatal(err)
	}
	end := k.Run()
	u := n.MeanLinkUtilization(sim.Duration(end))
	if u <= 0 || u > 1 {
		t.Fatalf("utilization = %v", u)
	}
	if n.MeanLinkUtilization(0) != 0 {
		t.Fatal("zero elapsed should give zero utilization")
	}
}

// Property: every byte sent is eventually delivered exactly once
// (conservation), for arbitrary message patterns.
func TestConservationProperty(t *testing.T) {
	prop := func(spec []uint16) bool {
		k := sim.NewKernel(5)
		cfg := testConfig()
		n := MustNew(k, cfg)
		var sent int64
		completions := 0
		want := 0
		for i, s := range spec {
			if i >= 25 {
				break
			}
			src := int(s) % cfg.Nodes
			dst := (src + 1 + int(s>>3)%(cfg.Nodes-1)) % cfg.Nodes
			if dst == src {
				continue
			}
			size := int(s%200)*97 + 1
			sent += int64(size)
			want++
			if err := n.SendMessage(src, dst, size, Flow{Class: "p", ID: i}, func(sim.Time) { completions++ }); err != nil {
				return false
			}
		}
		k.Run()
		st := n.Stats()
		return st.BytesDelivered == sent && completions == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPacketDelivery(b *testing.B) {
	k := sim.NewKernel(1)
	cfg := CabConfig()
	n := MustNew(k, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i % cfg.Nodes
		dst := (i + 1) % cfg.Nodes
		if err := n.SendProbe(src, dst, 1024, Flow{Class: "bench"}, nil); err != nil {
			b.Fatal(err)
		}
		k.Run()
	}
}

// benchBulkTraffic drives a closed-loop message load through the bare
// network kernel — no mpisim ranks, no measurement harness — so the relaxed
// and strict pipelines can be compared on pure simulator throughput (the
// end-to-end campaign benchmarks dilute the kernel with rank scheduling).
// Every node keeps one message stream in flight, injecting the next message
// from the previous one's completion, the steady-state shape campaign
// traffic has between bursts.
func benchBulkTraffic(b *testing.B, strict bool) {
	const perNode = 250
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(1)
		cfg := CabConfig()
		cfg.StrictOrder = strict
		n := MustNew(k, cfg)
		delivered := 0
		var send func(src, m int)
		send = func(src, m int) {
			if m >= perNode {
				return
			}
			dst := (src + 1 + m) % cfg.Nodes
			if dst == src {
				dst = (dst + 1) % cfg.Nodes
			}
			size := 2048 + (m%7)*1024
			if err := n.SendMessage(src, dst, size, Flow{Class: "bulk", ID: m % 8},
				func(sim.Time) { delivered++; send(src, m+1) }); err != nil {
				b.Fatal(err)
			}
		}
		for src := 0; src < cfg.Nodes; src++ {
			send(src, 0)
		}
		k.Run()
		if want := cfg.Nodes * perNode; delivered != want {
			b.Fatalf("delivered %d of %d messages", delivered, want)
		}
	}
}

func BenchmarkBulkTrafficRelaxed(b *testing.B) { benchBulkTraffic(b, false) }
func BenchmarkBulkTrafficStrict(b *testing.B)  { benchBulkTraffic(b, true) }

// benchFaultTraffic is the faulted-vs-clean A/B pair for the fault-injection
// machinery: the same closed-loop cross-leaf load over a redundant fat-tree,
// with and without a plan that fails one leaf-0 uplink mid-run (repaired
// later) and halves the other.  The clean run prices the cost of merely
// carrying the fault hooks on the hot path; the faulted run prices failover
// recomputation, NIC retransmits, and lookahead clamping, and exports the
// fault counters as benchmark metrics so CI can assert the machinery
// actually engaged.
func benchFaultTraffic(b *testing.B, faulted bool) {
	const perNode = 250
	b.ReportAllocs()
	var st Stats
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(1)
		cfg := CabConfig()
		cfg.Topology = FatTree{Leaves: 2, UplinksPerLeaf: 2}
		if faulted {
			cfg.Faults = &FaultPlan{Events: []FaultEvent{
				{At: 300 * sim.Microsecond, Trunk: "leaf0.up0", Kind: FaultTrunkDown},
				{At: 900 * sim.Microsecond, Trunk: "leaf0.up0", Kind: FaultTrunkUp},
				{At: 600 * sim.Microsecond, Trunk: "leaf0.up1", Kind: FaultDegrade, Factor: 2},
			}}
		}
		n := MustNew(k, cfg)
		delivered := 0
		var send func(src, m int)
		send = func(src, m int) {
			if m >= perNode {
				return
			}
			// Always cross-leaf: the paired node on the other leaf, so every
			// message rides the uplinks the plan fails.
			dst := (src + cfg.Nodes/2) % cfg.Nodes
			size := 2048 + (m%7)*1024
			if err := n.SendMessage(src, dst, size, Flow{Class: "bulk", ID: m % 8},
				func(sim.Time) { delivered++; send(src, m+1) }); err != nil {
				b.Fatal(err)
			}
		}
		for src := 0; src < cfg.Nodes; src++ {
			send(src, 0)
		}
		k.Run()
		if want := cfg.Nodes * perNode; delivered != want {
			b.Fatalf("delivered %d of %d messages", delivered, want)
		}
		st = n.Stats()
		if faulted && st.TrunksFailed == 0 {
			b.Fatal("faulted benchmark applied no trunk failures")
		}
	}
	b.ReportMetric(float64(st.TrunksFailed), "trunks_failed/op")
	b.ReportMetric(float64(st.PacketsRetransmitted), "retransmits/op")
	b.ReportMetric(float64(st.RoutesRecomputed), "reroutes/op")
}

func BenchmarkFaultTrafficFaulted(b *testing.B) { benchFaultTraffic(b, true) }
func BenchmarkFaultTrafficClean(b *testing.B)   { benchFaultTraffic(b, false) }
