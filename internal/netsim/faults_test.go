package netsim

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/hpcperf/switchprobe/internal/sim"
)

// faultTestConfig is a 2-leaf, 2-uplink oversubscribed fat-tree: 8 nodes,
// 4 per leaf, so cross-leaf traffic contends on two trunks per direction and
// one trunk failure still leaves an alternate path.
func faultTestConfig() Config {
	cfg := CabConfig()
	cfg.Nodes = 8
	cfg.Topology = FatTree{Leaves: 2, UplinksPerLeaf: 2}
	return cfg
}

func TestParseFaultPlan(t *testing.T) {
	fp, err := ParseFaultPlan("down:leaf0.up1@5ms, up:leaf0.up1@12ms ,degrade:leaf1.up0@2ms:2.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.Events) != 3 {
		t.Fatalf("events = %d, want 3", len(fp.Events))
	}
	want := []FaultEvent{
		{At: 5 * sim.Millisecond, Trunk: "leaf0.up1", Kind: FaultTrunkDown},
		{At: 12 * sim.Millisecond, Trunk: "leaf0.up1", Kind: FaultTrunkUp},
		{At: 2 * sim.Millisecond, Trunk: "leaf1.up0", Kind: FaultDegrade, Factor: 2.5},
	}
	// String re-encodes each event in the grammar it was parsed from.
	tokens := []string{"down:leaf0.up1@5ms", "up:leaf0.up1@12ms", "degrade:leaf1.up0@2ms:2.5"}
	for i, e := range want {
		if fp.Events[i] != e {
			t.Errorf("event %d = %+v, want %+v", i, fp.Events[i], e)
		}
		if got := e.String(); got != tokens[i] {
			t.Errorf("event %d renders as %q, want %q", i, got, tokens[i])
		}
	}
	if fp, err := ParseFaultPlan(""); err != nil || fp != nil {
		t.Fatalf("empty plan = %v, %v; want nil, nil", fp, err)
	}
	for _, bad := range []string{
		"explode:leaf0.up1@5ms",   // unknown kind
		"down:leaf0.up1",          // missing offset
		"down:@5ms",               // missing trunk
		"down:leaf0.up1@zzz",      // bad duration
		"degrade:leaf0.up1@5ms",   // degrade without factor
		"degrade:leaf0.up1@5ms:x", // bad factor
		"down:leaf0.up1@5ms:2",    // factor on non-degrade
		"down",                    // not even kind:trunk
	} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("ParseFaultPlan(%q): expected error", bad)
		}
	}
}

func TestFaultPlanValidate(t *testing.T) {
	cfg := faultTestConfig()
	cfg.Faults = &FaultPlan{Events: []FaultEvent{{At: sim.Millisecond, Trunk: "leaf0.up1", Kind: FaultTrunkDown}}}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Topology = nil }, // star has no trunks
		func(c *Config) {
			c.Faults = &FaultPlan{Events: []FaultEvent{{At: sim.Millisecond, Trunk: "nope", Kind: FaultTrunkDown}}}
		},
		func(c *Config) { c.Faults = &FaultPlan{MTBF: sim.Second} }, // MTBF without MTTR
		func(c *Config) {
			c.Faults = &FaultPlan{Events: []FaultEvent{{At: sim.Millisecond, Trunk: "leaf0.up1", Kind: FaultDegrade, Factor: 0.5}}}
		},
		func(c *Config) {
			c.Faults = &FaultPlan{Events: []FaultEvent{{At: -sim.Millisecond, Trunk: "leaf0.up1", Kind: FaultTrunkDown}}}
		},
		// Non-finite factors, and a finite one whose degraded MTU
		// serialization overflows sim.Duration (it used to wrap negative and
		// make the trunk faster).
		degradeBy(math.NaN()),
		degradeBy(math.Inf(1)),
		degradeBy(1e300),
	}
	for i, mutate := range bad {
		c := faultTestConfig()
		c.Faults = cfg.Faults
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	// New must reject what Validate rejects, and a bad degrade factor is
	// reported with the event as written.
	c := faultTestConfig()
	c.Faults = &FaultPlan{Events: []FaultEvent{{At: sim.Millisecond, Trunk: "nope", Kind: FaultTrunkDown}}}
	if _, err := New(sim.NewKernel(1), c); err == nil {
		t.Fatal("New accepted a plan referencing an unknown trunk")
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), 1e300} {
		c := faultTestConfig()
		degradeBy(f)(&c)
		want := "degrade:leaf0.up1@1ms:" + strconv.FormatFloat(f, 'g', -1, 64)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("factor %v: Validate error %v does not name the event %q", f, err, want)
		}
		if _, err := New(sim.NewKernel(1), c); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("factor %v: New error %v does not name the event %q", f, err, want)
		}
	}
	// A huge factor whose degraded serialization still fits passes: the
	// bound is the overflow, not an arbitrary cap.
	c = faultTestConfig()
	serMTU := Link{Bandwidth: c.LinkBandwidth}.Serialization(c.MTU)
	degradeBy(1e18 / float64(serMTU))(&c)
	if err := c.Validate(); err != nil {
		t.Fatalf("a degraded MTU serialization of ~1e18ns fits in sim.Duration but was rejected: %v", err)
	}
}

// degradeBy returns a Config mutation installing a single degrade event on
// leaf0.up1 at 1ms with the given factor.
func degradeBy(f float64) func(*Config) {
	return func(c *Config) {
		c.Faults = &FaultPlan{Events: []FaultEvent{{At: sim.Millisecond, Trunk: "leaf0.up1", Kind: FaultDegrade, Factor: f}}}
	}
}

func TestFaultPlanFingerprint(t *testing.T) {
	clean := faultTestConfig()
	faulted := faultTestConfig()
	faulted.Faults = &FaultPlan{Events: []FaultEvent{{At: sim.Millisecond, Trunk: "leaf0.up1", Kind: FaultTrunkDown}}}
	if strings.Contains(clean.Fingerprint(), "faults=") {
		t.Fatal("fault-free fingerprint mentions faults")
	}
	if clean.Fingerprint() == faulted.Fingerprint() {
		t.Fatal("active plan did not change the fingerprint")
	}
	// Canonical: event order in the slice must not matter.
	a := &FaultPlan{Events: []FaultEvent{
		{At: 2 * sim.Millisecond, Trunk: "leaf0.up1", Kind: FaultTrunkUp},
		{At: sim.Millisecond, Trunk: "leaf0.up1", Kind: FaultTrunkDown},
	}}
	b := &FaultPlan{Events: []FaultEvent{a.Events[1], a.Events[0]}}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("fingerprint depends on event slice order:\n%s\n%s", a.Fingerprint(), b.Fingerprint())
	}
	// An inactive plan (nil or empty) must leave the fingerprint unchanged.
	empty := faultTestConfig()
	empty.Faults = &FaultPlan{}
	if empty.Fingerprint() != clean.Fingerprint() {
		t.Fatal("empty plan changed the fingerprint")
	}
}

func TestFatTreeRouteAvoiding(t *testing.T) {
	topo := FatTree{Leaves: 2, UplinksPerLeaf: 2}
	nodes := 8
	lay, err := topo.Build(nodes)
	if err != nil {
		t.Fatal(err)
	}
	none := func(int) bool { return false }
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			if src == dst {
				continue
			}
			route, ok := topo.RouteAvoiding(nodes, src, dst, none)
			if !ok {
				t.Fatalf("%d->%d: partitioned on a healthy fabric", src, dst)
			}
			want := lay.Routes[src*nodes+dst]
			if len(route) != len(want) {
				t.Fatalf("%d->%d: route %v, want %v", src, dst, route, want)
			}
			for i := range route {
				if route[i] != want[i] {
					t.Fatalf("%d->%d: healthy route %v differs from baseline %v", src, dst, route, want)
				}
			}
		}
	}
	// Trunk indices: per leaf, uplinks first then downlinks.
	up := func(leaf, u int) int { return leaf*4 + u }
	// Node 0 (leaf 0) -> node 4 (leaf 1) defaults to uplink column 4%2 = 0.
	failed := map[int]bool{up(0, 0): true}
	route, ok := topo.RouteAvoiding(nodes, 0, 4, func(i int) bool { return failed[i] })
	if !ok {
		t.Fatal("0->4: no route with one uplink down")
	}
	if route[0] != up(0, 1) {
		t.Fatalf("0->4: failed over to trunk %d, want %d", route[0], up(0, 1))
	}
	// Both of leaf 0's uplinks down: leaf 0 is partitioned from leaf 1.
	failed[up(0, 1)] = true
	if _, ok := topo.RouteAvoiding(nodes, 0, 4, func(i int) bool { return failed[i] }); ok {
		t.Fatal("0->4: expected partition with every uplink down")
	}
	// Same-leaf pairs never need trunks.
	if route, ok := topo.RouteAvoiding(nodes, 0, 1, func(i int) bool { return failed[i] }); !ok || route != nil {
		t.Fatalf("0->1: same-leaf route = %v, %v; want nil, true", route, ok)
	}
}

// runFaultTraffic drives a fixed cross-leaf workload through a faulted
// fabric and returns the completion-time digest plus the network stats.
// Every message must complete; msgs counts them.
func runFaultTraffic(t *testing.T, cfg Config, seed int64, window sim.Duration) (string, Stats) {
	t.Helper()
	k := sim.NewKernel(seed)
	n := MustNew(k, cfg)
	var b strings.Builder
	done := 0
	msgs := 0
	// Cross-leaf senders from each leaf-0 node to its counterpart on leaf 1,
	// injecting a fresh message every 100µs for the whole window.  A heavy
	// burst just before the 2ms mark keeps the trunks saturated across the
	// failover tests' failure instant, so packets are genuinely in flight
	// when a trunk drops.
	perLeaf := cfg.Nodes / 2
	send := func(at sim.Duration, src, dst, size int) {
		msgs++
		id := msgs
		k.CallAt(sim.Time(at), func(any) {
			if err := n.SendMessage(src, dst, size, Flow{Class: "bulk", ID: src}, func(at sim.Time) {
				done++
				fmt.Fprintf(&b, "%d@%d\n", id, int64(at))
			}); err != nil {
				t.Error(err)
			}
		}, nil)
	}
	for i := 0; i < perLeaf; i++ {
		src, dst := i, perLeaf+i
		for at := sim.Duration(0); at < window; at += 100 * sim.Microsecond {
			send(at, src, dst, 32*1024)
		}
		if burst := 1950 * sim.Microsecond; burst < window {
			for j := 0; j < 8; j++ {
				send(burst, src, dst, 32*1024)
			}
		}
	}
	// Probes ride along so the latency-sensitive path crosses faults too.
	probes := 0
	for at := sim.Duration(0); at < window; at += 250 * sim.Microsecond {
		probes++
		k.CallAt(sim.Time(at), func(any) {
			if err := n.SendProbe(1, perLeaf+2, 512, Flow{Class: "impact", ID: 1}, func(d Delivery) {
				fmt.Fprintf(&b, "probe@%d\n", int64(d.Arrived))
			}); err != nil {
				t.Error(err)
			}
		}, nil)
	}
	if cfg.Faults != nil && cfg.Faults.MTBF > 0 {
		// The MTBF generator perpetually schedules the next failure, so the
		// event queue never drains; bound the run the way core.runWindow does,
		// with slack for retransmit backoff after the last injection.
		k.RunUntil(sim.Time(8 * window))
	} else {
		k.Run()
	}
	if done != msgs {
		t.Fatalf("%d of %d messages completed", done, msgs)
	}
	return b.String(), n.Stats()
}

func TestFaultFailoverDeliversEverything(t *testing.T) {
	plan := &FaultPlan{Events: []FaultEvent{
		{At: 2 * sim.Millisecond, Trunk: "leaf0.up0", Kind: FaultTrunkDown},
		{At: 7 * sim.Millisecond, Trunk: "leaf0.up0", Kind: FaultTrunkUp},
	}}
	for _, strict := range []bool{false, true} {
		name := "relaxed"
		if strict {
			name = "strict"
		}
		t.Run(name, func(t *testing.T) {
			cfg := faultTestConfig()
			cfg.StrictOrder = strict
			cfg.Faults = plan
			digest, st := runFaultTraffic(t, cfg, 1, 10*sim.Millisecond)
			if st.TrunksFailed != 1 {
				t.Errorf("TrunksFailed = %d, want 1", st.TrunksFailed)
			}
			if st.RoutesRecomputed == 0 {
				t.Error("RoutesRecomputed = 0, want failover reroutes")
			}
			if st.PacketsRetransmitted == 0 {
				t.Error("PacketsRetransmitted = 0, want in-flight losses")
			}
			if st.RetryBackoffNs <= 0 {
				t.Error("RetryBackoffNs = 0, want accumulated backoff")
			}
			// Determinism: same seed, same schedule.
			digest2, _ := runFaultTraffic(t, cfg, 1, 10*sim.Millisecond)
			if digest != digest2 {
				t.Error("two identical faulted runs diverged")
			}
		})
	}
}

func TestFaultPartitionStallsUntilRepair(t *testing.T) {
	for _, strict := range []bool{false, true} {
		name := "relaxed"
		if strict {
			name = "strict"
		}
		t.Run(name, func(t *testing.T) {
			cfg := faultTestConfig()
			cfg.StrictOrder = strict
			cfg.Faults = &FaultPlan{Events: []FaultEvent{
				{At: sim.Millisecond, Trunk: "leaf0.up0", Kind: FaultTrunkDown},
				{At: sim.Millisecond, Trunk: "leaf0.up1", Kind: FaultTrunkDown},
				{At: 5 * sim.Millisecond, Trunk: "leaf0.up0", Kind: FaultTrunkUp},
			}}
			k := sim.NewKernel(1)
			n := MustNew(k, cfg)
			var completed sim.Time
			k.CallAt(sim.Time(2*sim.Millisecond), func(any) {
				// Injected while leaf 0 is fully partitioned from the spine.
				if err := n.SendMessage(0, 4, 8192, Flow{Class: "bulk", ID: 0}, func(at sim.Time) {
					completed = at
				}); err != nil {
					t.Error(err)
				}
			}, nil)
			k.Run()
			if completed == 0 {
				t.Fatal("message never completed after repair")
			}
			if completed < sim.Time(5*sim.Millisecond) {
				t.Fatalf("message completed at %d, before the repair at 5ms", int64(completed))
			}
		})
	}
}

func TestDegradeBoundedSlowdown(t *testing.T) {
	for _, strict := range []bool{false, true} {
		name := "relaxed"
		if strict {
			name = "strict"
		}
		t.Run(name, func(t *testing.T) {
			mean := func(cfg Config) float64 {
				k := sim.NewKernel(7)
				n := MustNew(k, cfg)
				var sum float64
				var cnt int
				for i := 0; i < 200; i++ {
					at := sim.Time(sim.Duration(i) * 20 * sim.Microsecond)
					k.CallAt(at, func(any) {
						_ = n.SendProbe(0, 4, 1024, Flow{Class: "impact", ID: 0}, func(d Delivery) {
							sum += float64(d.Latency())
							cnt++
						})
					}, nil)
				}
				k.Run()
				return sum / float64(cnt)
			}
			clean := faultTestConfig()
			clean.StrictOrder = strict
			deg := faultTestConfig()
			deg.StrictOrder = strict
			deg.Faults = &FaultPlan{Events: []FaultEvent{
				{At: 0, Trunk: "leaf0.up0", Kind: FaultDegrade, Factor: 3},
				{At: 0, Trunk: "leaf0.up1", Kind: FaultDegrade, Factor: 3},
			}}
			base, slow := mean(clean), mean(deg)
			if slow <= base {
				t.Fatalf("degraded mean %.0fns not slower than clean %.0fns", slow, base)
			}
			// Bounded: a 3x serialization degrade on an idle path cannot blow
			// the whole latency up by more than 3x.
			if slow > 3*base {
				t.Fatalf("degraded mean %.0fns more than 3x clean %.0fns", slow, base)
			}
		})
	}
}

func TestMTBFGeneratorDeterminism(t *testing.T) {
	cfg := faultTestConfig()
	cfg.Faults = &FaultPlan{MTBF: sim.Millisecond, MTTR: 500 * sim.Microsecond}
	digest, st := runFaultTraffic(t, cfg, 3, 10*sim.Millisecond)
	if st.TrunksFailed == 0 {
		t.Error("TrunksFailed = 0: generator with 1ms MTBF over 10ms injected nothing")
	}
	digest2, st2 := runFaultTraffic(t, cfg, 3, 10*sim.Millisecond)
	if digest != digest2 || st.TrunksFailed != st2.TrunksFailed {
		t.Error("generated fault runs diverged for one seed")
	}
	other, _ := runFaultTraffic(t, cfg, 4, 10*sim.Millisecond)
	if digest == other {
		t.Error("different seeds produced identical fault timelines")
	}
}

// TestFaultLossReleasesNextHopReserve pins the credit-conservation invariant
// under fault-induced loss.  tryStartPort reserves buffer credit on the next
// hop the moment serialization starts; when the trunk goes down mid-flight
// the packet is dropped in portDone, which must release that reserve and wake
// the next hop's waiters, or the credit leaks for the rest of the run and
// eventually wedges the port.  A single-uplink fat-tree with an outage window
// forces every cross-leaf packet through the loss-and-retransmit path; once
// traffic quiesces, every port's buffered count must be exactly zero in both
// engines.
func TestFaultLossReleasesNextHopReserve(t *testing.T) {
	for _, strict := range []bool{true, false} {
		name := "relaxed"
		if strict {
			name = "strict"
		}
		t.Run(name, func(t *testing.T) {
			cfg := CabConfig()
			cfg.Nodes = 4
			cfg.StrictOrder = strict
			cfg.TailProb = 0
			cfg.FabricJitter = 0
			cfg.Topology = FatTree{Leaves: 2, UplinksPerLeaf: 1}
			cfg.Faults = &FaultPlan{Events: []FaultEvent{
				{At: 2 * sim.Microsecond, Trunk: "leaf0.up0", Kind: FaultTrunkDown},
				{At: 200 * sim.Microsecond, Trunk: "leaf0.up0", Kind: FaultTrunkUp},
			}}
			k := sim.NewKernel(1)
			n := MustNew(k, cfg)
			delivered := 0
			for i := 0; i < 4; i++ {
				if err := n.SendMessage(0, 2, 16*1024, Flow{Class: "bulk", ID: i}, func(sim.Time) { delivered++ }); err != nil {
					t.Fatal(err)
				}
			}
			k.RunUntil(sim.Time(50 * sim.Millisecond))
			if delivered != 4 {
				t.Fatalf("delivered %d of 4 messages across the outage, want all 4", delivered)
			}
			st := n.Stats()
			if st.PacketsRetransmitted == 0 {
				t.Fatal("outage injected no retransmits: the loss path was never exercised")
			}
			for _, pt := range n.ports {
				// The relaxed engine returns credit lazily through the port
				// ledger; fold everything matured by quiesce before asserting
				// conservation.  Strict ports have empty ledgers, so this is
				// a no-op there.
				pt.buffered -= pt.led.apply(k.Now())
				if pt.buffered != 0 {
					t.Errorf("port %s: buffered=%d bytes after quiesce, want 0", pt.Label(), pt.buffered)
				}
			}
		})
	}
}

func TestFaultFreeScheduleUnchanged(t *testing.T) {
	// A nil plan and an empty plan must not perturb schedules: the fault
	// checks are all gated on faultsOn.
	cfg := faultTestConfig()
	base, _ := runFaultTraffic(t, cfg, 5, 3*sim.Millisecond)
	withEmpty := cfg
	withEmpty.Faults = &FaultPlan{}
	got, st := runFaultTraffic(t, withEmpty, 5, 3*sim.Millisecond)
	if got != base {
		t.Fatal("empty fault plan changed the simulated schedule")
	}
	if st.TrunksFailed != 0 || st.PacketsRetransmitted != 0 || st.RoutesRecomputed != 0 {
		t.Fatal("fault counters nonzero on a fault-free run")
	}
}

// FuzzParseFaultPlan drives the -fault-plan grammar through parsing and
// validation on a 2x2 fat-tree.  A parse error yields no plan; a plan the
// configuration accepts has only finite degrade factors >= 1 whose MTU
// serialization fits in sim.Duration, re-encodes through FaultEvent.String
// to the same events and fingerprint, and builds a network.  The checked-in
// corpus holds the non-finite and overflowing factors that once ran as
// "degraded" trunks, valid plans and malformed items.
func FuzzParseFaultPlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		plan, err := ParseFaultPlan(s)
		if err != nil {
			if plan != nil {
				t.Fatalf("ParseFaultPlan(%q) returned a plan with error %v", s, err)
			}
			return
		}
		cfg := faultTestConfig()
		cfg.Faults = plan
		if err := cfg.Validate(); err != nil || !plan.Active() {
			return
		}
		serMTU := Link{Bandwidth: cfg.LinkBandwidth}.Serialization(cfg.MTU)
		items := make([]string, len(plan.Events))
		for i, e := range plan.Events {
			if e.Kind == FaultDegrade && !(e.Factor >= 1 && float64(serMTU)*e.Factor < math.MaxInt64) {
				t.Fatalf("%q: accepted degrade factor %v", s, e.Factor)
			}
			items[i] = e.String()
		}
		again, err := ParseFaultPlan(strings.Join(items, ","))
		if err != nil {
			t.Fatalf("%q: re-encoded plan %q does not parse: %v", s, strings.Join(items, ","), err)
		}
		if !reflect.DeepEqual(again.Events, plan.Events) || again.Fingerprint() != plan.Fingerprint() {
			t.Fatalf("%q: re-encoding changed the plan:\n%+v\n%+v", s, plan.Events, again.Events)
		}
		if _, err := New(sim.NewKernel(1), cfg); err != nil {
			t.Fatalf("%q: Validate accepted a plan New rejects: %v", s, err)
		}
	})
}
