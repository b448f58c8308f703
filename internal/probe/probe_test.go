package probe

import (
	"testing"

	"github.com/hpcperf/switchprobe/internal/cluster"
	"github.com/hpcperf/switchprobe/internal/mpisim"
	"github.com/hpcperf/switchprobe/internal/netsim"
	"github.com/hpcperf/switchprobe/internal/sim"
)

func newMachine(t testing.TB, seed int64, nodes int) *cluster.Machine {
	t.Helper()
	k := sim.NewKernel(seed)
	cfg := cluster.CabConfig()
	cfg.Net.Nodes = nodes
	return cluster.MustNew(k, cfg)
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{MessageBytes: 0, Pause: 1, RanksPerSocket: 1},
		{MessageBytes: 1024, Pause: -1, RanksPerSocket: 1},
		{MessageBytes: 1024, Pause: 1, RanksPerSocket: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestLaunchRejectsBadConfig(t *testing.T) {
	m := newMachine(t, 1, 4)
	if _, err := Launch(m, mpisim.DefaultConfig(), Config{}); err == nil {
		t.Fatal("expected error for invalid config")
	}
}

func TestIdleSwitchLatencies(t *testing.T) {
	m := newMachine(t, 1, 4)
	p, err := Launch(m, mpisim.DefaultConfig(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Job().Size() != 8 {
		t.Fatalf("probe ranks = %d, want 8 (2 per node)", p.Job().Size())
	}
	m.Kernel().RunUntil(sim.Time(20 * sim.Millisecond))
	m.Kernel().Shutdown()
	c := p.Collector()
	if c.Count() < 50 {
		t.Fatalf("too few samples: %d", c.Count())
	}
	s := c.Summary()
	meanMicros := s.Mean * 1e6
	// The idle-switch one-way latency should be in the ~1-2 µs band the
	// paper reports for Cab.
	if meanMicros < 0.9 || meanMicros > 2.2 {
		t.Fatalf("idle mean latency %.3f µs outside expected band", meanMicros)
	}
	if s.Min <= 0 {
		t.Fatalf("non-positive min latency %v", s.Min)
	}
}

func TestLatenciesRiseUnderBackgroundTraffic(t *testing.T) {
	meanFor := func(withTraffic bool) float64 {
		m := newMachine(t, 3, 4)
		p, err := Launch(m, mpisim.DefaultConfig(), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if withTraffic {
			// Background blasters on separate flows, all-to-all pattern.
			net := m.Network()
			k := m.Kernel()
			for n := 0; n < 4; n++ {
				n := n
				var burst func()
				burst = func() {
					for d := 0; d < 4; d++ {
						if d != n {
							_ = net.SendMessage(n, d, 64*1024, netsim.Flow{Class: "bg", ID: n}, nil)
						}
					}
					k.Post(150*sim.Microsecond, burst)
				}
				k.Post(0, burst)
			}
		}
		m.Kernel().RunUntil(sim.Time(20 * sim.Millisecond))
		m.Kernel().Shutdown()
		if p.Collector().Count() == 0 {
			t.Fatal("no probe samples")
		}
		return p.Collector().Summary().Mean
	}
	idle := meanFor(false)
	loaded := meanFor(true)
	if loaded <= idle*1.2 {
		t.Fatalf("probe mean did not rise under load: idle=%.3gs loaded=%.3gs", idle, loaded)
	}
}

func TestCollectorAccessors(t *testing.T) {
	c := &Collector{}
	c.add(10, 2*sim.Microsecond)
	c.add(20, 4*sim.Microsecond)
	if c.Count() != 2 {
		t.Fatalf("count = %d", c.Count())
	}
	lats := c.Latencies()
	if len(lats) != 2 || lats[0] != 2e-6 {
		t.Fatalf("latencies = %v", lats)
	}
	micros := c.LatenciesMicros()
	if micros[1] != 4 {
		t.Fatalf("micros = %v", micros)
	}
	h, err := c.Histogram(0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != 2 {
		t.Fatalf("hist total = %d", h.Total())
	}
	if _, err := c.Histogram(10, 0, 5); err == nil {
		t.Fatal("expected histogram range error")
	}
	// Mutating the returned slice must not affect the collector.
	lats[0] = 99
	if c.Latencies()[0] == 99 {
		t.Fatal("Latencies returned internal slice")
	}
}

func TestOddNodeCountLeavesUnpairedNodeIdle(t *testing.T) {
	m := newMachine(t, 5, 5) // node 4 is even-indexed but last: unpaired
	p, err := Launch(m, mpisim.DefaultConfig(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.Kernel().RunUntil(sim.Time(10 * sim.Millisecond))
	m.Kernel().Shutdown()
	if p.Collector().Count() == 0 {
		t.Fatal("no samples with odd node count")
	}
}

func TestProbeLoadIsNegligible(t *testing.T) {
	m := newMachine(t, 7, 4)
	_, err := Launch(m, mpisim.DefaultConfig(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	window := 20 * sim.Millisecond
	m.Kernel().RunUntil(sim.Time(window))
	m.Kernel().Shutdown()
	util := m.Network().MeanLinkUtilization(window)
	if util > 0.01 {
		t.Fatalf("probe alone uses %.2f%% of the links; it must stay below 1%%", util*100)
	}
}
