package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/hpcperf/switchprobe/internal/cluster"
	"github.com/hpcperf/switchprobe/internal/inject"
	"github.com/hpcperf/switchprobe/internal/mpisim"
	"github.com/hpcperf/switchprobe/internal/netsim"
	"github.com/hpcperf/switchprobe/internal/probe"
	"github.com/hpcperf/switchprobe/internal/sim"
	"github.com/hpcperf/switchprobe/internal/workload"
)

// sampleOptions is a fully explicit option set (no Default/Test helpers), so
// the canonical-encoding golden below does not move when defaults are tuned.
func sampleOptions() Options {
	return Options{
		Seed: 42,
		Machine: cluster.Config{
			Net: netsim.Config{
				Nodes:             4,
				LinkBandwidth:     5e9,
				MTU:               4096,
				WireDelay:         250 * sim.Nanosecond,
				FabricDelay:       200 * sim.Nanosecond,
				FabricJitter:      120 * sim.Nanosecond,
				TailProb:          0.02,
				TailDelay:         2 * sim.Microsecond,
				EgressBufferBytes: 16384,
			},
			SocketsPerNode:     2,
			CoresPerSocket:     8,
			ClockHz:            2.6e9,
			IntraNodeLatency:   600 * sim.Nanosecond,
			IntraNodeBandwidth: 8e9,
		},
		MPI:              mpisim.Config{EagerThreshold: 16384, ControlBytes: 64},
		Probe:            probe.Config{MessageBytes: 1024, Pause: 200 * sim.Microsecond, RanksPerSocket: 1, Tag: 1},
		Scale:            workload.Scale{Volume: 1, Compute: 1},
		Window:           80 * sim.Millisecond,
		WarmupIterations: 1,
		MinIterations:    3,
		MinProbeSamples:  30,
		HistLoMicros:     0,
		HistHiMicros:     20,
		HistBins:         40,
		PhaseWindows:     6,
	}
}

// TestSpecCanonicalGolden pins the canonical encoding to a literal.  Because
// the hash is a pure function of SpecVersion() and this string, a passing
// golden guarantees the hash is identical across processes and platforms —
// no map iteration order, pointer value or locale can leak in.  If this test
// breaks, cache compatibility broke: either fix the regression or bump the
// spec/kernel/model version deliberately.
func TestSpecCanonicalGolden(t *testing.T) {
	golden := strings.Join([]string{
		"kind=calibrate",
		"seed=42",
		"machine=net{nodes=4;bw=5e+09;mtu=4096;wire=250;fabric=200;jitter=120;tailp=0.02;taild=2000;ebuf=16384;topo=star;order=relaxed};sockets=2;cores=8;clock=2.6e+09;ilat=600;ibw=8e+09",
		"mpi=eager:16384,control:64",
		"probe=bytes:1024,pause:200000,rps:1,tag:1",
		"placement=pack",
		"scale=volume:1,compute:1",
		"window=80000000",
		"iters=warmup:1,min:3",
		"probes=min:30",
		"hist=lo:0,hi:20,bins:40",
		"phases=6",
		"slot=all",
		"app=",
		"coapp=",
		"injector=P:0,M:0,B:0,bytes:0,rps:0",
		"placed=false",
		"",
	}, "\n")
	got := CalibrateSpec(sampleOptions()).Canonical()
	if got != golden {
		t.Fatalf("canonical encoding drifted:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
	// The hash is exactly SHA-256 over version + canonical.
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s", SpecVersion(), golden)
	if want := hex.EncodeToString(h.Sum(nil)); CalibrateSpec(sampleOptions()).Hash() != want {
		t.Fatalf("hash not derived from version+canonical")
	}
}

// TestSpecHashDeterminism: building the same spec twice (even via different
// constructors paths) yields the same hash.
func TestSpecHashDeterminism(t *testing.T) {
	o := sampleOptions()
	app, err := workload.ByName("FFTW", o.Scale)
	if err != nil {
		t.Fatal(err)
	}
	a := AppImpactSpec(o, app, SlotA).Hash()
	b := AppImpactSpec(o, app, SlotA).Hash()
	if a != b {
		t.Fatalf("same spec hashed differently: %s vs %s", a, b)
	}
	// A spec value without carried instances (as after decoding) hashes the
	// same as one built from live values.
	c := RunSpec{Kind: RunAppImpact, Options: o, Slot: SlotA, App: "FFTW"}.Hash()
	if a != c {
		t.Fatalf("carried workload instance leaked into the hash")
	}
}

// TestSpecHashSensitivity: changing any single field produces a new hash.
func TestSpecHashSensitivity(t *testing.T) {
	base := RunSpec{Kind: RunAppImpact, Options: sampleOptions(), Slot: SlotA, App: "FFTW"}
	muts := map[string]func(*RunSpec){
		"kind":            func(s *RunSpec) { s.Kind = RunBaseline },
		"seed":            func(s *RunSpec) { s.Options.Seed = 43 },
		"nodes":           func(s *RunSpec) { s.Options.Machine.Net.Nodes = 5 },
		"bandwidth":       func(s *RunSpec) { s.Options.Machine.Net.LinkBandwidth *= 2 },
		"mtu":             func(s *RunSpec) { s.Options.Machine.Net.MTU = 2048 },
		"wire":            func(s *RunSpec) { s.Options.Machine.Net.WireDelay += sim.Nanosecond },
		"fabric":          func(s *RunSpec) { s.Options.Machine.Net.FabricDelay += sim.Nanosecond },
		"jitter":          func(s *RunSpec) { s.Options.Machine.Net.FabricJitter += sim.Nanosecond },
		"tailprob":        func(s *RunSpec) { s.Options.Machine.Net.TailProb = 0.03 },
		"taildelay":       func(s *RunSpec) { s.Options.Machine.Net.TailDelay += sim.Microsecond },
		"egress":          func(s *RunSpec) { s.Options.Machine.Net.EgressBufferBytes = 32768 },
		"topology":        func(s *RunSpec) { s.Options.Machine.Net.Topology = netsim.FatTree{Leaves: 2} },
		"topology-params": func(s *RunSpec) { s.Options.Machine.Net.Topology = netsim.FatTree{Leaves: 2, UplinksPerLeaf: 1} },
		"sockets":         func(s *RunSpec) { s.Options.Machine.SocketsPerNode = 1 },
		"cores":           func(s *RunSpec) { s.Options.Machine.CoresPerSocket = 4 },
		"clock":           func(s *RunSpec) { s.Options.Machine.ClockHz = 2e9 },
		"intralat":        func(s *RunSpec) { s.Options.Machine.IntraNodeLatency += sim.Nanosecond },
		"intrabw":         func(s *RunSpec) { s.Options.Machine.IntraNodeBandwidth *= 2 },
		"eager":           func(s *RunSpec) { s.Options.MPI.EagerThreshold = 8192 },
		"control":         func(s *RunSpec) { s.Options.MPI.ControlBytes = 128 },
		"probebytes":      func(s *RunSpec) { s.Options.Probe.MessageBytes = 512 },
		"probepause":      func(s *RunSpec) { s.Options.Probe.Pause += sim.Microsecond },
		"proberps":        func(s *RunSpec) { s.Options.Probe.RanksPerSocket = 2 },
		"probetag":        func(s *RunSpec) { s.Options.Probe.Tag = 2 },
		"placement":       func(s *RunSpec) { s.Options.Placement = cluster.PlaceSpread },
		"volume":          func(s *RunSpec) { s.Options.Scale.Volume = 0.5 },
		"compute":         func(s *RunSpec) { s.Options.Scale.Compute = 0.5 },
		"window":          func(s *RunSpec) { s.Options.Window *= 2 },
		"warmup":          func(s *RunSpec) { s.Options.WarmupIterations = 2 },
		"miniter":         func(s *RunSpec) { s.Options.MinIterations = 4 },
		"minprobe":        func(s *RunSpec) { s.Options.MinProbeSamples = 10 },
		"histlo":          func(s *RunSpec) { s.Options.HistLoMicros = 1 },
		"histhi":          func(s *RunSpec) { s.Options.HistHiMicros = 30 },
		"histbins":        func(s *RunSpec) { s.Options.HistBins = 20 },
		"phases":          func(s *RunSpec) { s.Options.PhaseWindows = 3 },
		"slot":            func(s *RunSpec) { s.Slot = SlotB },
		"app":             func(s *RunSpec) { s.App = "MILC" },
		"coapp":           func(s *RunSpec) { s.CoApp = "AMG" },
		"inj-partners":    func(s *RunSpec) { s.Injector.Partners = 1 },
		"inj-messages":    func(s *RunSpec) { s.Injector.Messages = 1 },
		"inj-sleep":       func(s *RunSpec) { s.Injector.SleepCycles = 100 },
		"inj-bytes":       func(s *RunSpec) { s.Injector.MessageBytes = 100 },
		"inj-rps":         func(s *RunSpec) { s.Injector.RanksPerSocket = 2 },
		"placed":          func(s *RunSpec) { s.Placed = true },
	}
	seen := map[string]string{base.Hash(): "base"}
	for name, mut := range muts {
		spec := base
		mut(&spec)
		h := spec.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[h] = name
	}
}

// TestSpecPlacementNormalization: calibration and injector-impact runs have
// no placed application, so every placement policy must share one artifact;
// application runs must not.
func TestSpecPlacementNormalization(t *testing.T) {
	pack := sampleOptions()
	spread := sampleOptions()
	spread.Placement = cluster.PlaceSpread
	if CalibrateSpec(pack).Hash() != CalibrateSpec(spread).Hash() {
		t.Fatal("calibrate spec should be placement-independent")
	}
	cfg := inject.NewConfig(1, 1, 2.5e4)
	if InjectorImpactSpec(pack, cfg).Hash() != InjectorImpactSpec(spread, cfg).Hash() {
		t.Fatal("injector-impact spec should be placement-independent")
	}
	app, err := workload.ByName("FFTW", pack.Scale)
	if err != nil {
		t.Fatal(err)
	}
	if BaselineSpec(pack, app, SlotA).Hash() == BaselineSpec(spread, app, SlotA).Hash() {
		t.Fatal("slotted baseline spec must depend on placement")
	}
}

func TestArtifactComplete(t *testing.T) {
	var sig Signature
	rt := Runtime{App: "x"}
	cal := Calibration{}
	cases := []struct {
		kind RunKind
		art  Artifact
		want bool
	}{
		{RunCalibrate, Artifact{Calibration: &cal}, false}, // no idle histogram
		{RunAppImpact, Artifact{Signature: &sig}, false},   // no histogram
		{RunBaseline, Artifact{Runtime: &rt}, true},
		{RunBaseline, Artifact{}, false},
		{RunPair, Artifact{Runtime: &rt}, false},
		{RunPair, Artifact{Runtime: &rt, RuntimeB: &rt}, true},
		{RunKind("bogus"), Artifact{Runtime: &rt}, false},
	}
	for _, c := range cases {
		if got := c.art.Complete(c.kind); got != c.want {
			t.Errorf("Complete(%s) = %v, want %v", c.kind, got, c.want)
		}
	}
}

func TestExecuteSpecRequiresCalibration(t *testing.T) {
	o := TestOptions()
	app, err := workload.ByName("FFTW", o.Scale)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteSpec(AppImpactSpec(o, app, SlotAll), nil); err == nil {
		t.Fatal("app-impact without calibration should fail")
	}
	if _, err := ExecuteSpec(RunSpec{Kind: RunKind("bogus")}, nil); err == nil {
		t.Fatal("unknown kind should fail")
	}
}

// TestExecuteSpecResolvesAppsByName: a pure-value spec (no carried workload
// instances, as reconstructed from a store) must execute identically.
func TestExecuteSpecResolvesAppsByName(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real measurement; skipped in -short mode")
	}
	o := TestOptions()
	app, err := workload.ByName("FFTW", o.Scale)
	if err != nil {
		t.Fatal(err)
	}
	live, err := ExecuteSpec(BaselineSpec(o, app, SlotAll), nil)
	if err != nil {
		t.Fatal(err)
	}
	pure, err := ExecuteSpec(RunSpec{Kind: RunBaseline, Options: o, App: "FFTW"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if *live.Runtime != *pure.Runtime {
		t.Fatalf("by-name execution diverged: %+v vs %+v", *live.Runtime, *pure.Runtime)
	}
	if _, err := ExecuteSpec(RunSpec{Kind: RunBaseline, Options: o, App: "NoSuchApp"}, nil); err == nil {
		t.Fatal("unknown app name should fail")
	}
}

// FuzzRunSpecCanonical checks that a spec's canonical encoding and hash are a
// stable function of the run's inputs: repeated calls agree, the hash is
// SHA-256 over SpecVersion and the encoding, one field sits on each line in
// a fixed key order, the execution-only Workers knob and the default
// placement spelling never fork the hash, and changing the seed, window,
// volume scale or application name always does.
func FuzzRunSpecCanonical(f *testing.F) {
	keys := []string{"kind", "seed", "machine", "mpi", "probe", "placement", "scale", "window",
		"iters", "probes", "hist", "phases", "slot", "app", "coapp", "injector", "placed"}
	f.Fuzz(func(t *testing.T, seed, window int64, volume float64, app, placement string, workers int) {
		build := func(seed, window int64, volume float64, app, placement string, workers int) RunSpec {
			o := sampleOptions()
			o.Seed = seed
			o.Window = sim.Duration(window)
			o.Scale.Volume = volume
			o.Placement = cluster.PlacementPolicy(placement)
			o.Machine.Net.Workers = workers
			return RunSpec{Kind: RunBaseline, Options: o, App: app}
		}
		spec := build(seed, window, volume, app, placement, workers)
		canon, hash := spec.Canonical(), spec.Hash()
		if spec.Canonical() != canon || spec.Hash() != hash {
			t.Fatal("Canonical or Hash changed between calls")
		}
		h := sha256.New()
		fmt.Fprintf(h, "%s\n%s", SpecVersion(), canon)
		if hex.EncodeToString(h.Sum(nil)) != hash {
			t.Fatal("hash is not SHA-256 over SpecVersion and the canonical encoding")
		}
		if !strings.ContainsAny(app+placement, "\n") {
			lines := strings.Split(strings.TrimSuffix(canon, "\n"), "\n")
			if len(lines) != len(keys) {
				t.Fatalf("%d canonical lines, want %d:\n%s", len(lines), len(keys), canon)
			}
			for i, k := range keys {
				if !strings.HasPrefix(lines[i], k+"=") {
					t.Fatalf("line %d is %q, want key %q", i, lines[i], k)
				}
			}
		}
		for _, w := range []int{0, workers + 1} {
			if build(seed, window, volume, app, placement, w).Hash() != hash {
				t.Fatalf("Workers %d changed the hash of a Workers %d spec", w, workers)
			}
		}
		if placement == "" && build(seed, window, volume, app, "pack", workers).Hash() != hash {
			t.Fatal(`placement "" and "pack" hash differently`)
		}
		for name, other := range map[string]RunSpec{
			"seed":   build(seed+1, window, volume, app, placement, workers),
			"window": build(seed, window+1, volume, app, placement, workers),
			"app":    build(seed, window, volume, app+"x", placement, workers),
			"volume": build(seed, window, math.Nextafter(volume, math.Inf(1)), app, placement, workers),
		} {
			if other.Hash() == hash && !(name == "volume" && (math.IsNaN(volume) || math.IsInf(volume, 1))) {
				t.Fatalf("changing the %s left the hash unchanged", name)
			}
		}
	})
}
