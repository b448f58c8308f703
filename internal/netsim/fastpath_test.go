package netsim

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/hpcperf/switchprobe/internal/sim"
)

// traceRecorder captures the full delivery stream of a run for byte-level
// comparison between the fast and slow paths.
type traceRecorder struct {
	lines []string
}

func (tr *traceRecorder) attach(n *Network) {
	n.Observe(func(d Delivery) {
		tr.lines = append(tr.lines,
			fmt.Sprintf("%d->%d size=%d flow=%s/%d sent=%d arrived=%d",
				d.Src, d.Dst, d.Size, d.Flow.Class, d.Flow.ID, int64(d.Sent), int64(d.Arrived)))
	})
}

// runBoth executes the same scenario with the cut-through fast path on and
// off and returns both delivery traces plus both final stats snapshots.
func runBoth(t *testing.T, cfg Config, scenario func(k *sim.Kernel, n *Network)) (fast, slow []string, fastStats, slowStats Stats) {
	t.Helper()
	run := func(enabled bool) ([]string, Stats) {
		k := sim.NewKernel(424242)
		n := MustNew(k, cfg)
		n.setFastPath(enabled)
		var tr traceRecorder
		tr.attach(n)
		scenario(k, n)
		k.Run()
		return tr.lines, n.Stats()
	}
	fast, fastStats = run(true)
	slow, slowStats = run(false)
	return fast, slow, fastStats, slowStats
}

// requireIdentical asserts two delivery traces are byte-identical, line by
// line and in the same order.
func requireIdentical(t *testing.T, fast, slow []string) {
	t.Helper()
	if len(fast) != len(slow) {
		t.Fatalf("delivery counts differ: fast=%d slow=%d", len(fast), len(slow))
	}
	for i := range fast {
		if fast[i] != slow[i] {
			t.Fatalf("delivery %d differs:\nfast: %s\nslow: %s", i, fast[i], slow[i])
		}
	}
}

// requireSameStats asserts the model-visible statistics (everything except
// the cut-through counter itself) match.
func requireSameStats(t *testing.T, fast, slow Stats) {
	t.Helper()
	if fast.PacketsDelivered != slow.PacketsDelivered || fast.BytesDelivered != slow.BytesDelivered {
		t.Fatalf("delivery stats differ: fast=%+v slow=%+v", fast, slow)
	}
	if fast.StallEvents != slow.StallEvents {
		t.Fatalf("stall events differ: fast=%d slow=%d", fast.StallEvents, slow.StallEvents)
	}
	for class, b := range slow.BytesByClass {
		if fast.BytesByClass[class] != b {
			t.Fatalf("bytes for class %q differ: fast=%d slow=%d", class, fast.BytesByClass[class], b)
		}
	}
	for i := range slow.UplinkBusy {
		if fast.UplinkBusy[i] != slow.UplinkBusy[i] {
			t.Fatalf("uplink %d busy differs: fast=%v slow=%v", i, fast.UplinkBusy[i], slow.UplinkBusy[i])
		}
	}
	for i := range slow.DownlinkBusy {
		if fast.DownlinkBusy[i] != slow.DownlinkBusy[i] {
			t.Fatalf("downlink %d busy differs: fast=%v slow=%v", i, fast.DownlinkBusy[i], slow.DownlinkBusy[i])
		}
	}
	for i := range slow.TrunkBusy {
		if fast.TrunkBusy[i] != slow.TrunkBusy[i] {
			t.Fatalf("trunk %s busy differs: fast=%v slow=%v", slow.TrunkLabels[i], fast.TrunkBusy[i], slow.TrunkBusy[i])
		}
	}
}

// contentionStormConfigs are the fabrics every equivalence test runs on: the
// paper's single switch, an oversubscribed fat-tree, and the no-back-pressure
// (EgressBufferBytes=0) ablation of each.
func contentionStormConfigs() map[string]Config {
	star := CabConfig()
	star.Nodes = 6
	star0 := star
	star0.EgressBufferBytes = 0
	ft := CabConfig()
	ft.Nodes = 6
	ft.Topology = FatTree{Leaves: 2, UplinksPerLeaf: 1}
	ft0 := ft
	ft0.EgressBufferBytes = 0
	return map[string]Config{"star": star, "star-nobackpressure": star0, "fattree": ft, "fattree-nobackpressure": ft0}
}

// TestFastPathContentionStorm floods every fabric with overlapping bulk
// messages and probes — injected both up front and from timed events and
// completion callbacks mid-run, so the lane is interrupted by real kernel
// events in every phase — and requires byte-identical delivery streams and
// statistics with the fast path on and off.
func TestFastPathContentionStorm(t *testing.T) {
	for name, cfg := range contentionStormConfigs() {
		t.Run(name, func(t *testing.T) {
			scenario := func(k *sim.Kernel, n *Network) {
				nodes := n.Nodes()
				// Wave 1: synchronized bulk blast at t=0 (maximum contention).
				for src := 0; src < nodes; src++ {
					dst := (src + 3) % nodes
					if dst == src {
						continue
					}
					src := src
					if err := n.SendMessage(src, dst, 200_000+src*7777, Flow{Class: "bulk", ID: src}, func(at sim.Time) {
						// Completion chains a follow-up message mid-run.
						next := (src + 1) % nodes
						if next != src {
							_ = n.SendMessage(src, next, 30_000, Flow{Class: "chain", ID: src}, nil)
						}
					}); err != nil {
						t.Fatal(err)
					}
				}
				// Wave 2: staggered probes and small messages from timed events,
				// landing mid-flight of the bulk trains.
				for i := 0; i < 40; i++ {
					i := i
					k.At(sim.Time(int64(i)*3_117), func() {
						src := i % nodes
						dst := (i*5 + 1) % nodes
						if dst == src {
							dst = (dst + 1) % nodes
						}
						if i%3 == 0 {
							_ = n.SendProbe(src, dst, 1024, Flow{Class: "probe", ID: i}, nil)
						} else {
							_ = n.SendMessage(src, dst, 1000+i*997, Flow{Class: "mix", ID: i}, nil)
						}
					})
				}
			}
			fast, slow, fs, ss := runBoth(t, cfg, scenario)
			requireIdentical(t, fast, slow)
			requireSameStats(t, fs, ss)
			if len(fast) == 0 {
				t.Fatal("scenario delivered nothing")
			}
			if fs.CutThroughEvents == 0 {
				t.Fatal("fast path never engaged")
			}
			if ss.CutThroughEvents != 0 {
				t.Fatal("slow path reported cut-through events")
			}
		})
	}
}

// TestFastPathFuzzedSchedules drives randomized traffic schedules (sizes,
// endpoints, injection times, probe/bulk mix) through both paths on every
// fabric and requires byte-identical delivery streams.
func TestFastPathFuzzedSchedules(t *testing.T) {
	configs := contentionStormConfigs()
	for trial := 0; trial < 6; trial++ {
		for name, cfg := range configs {
			t.Run(fmt.Sprintf("%s/trial%d", name, trial), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(1000*trial) + int64(len(name))))
				type injection struct {
					at        sim.Time
					src, dst  int
					size      int
					probe     bool
					withChain bool
				}
				var plan []injection
				nodes := cfg.Nodes
				for i := 0; i < 120; i++ {
					src := rng.Intn(nodes)
					dst := rng.Intn(nodes)
					if dst == src {
						dst = (dst + 1) % nodes
					}
					inj := injection{
						at:    sim.Time(rng.Int63n(int64(80 * sim.Microsecond))),
						src:   src,
						dst:   dst,
						probe: rng.Intn(4) == 0,
					}
					if inj.probe {
						inj.size = 1 + rng.Intn(cfg.MTU)
					} else {
						inj.size = 1 + rng.Intn(120_000)
						inj.withChain = rng.Intn(5) == 0
					}
					plan = append(plan, inj)
				}
				scenario := func(k *sim.Kernel, n *Network) {
					for i, inj := range plan {
						i, inj := i, inj
						k.At(inj.at, func() {
							if inj.probe {
								_ = n.SendProbe(inj.src, inj.dst, inj.size, Flow{Class: "p", ID: i}, nil)
								return
							}
							var done func(sim.Time)
							if inj.withChain {
								done = func(sim.Time) {
									next := (inj.dst + 1) % n.Nodes()
									if next != inj.dst {
										_ = n.SendMessage(inj.dst, next, 5000+i, Flow{Class: "c", ID: i}, nil)
									}
								}
							}
							_ = n.SendMessage(inj.src, inj.dst, inj.size, Flow{Class: "b", ID: i}, done)
						})
					}
				}
				fast, slow, fs, ss := runBoth(t, cfg, scenario)
				requireIdentical(t, fast, slow)
				requireSameStats(t, fs, ss)
			})
		}
	}
}

// TestFastPathWindowTruncation checks RunUntil + Shutdown (the measurement
// harness' drive pattern): a window that truncates messages mid-flight must
// leave identical delivered-packet counts and statistics on both paths.
func TestFastPathWindowTruncation(t *testing.T) {
	for name, cfg := range contentionStormConfigs() {
		t.Run(name, func(t *testing.T) {
			run := func(enabled bool) ([]string, Stats) {
				k := sim.NewKernel(7)
				n := MustNew(k, cfg)
				n.setFastPath(enabled)
				var tr traceRecorder
				tr.attach(n)
				for src := 0; src < cfg.Nodes; src++ {
					dst := (src + 2) % cfg.Nodes
					if dst == src {
						continue
					}
					if err := n.SendMessage(src, dst, 4<<20, Flow{Class: "big", ID: src}, nil); err != nil {
						t.Fatal(err)
					}
				}
				// Stop long before the transfers can finish.
				k.RunUntil(sim.Time(200 * sim.Microsecond))
				st := n.Stats()
				k.Shutdown()
				return tr.lines, st
			}
			fast, fs := run(true)
			slow, ss := run(false)
			requireIdentical(t, fast, slow)
			requireSameStats(t, fs, ss)
			if fs.PacketsDelivered == 0 {
				t.Fatal("window delivered nothing")
			}
		})
	}
}

// TestFastPathMultiWindowResume drives the kernel in several RunUntil
// segments (as RunFor-style consumers do) and checks the lane resumes
// correctly across window boundaries.
func TestFastPathMultiWindowResume(t *testing.T) {
	cfg := CabConfig()
	cfg.Nodes = 4
	run := func(enabled bool) ([]string, Stats) {
		k := sim.NewKernel(99)
		n := MustNew(k, cfg)
		n.setFastPath(enabled)
		var tr traceRecorder
		tr.attach(n)
		_ = n.SendMessage(0, 1, 300_000, Flow{Class: "a"}, nil)
		k.RunUntil(sim.Time(5 * sim.Microsecond))
		_ = n.SendMessage(2, 1, 100_000, Flow{Class: "b"}, nil)
		k.RunUntil(sim.Time(30 * sim.Microsecond))
		_ = n.SendProbe(3, 1, 512, Flow{Class: "p"}, nil)
		k.Run()
		return tr.lines, n.Stats()
	}
	fast, fs := run(true)
	slow, ss := run(false)
	requireIdentical(t, fast, slow)
	requireSameStats(t, fs, ss)
}

// TestFastPathCompletionClock asserts completion callbacks and probe
// deliveries observe the true kernel clock on the fast path: the delivery's
// Arrived stamp, the completion argument and Kernel.Now must agree.
func TestFastPathCompletionClock(t *testing.T) {
	cfg := CabConfig()
	cfg.Nodes = 4
	k := sim.NewKernel(5)
	n := MustNew(k, cfg)
	checked := 0
	if err := n.SendMessage(0, 1, 50_000, Flow{Class: "m"}, func(at sim.Time) {
		if k.Now() != at {
			t.Errorf("completion clock skew: Now=%d arg=%d", int64(k.Now()), int64(at))
		}
		checked++
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.SendProbe(2, 3, 1024, Flow{Class: "p"}, func(d Delivery) {
		if k.Now() != d.Arrived {
			t.Errorf("probe clock skew: Now=%d arrived=%d", int64(k.Now()), int64(d.Arrived))
		}
		checked++
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if checked != 2 {
		t.Fatalf("callbacks ran %d times, want 2", checked)
	}
	if n.Stats().CutThroughEvents == 0 {
		t.Fatal("fast path never engaged")
	}
}

// TestFastPathObserverTimestamps asserts mid-train observer callbacks see
// the true kernel clock too (the lane advances it entry by entry).
func TestFastPathObserverTimestamps(t *testing.T) {
	cfg := CabConfig()
	cfg.Nodes = 3
	k := sim.NewKernel(21)
	n := MustNew(k, cfg)
	deliveries := 0
	n.Observe(func(d Delivery) {
		deliveries++
		if k.Now() != d.Arrived {
			t.Errorf("observer clock skew at delivery %d: Now=%d arrived=%d", deliveries, int64(k.Now()), int64(d.Arrived))
		}
	})
	if err := n.SendMessage(0, 1, 100_000, Flow{Class: "m"}, nil); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if deliveries < 10 {
		t.Fatalf("expected a multi-packet train, saw %d deliveries", deliveries)
	}
}

// TestFastPathSecondNetworkFallsBack: only one lane may attach to a kernel;
// a second network on the same kernel must quietly run the slow path.
func TestFastPathSecondNetworkFallsBack(t *testing.T) {
	k := sim.NewKernel(3)
	n1 := MustNew(k, CabConfig())
	n2 := MustNew(k, CabConfig())
	if !n1.fastOn {
		t.Fatal("first network should own the lane")
	}
	if n2.fastOn {
		t.Fatal("second network must fall back to the slow path")
	}
}

// TestPacketPoolInvariants sends heavy traffic and then audits the free
// lists: no packet or message state may appear twice (a double put would
// corrupt later traffic), and every pooled object must have its references
// cleared so drained queues do not pin buffers against reuse.
func TestPacketPoolInvariants(t *testing.T) {
	cfg := CabConfig()
	cfg.Nodes = 5
	k := sim.NewKernel(11)
	n := MustNew(k, cfg)
	for i := 0; i < 25; i++ {
		src := i % 5
		dst := (i*3 + 1) % 5
		if dst == src {
			dst = (dst + 1) % 5
		}
		if err := n.SendMessage(src, dst, 10_000+i*321, Flow{Class: "pool", ID: i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()

	seenPkt := make(map[*packet]bool, len(n.pktFree))
	for _, p := range n.pktFree {
		if seenPkt[p] {
			t.Fatal("packet double-put: same *packet twice on the free list")
		}
		seenPkt[p] = true
		if p.onDeliver != nil || p.msg != nil || p.route != nil {
			t.Fatalf("pooled packet retains references: %+v", p)
		}
	}
	seenMS := make(map[*messageState]bool, len(n.msgFree))
	for _, ms := range n.msgFree {
		if seenMS[ms] {
			t.Fatal("message-state double-put: same *messageState twice on the free list")
		}
		seenMS[ms] = true
		if ms.onComplete != nil || ms.fnArg != nil || ms.arg != nil {
			t.Fatalf("pooled message state retains references: %+v", ms)
		}
	}
	if len(n.pktFree) == 0 || len(n.msgFree) == 0 {
		t.Fatal("expected pooled objects after a full run")
	}
}

// TestPktQueueReleasesPoppedSlots pins the queue's memory hygiene: popped
// slots must be nil'd so a drained queue does not pin recycled packets, and
// the backing array must rewind once empty.
func TestPktQueueReleasesPoppedSlots(t *testing.T) {
	var q pktQueue
	a, b := &packet{}, &packet{}
	q.push(a)
	q.push(b)
	if got := q.pop(); got != a {
		t.Fatal("pop order broken")
	}
	if q.buf[0] != nil {
		t.Fatal("popped slot not cleared: drained queues would pin pooled packets")
	}
	if got := q.pop(); got != b {
		t.Fatal("pop order broken")
	}
	if !q.empty() || q.head != 0 || len(q.buf) != 0 {
		t.Fatalf("queue did not rewind after draining: head=%d len=%d", q.head, len(q.buf))
	}
	for i := range q.buf[:cap(q.buf)] {
		if q.buf[:cap(q.buf)][i] != nil {
			t.Fatalf("slot %d still references a packet after rewind", i)
		}
	}
}

// TestFastPathGoldenTraceMatchesSlowPath reruns the pinned golden-trace
// scenario of topology_test.go on both paths; the constants there were
// captured from the pre-topology-engine code, so this transitively pins the
// fast path to the original model.
func TestFastPathGoldenTraceMatchesSlowPath(t *testing.T) {
	cfg := CabConfig()
	cfg.Nodes = 6
	scenario := func(k *sim.Kernel, n *Network) {
		for i := 0; i < 40; i++ {
			src := i % 6
			dst := (i*3 + 1) % 6
			if dst == src {
				dst = (dst + 1) % 6
			}
			if err := n.SendMessage(src, dst, 1000+i*777, Flow{Class: "g", ID: i}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	fast, slow, fs, ss := runBoth(t, cfg, scenario)
	requireIdentical(t, fast, slow)
	requireSameStats(t, fs, ss)
	if fs.StallEvents == 0 {
		t.Fatal("golden scenario should stall under contention")
	}
}
