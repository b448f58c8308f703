package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/hpcperf/switchprobe/internal/sim"
)

// traceRecorder captures the full delivery stream of a run.
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

// stormDigest hashes a run's delivery trace together with its model-visible
// statistics: delivered packets and bytes, bytes per class, stall events and
// every link's busy time.
func stormDigest(lines []string, s Stats) string {
	h := sha256.New()
	for _, l := range lines {
		io.WriteString(h, l)
		io.WriteString(h, "\n")
	}
	fmt.Fprintf(h, "delivered=%d bytes=%d byclass=%v stalls=%d\n",
		s.PacketsDelivered, s.BytesDelivered, s.BytesByClass, s.StallEvents)
	fmt.Fprintf(h, "uplink=%v\ndownlink=%v\ntrunks=%v\ntrunkbusy=%v\n",
		durations(s.UplinkBusy), durations(s.DownlinkBusy), s.TrunkLabels, durations(s.TrunkBusy))
	return hex.EncodeToString(h.Sum(nil))
}

// requireDigest compares a run's digest against its pinned constant.
func requireDigest(t *testing.T, lines []string, s Stats, want string) {
	t.Helper()
	if got := stormDigest(lines, s); got != want {
		t.Fatalf("schedule drifted: digest %s, want %s (%d deliveries)\n%s",
			got, want, len(lines), strings.Join(lines[:min(len(lines), 5)], "\n"))
	}
}

// runScenario executes scenario on a fresh network and returns its delivery
// trace and final statistics.
func runScenario(cfg Config, scenario func(k *sim.Kernel, n *Network)) ([]string, Stats) {
	k := sim.NewKernel(424242)
	n := MustNew(k, cfg)
	var tr traceRecorder
	tr.attach(n)
	scenario(k, n)
	k.Run()
	return tr.lines, n.Stats()
}

// contentionStormConfigs are the fabrics every storm test runs on: the
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

// engines are the two execution modes the storm and truncation goldens pin.
var engines = []struct {
	name   string
	strict bool
}{{"relaxed", false}, {"strict", true}}

// stormGolden pins TestContentionStorm's digest per fabric and engine.  The
// constants were captured while netsim still carried its cut-through event
// lane, once with the lane attached and once detached; both agreed on every
// digest, so the lane's removal moved no event.
var stormGolden = map[string]string{
	"fattree-nobackpressure/relaxed": "7e3b9fd5091c1496dc03084aa564bda56986285440bdde68b32178ae05e6c6ff",
	"fattree-nobackpressure/strict":  "bcdafdb6b29a4f33eaf60bf57bfe4c884a509f2b4de8c000b7fc824820884def",
	"fattree/relaxed":                "6be768f08fc1c5bcbbd1fd0bc7aad99b6f030fc881ebacf23b21746d5bd1e38f",
	"fattree/strict":                 "4798a8e2dd5b0222fefa6fe816c1c3e4cc5efdb15d641b945a622d347811b5f7",
	"star-nobackpressure/relaxed":    "e3a68c8d32e03cee2221fd68b82025b09786436bb0253743d1675110bf087873",
	"star-nobackpressure/strict":     "e55d4ac8e1e9c13c6708c3f4f5272de3f105cf72941ccb2a230c244227878b6e",
	"star/relaxed":                   "f2392edaff45e2e9e8e68aca18acff3f638d772b49ca54df737858b9baafc337",
	"star/strict":                    "239610d03d8695845ab6b7773446e30452ad375438e0841b714ffcb76853e045",
}

// stormScenario floods a fabric with overlapping bulk messages and probes,
// injected both up front and from timed events and completion callbacks
// mid-run, so network events interleave with other kernel events in every
// phase.
func stormScenario(t *testing.T) func(k *sim.Kernel, n *Network) {
	return func(k *sim.Kernel, n *Network) {
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
}

// TestContentionStorm pins the storm scenario's delivery stream and
// statistics on every fabric under both engines.
func TestContentionStorm(t *testing.T) {
	configs := contentionStormConfigs()
	for _, name := range slices.Sorted(maps.Keys(configs)) {
		for _, e := range engines {
			key := name + "/" + e.name
			t.Run(key, func(t *testing.T) {
				cfg := configs[name]
				cfg.StrictOrder = e.strict
				lines, st := runScenario(cfg, stormScenario(t))
				if len(lines) == 0 {
					t.Fatal("scenario delivered nothing")
				}
				requireDigest(t, lines, st, stormGolden[key])
			})
		}
	}
}

// fuzzedGolden pins TestFuzzedSchedules' digest per fabric and trial,
// captured like stormGolden.
var fuzzedGolden = map[string]string{
	"fattree-nobackpressure/trial0": "7c49e55d79959bf971e15b8dccc842a0918989714003407bc4ec908f85f3494a",
	"fattree-nobackpressure/trial1": "3dff4ff409fa6a170d9bbe2963fc8f1a0fd4c45b24d38d28d2eeeca93903bc11",
	"fattree-nobackpressure/trial2": "76d5e2268a156aca809c621880bcdbc64822b6cd632985c9cbdf96aa37fa3836",
	"fattree-nobackpressure/trial3": "407bbe0fb9fe9bfe02c33b506ed6b5e903afbc2d8e8e8803e72ad0c97c7e6f62",
	"fattree-nobackpressure/trial4": "cb51975d41aec05801b0767804fc7f13c5f38d225dd6542f873af5c6e9519d6d",
	"fattree-nobackpressure/trial5": "5c650bbc2c942987eb6c132fa92b6b0b158022b25a66517e316427a7e74a7aa3",
	"fattree/trial0":                "faccbac5a561dc2b3e14193f5b0153a5d9cd707e603c2e0d641ca9b1f4d84b1d",
	"fattree/trial1":                "a653d5af2c68157dabb862796800856980cb27f8140882cf005fd6b27a039270",
	"fattree/trial2":                "c913899a60da30314d6f4374752a3c91d96b6582fe28222b330590d24be56385",
	"fattree/trial3":                "869a9c74cc47f12f0fde84174e2282b211f3d8e12743f190a26431713a159bec",
	"fattree/trial4":                "aeb00602af7f22cc3fabbe07e0a1c79e5b38a9dcd7067de22c6868cf8edb219b",
	"fattree/trial5":                "5727b75b4be49123694dae8ceedb1ab7b68ee6e59573bde35477da54e4b33909",
	"star-nobackpressure/trial0":    "5047945d7e98bd9451ea2967c62db633e805eae8155d80abc7571b4be33e137b",
	"star-nobackpressure/trial1":    "61789e37e777f9f157452a200eb8e38a0a45e592c63015c200e5bab0cd413f01",
	"star-nobackpressure/trial2":    "4169ccb6bbdf545341f70c58268c38f52979b45724c99eea5b769be6c8054c35",
	"star-nobackpressure/trial3":    "2904ebb8a09e59f78dd0988eb0cc165ec38e9ff4002c85032441527a1a61a7d0",
	"star-nobackpressure/trial4":    "80924e97bc20061bd89432e3aee7b0b705b4b06837ceee76910ad3a22d0f150e",
	"star-nobackpressure/trial5":    "8a31de6ead232b87cd0c335b63777e83a5acfddaabdb30aef0f4ce46404a6699",
	"star/trial0":                   "c60341353019b840de7cc596fa68afb86022683d662f1dd23a753b2afe0c4ad1",
	"star/trial1":                   "b78027baa572ebbb4c99f5a5f1b8ab629dfcbee98d43c41bae45be787e57a74c",
	"star/trial2":                   "3d430c19c8123c9843aa0bde2270a219f12ed4e3384895cf5a29f07face32123",
	"star/trial3":                   "32bbdee8117d7259076989677c1486f2d379235f5dd61d8831a643d80139b11a",
	"star/trial4":                   "0b6e831ed037343095483be1342cc5b2e0522694ee8f1fbf94f109226957b286",
	"star/trial5":                   "35cf9c7c7d272ba2a2a38a2408acb64cd7e52cfe5222c3b065d4df40ec71749a",
}

// fuzzedScenario draws a randomized traffic schedule (sizes, endpoints,
// injection times, probe/bulk mix, chained follow-ups) from seed.
func fuzzedScenario(cfg Config, seed int64) func(k *sim.Kernel, n *Network) {
	rng := rand.New(rand.NewSource(seed))
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
	return func(k *sim.Kernel, n *Network) {
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
}

// TestFuzzedSchedules pins randomized traffic schedules on every fabric.
func TestFuzzedSchedules(t *testing.T) {
	configs := contentionStormConfigs()
	for trial := 0; trial < 6; trial++ {
		for _, name := range slices.Sorted(maps.Keys(configs)) {
			key := fmt.Sprintf("%s/trial%d", name, trial)
			t.Run(key, func(t *testing.T) {
				cfg := configs[name]
				lines, st := runScenario(cfg, fuzzedScenario(cfg, int64(1000*trial)+int64(len(name))))
				requireDigest(t, lines, st, fuzzedGolden[key])
			})
		}
	}
}

// truncationGolden pins TestWindowTruncation's digest per fabric and engine,
// captured like stormGolden.
var truncationGolden = map[string]string{
	"fattree-nobackpressure/relaxed": "d247f1e4410b779a48eeba097f7ae7503ee5bb52871e7bedc1e1a8edb94c6142",
	"fattree-nobackpressure/strict":  "ffe200880a397eda6ded822867aa2782cc8dc1a887274799c264231f7a98b27d",
	"fattree/relaxed":                "d2c9fc2137871c76519d82cee56ba7b76530fef0b7a671ca52c2f9b8c4a9a5fc",
	"fattree/strict":                 "fef74fdaebdb6750ea2d870d2910b7c1afdbcf0b6b4e188304092e6d2f3e90de",
	"star-nobackpressure/relaxed":    "c9558d927aa6505c573d3282c81d50cb39cca04c6a9de0f808bd72dc94d378bb",
	"star-nobackpressure/strict":     "d6756187e07a6d78787622ce0e14efd4eb95458f7b3b6bff87da53ddfd534a49",
	"star/relaxed":                   "1dac7e6e046e2dfbffafef9dea34c608a7ebc13a44c963d2e6900ea51ea1aeaa",
	"star/strict":                    "d6756187e07a6d78787622ce0e14efd4eb95458f7b3b6bff87da53ddfd534a49",
}

// truncatedRun drives the measurement harness' pattern, RunUntil then
// Shutdown, over a window that truncates every transfer mid-flight, and
// returns the trace and the statistics read at the window's end.
func truncatedRun(t *testing.T, cfg Config) ([]string, Stats) {
	k := sim.NewKernel(7)
	n := MustNew(k, cfg)
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

// TestWindowTruncation pins a truncated measurement window on every fabric
// under both engines.
func TestWindowTruncation(t *testing.T) {
	configs := contentionStormConfigs()
	for _, name := range slices.Sorted(maps.Keys(configs)) {
		for _, e := range engines {
			key := name + "/" + e.name
			t.Run(key, func(t *testing.T) {
				cfg := configs[name]
				cfg.StrictOrder = e.strict
				lines, st := truncatedRun(t, cfg)
				if st.PacketsDelivered == 0 {
					t.Fatal("window delivered nothing")
				}
				requireDigest(t, lines, st, truncationGolden[key])
			})
		}
	}
}

// multiWindowGolden pins TestMultiWindowResume, captured like stormGolden.
const multiWindowGolden = "237b9dbdf743af0c6a500e790271ac31bc627af18c898c25c3b0ead22de1beda"

// multiWindowRun drives the kernel in several RunUntil segments, injecting
// between them as RunFor-style consumers do.
func multiWindowRun() ([]string, Stats) {
	cfg := CabConfig()
	cfg.Nodes = 4
	k := sim.NewKernel(99)
	n := MustNew(k, cfg)
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

// TestMultiWindowResume pins a run driven across several RunUntil windows:
// in-flight network events must resume correctly across each boundary.
func TestMultiWindowResume(t *testing.T) {
	lines, st := multiWindowRun()
	requireDigest(t, lines, st, multiWindowGolden)
}

// TestFastPathCompletionClock asserts completion callbacks and probe
// deliveries observe the true kernel clock: the delivery's Arrived stamp,
// the completion argument and Kernel.Now must agree.
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
}

// TestFastPathObserverTimestamps asserts mid-train observer callbacks see
// the true kernel clock too.
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

// TestPacketPoolInvariants sends heavy traffic through each engine and then
// audits the free lists: no packet or message state may appear twice (a
// double put would corrupt later traffic), and every pooled object must have
// its references cleared so drained queues do not pin buffers against reuse.
func TestPacketPoolInvariants(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			cfg := CabConfig()
			cfg.Nodes = 5
			cfg.StrictOrder = e.strict
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
				if p.onDeliver != nil || p.msg != nil || p.route != nil || p.fq != nil {
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
		})
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
