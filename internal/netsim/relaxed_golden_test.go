package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/hpcperf/switchprobe/internal/sim"
)

// relaxedGoldenVariant selects one topology/buffer/observer combination for
// the relaxed-engine golden trace.  The buffer ablation matters because
// EgressBufferBytes=0 disables credit admission entirely, and tiny buffers
// force mid-drain stalls and waiter-FIFO rotation; the observer toggle
// switches finishWalk between per-packet delivery posts and one deferred
// completion per message.
type relaxedGoldenVariant struct {
	name     string
	topology Topology
	nodes    int
	ebuf     int
	observe  bool
}

var relaxedGoldenVariants = []relaxedGoldenVariant{
	{name: "star-tiny-buf", topology: Star{}, nodes: 10, ebuf: 8 * 1024, observe: true},
	{name: "star-no-buf", topology: Star{}, nodes: 10, ebuf: 0, observe: false},
	{name: "fattree-tiny-buf", topology: FatTree{Leaves: 4, UplinksPerLeaf: 2}, nodes: 16, ebuf: 8 * 1024, observe: false},
	{name: "fattree-default-buf", topology: FatTree{Leaves: 4, UplinksPerLeaf: 2}, nodes: 16, ebuf: 16 * 1024, observe: true},
}

// relaxedGoldenRun drives a randomized contention workload (deterministic in
// wseed) through the relaxed engine and returns every observable it
// produces: the delivery trace, message completion instants, probe
// latencies, the final virtual clock, and every schedule-derived counter.
func relaxedGoldenRun(t *testing.T, v relaxedGoldenVariant, wseed int64) string {
	t.Helper()
	k := sim.NewKernel(1000 + wseed)
	cfg := CabConfig()
	cfg.Nodes = v.nodes
	cfg.Topology = v.topology
	cfg.EgressBufferBytes = v.ebuf
	n := MustNew(k, cfg)
	var trace strings.Builder
	if v.observe {
		n.Observe(func(d Delivery) {
			fmt.Fprintf(&trace, "dlv %d>%d sz=%d sent=%d arr=%d\n",
				d.Src, d.Dst, d.Size, int64(d.Sent), int64(d.Arrived))
		})
	}
	// The workload generator's stream is independent of the engine's.
	wr := rand.New(rand.NewSource(wseed))
	sendStorm := func(round int) func(any) {
		return func(any) {
			// A hot destination per round concentrates flows onto one egress
			// port so drains stall mid-flight on exhausted credits, while the
			// remaining messages keep multiple queues non-empty.
			hot := wr.Intn(v.nodes)
			for i := 0; i < 24; i++ {
				src := wr.Intn(v.nodes)
				dst := hot
				if wr.Intn(3) == 0 {
					dst = wr.Intn(v.nodes)
				}
				if dst == src {
					dst = (src + 1) % v.nodes
				}
				size := 1 + wr.Intn(192*1024)
				flow := Flow{Class: "bulk", ID: round*100 + i%7}
				id := fmt.Sprintf("msg r%d i%d %d>%d sz=%d", round, i, src, dst, size)
				if err := n.SendMessage(src, dst, size, flow, func(at sim.Time) {
					fmt.Fprintf(&trace, "%s done=%d\n", id, int64(at))
				}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 4; i++ {
				src := wr.Intn(v.nodes)
				dst := (src + 1 + wr.Intn(v.nodes-1)) % v.nodes
				if dst == src {
					dst = (src + 1) % v.nodes
				}
				id := fmt.Sprintf("probe r%d i%d %d>%d", round, i, src, dst)
				if err := n.SendProbe(src, dst, 64, Flow{Class: "probe", ID: 900 + i}, func(d Delivery) {
					fmt.Fprintf(&trace, "%s lat=%d\n", id, int64(d.Arrived-d.Sent))
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	sendStorm(0)(nil)
	for round := 1; round < 4; round++ {
		k.CallAt(sim.Time(round)*sim.Time(400*sim.Microsecond), sendStorm(round), nil)
	}
	k.Run()
	fmt.Fprintf(&trace, "end=%d\n", int64(k.Now()))
	s := n.Stats()
	fmt.Fprintf(&trace, "delivered=%d bytes=%d byclass=%v stalls=%d cutthrough=%d clamps=%d\n",
		s.PacketsDelivered, s.BytesDelivered, s.BytesByClass, s.StallEvents, s.CutThroughEvents, s.LedgerClamps)
	fmt.Fprintf(&trace, "trunks_failed=%d retransmits=%d reroutes=%d backoff=%d\n",
		s.TrunksFailed, s.PacketsRetransmitted, s.RoutesRecomputed, s.RetryBackoffNs)
	fmt.Fprintf(&trace, "uplink=%v\ndownlink=%v\ntrunks=%v\ntrunkbusy=%v\n",
		durations(s.UplinkBusy), durations(s.DownlinkBusy), s.TrunkLabels, durations(s.TrunkBusy))
	return trace.String()
}

// durations converts busy times to raw nanoseconds (Duration's String
// rounds).
func durations(ds []sim.Duration) []int64 {
	out := make([]int64, len(ds))
	for i, d := range ds {
		out[i] = int64(d)
	}
	return out
}

// relaxedGolden holds the SHA-256 of relaxedGoldenRun's output per variant,
// indexed by workload seed 1..5.
var relaxedGolden = map[string][5]string{
	"star-tiny-buf": {
		"568e0921c16cdd290d304791adb086d4b651b6f9352d520ac23c2580e3604a02",
		"91529dc2f99520422ec3cf0383bf2b9d7d5661646f9c7f88b75e11dfcf5f4977",
		"3326eba5ab84ffcf9ebfdb73745b234ef89e002c3ddf3858719038979ffbe83a",
		"81eb9cc2a8734bdc7319a94373acbf104a80431e3df1971c13f09472c9467a0e",
		"65db94e1cfe1ee9ed713381870e9c21b8b06feba616a9780c9414fca827e9d7c",
	},
	"star-no-buf": {
		"ab181306450a4ad5d386ddaf871fdff9bdc9ac60f4c0c3046fac85547550de7d",
		"c8a8388f1505c150cb6c8dc8fe46e5af8a3465f0809a8c628c29a694149d26b7",
		"cf149cdf512e7adc5e737aef302cb4b5c03b6b98b3f1cc498f66ccb15dab589e",
		"8426109fc4c01a226870927508edbae35e4f948d8288b3f547a6930772cc9441",
		"fe6614dcedbda3d6deef81a06f2ae2f834242530f7abe6e7f881e524d0b6cd03",
	},
	"fattree-tiny-buf": {
		"ef84d979526c0e08fba14e77fedfda88c925585dd69f59568d7a33a06736d244",
		"fbd001589965d6eba98365aec0e875af84c8f0ebfe2f426649dd7cafeb18bca8",
		"68d6f96d5038acb2ff4cee5dcdc377d88a119aef9c10a08f5d86c1683a73d17a",
		"90d52b39bf02f8fb936d6cb6a1ab44ccac603ce14c165151bf73f023322a9f90",
		"effe82a8988eab54b30209b255a000cd607869558bc3be945df9a5539da5d62a",
	},
	"fattree-default-buf": {
		"654ffd50cf31d6a67fa47cfb07df632a6d1be3fba5d9da257b9aaff1311f34d0",
		"8601334bf3b7644f54883c89d39ec1756e93f2ec7d9c7f7783dafd42e3063efd",
		"83614b4e62c5ff2c78224ac11f30167eb236d905da771fcccf94efa6011575aa",
		"3d0750346400e3439167fd594ee4853c6ff5a726ca3f95385b41880824e53072",
		"d0861cec9fe570a471abd28f81dd54c170ea136df2c6db6b366dbd0a027f9dda",
	},
}

// TestRelaxedGoldenTrace pins the relaxed engine's exact packet schedule —
// every delivery, completion and probe latency, the final clock and every
// schedule-derived counter — on fuzzed contention workloads over both
// topologies, with and without credit buffers.  Any change to the drain,
// walk or admission code that moves a single packet changes a hash here;
// such a change must bump ModelVersion and recapture the constants.
func TestRelaxedGoldenTrace(t *testing.T) {
	for _, v := range relaxedGoldenVariants {
		t.Run(v.name, func(t *testing.T) {
			for wseed := int64(1); wseed <= 5; wseed++ {
				want := relaxedGolden[v.name][wseed-1]
				out := relaxedGoldenRun(t, v, wseed)
				sum := sha256.Sum256([]byte(out))
				if got := hex.EncodeToString(sum[:]); got != want {
					t.Errorf("seed %d: relaxed schedule drifted: sha256 %s, want %s\n%s",
						wseed, got, want, head(out, 10))
				}
			}
		})
	}
}

// head returns the first n lines of s, for readable failure output.
func head(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
