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
	fmt.Fprintf(&trace, "delivered=%d bytes=%d byclass=%v stalls=%d clamps=%d\n",
		s.PacketsDelivered, s.BytesDelivered, s.BytesByClass, s.StallEvents, s.LedgerClamps)
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
		"93f5f4d67496bdcba3de13d6b92871ac09e408dd174c52789b7a9a523e49dd9e",
		"56d49a1b64cd20df783aafe52acd2a035e1d0435a1617666a8b9d82e91dcff25",
		"897f49308e7850b1cbba674960a864673decdd3e6b0712a8e08ea3bb26e5a36e",
		"41eb7e452bb1e2f85f657669694714f34d616372f679a5974f339be137bbcbb5",
		"fdeb596f96a4f82712d3f8d3d9fba87356812839b1edee65cd64f94ea39c6961",
	},
	"star-no-buf": {
		"1c9861e53718c703fd63de426a3c1a8785c7f66c039f8ac0fece9ced6ea85571",
		"b9e2f3c96b8e1caf65139ee23a5e4b1ce5c2f2d674f9fa58ccc179bb89ae828e",
		"26af06f62a2c736d21377cd5897f2a5a76fad8ecffd4b874d07da4e579286c50",
		"1246da33313b82e8f052113256506d6e600989594ba9d0ced0d52caeae3a16c7",
		"3c2544a828a723ef6f45a07a3f352e55bdc06f9418649ec9a7e7a9ffdead5704",
	},
	"fattree-tiny-buf": {
		"d83d9d5897756738a0588307d30026783ec2770e531d20bc105d8d76e80ae758",
		"fb89eedc4d8595e9326cecff3e9b060c9eb28612e678a7d1c6c01be7af42c1b9",
		"c7cf8dd0b2c0f299ca87f2f3b01ae6c3fd274cde4a275f3450024243229292d3",
		"a272bdb19061e74a0137eb0736cd2f6071c37fcbd7683e162dc70e337d97a464",
		"b31f3e008324ef8e11d90eb655b82a5344074230734163fe9c4bc664cb8af2ed",
	},
	"fattree-default-buf": {
		"335698e0ec2b91ee35d10dfe55681e788ccc1455cb60e19d6dafec55a1533b97",
		"03f9c6637ac3b4dacf1b31363d412098105310fd735a905367c7da2efdb9b14b",
		"0173b1fdabef70e2cef07cb27d1d90f078193d112b0719313c636820d1d68dd2",
		"3331bfbf0255bec78c05a73c9a81cfd800518ca2812b4c3165ce13db292bdb96",
		"3db2769be079f9f79debef2a884b6c9426a0531149af0877a213b81cad8ee71e",
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
