package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/hpcperf/switchprobe/internal/netsim"
	"github.com/hpcperf/switchprobe/internal/sim"
	"github.com/hpcperf/switchprobe/internal/telemetry"
)

// TestSimUsageFoldsNetworkTelemetry pins the Simulator-line plumbing: one
// recorded relaxed run's kernel and network counters reach the
// registry-backed snapshot unchanged, the elided and train fields read zero
// (network events are kernel events, and the relaxed engine walks every
// packet individually), the line renders the clamp count without a
// cut-through or trains clause, no elided or train series is registered,
// and Reset rewinds every counter.
func TestSimUsageFoldsNetworkTelemetry(t *testing.T) {
	ResetSimUsage()
	defer ResetSimUsage()

	k := sim.NewKernel(5)
	cfg := netsim.CabConfig()
	cfg.EgressBufferBytes = 8 * 1024
	n := netsim.MustNew(k, cfg)
	// Many-to-one bulk traffic contends for one egress port's credits.
	for src := 1; src < cfg.Nodes; src++ {
		if err := n.SendMessage(src, 0, 64<<10, netsim.Flow{Class: "bulk", ID: src}, nil); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	RecordSimRun(k, n, 2*time.Millisecond)

	ks, ns := k.Stats(), n.Stats()
	u := SimUsageSnapshot()
	if u.Runs != 1 || u.EventsFired != int64(ks.EventsFired) || u.EventsScheduled != int64(ks.EventsScheduled) {
		t.Fatalf("kernel counters not folded: %+v, kernel %+v", u, ks)
	}
	if u.EventsElided != 0 {
		t.Fatalf("elided events must read zero: %d", u.EventsElided)
	}
	if u.VirtualNS != int64(k.Now()) || u.WallNS != (2*time.Millisecond).Nanoseconds() {
		t.Fatalf("virtual %d / wall %d ns, want %d / %d", u.VirtualNS, u.WallNS, int64(k.Now()), (2 * time.Millisecond).Nanoseconds())
	}
	if u.LedgerClamps != ns.LedgerClamps {
		t.Fatalf("ledger clamps %d, network reported %d", u.LedgerClamps, ns.LedgerClamps)
	}
	if u.TrainsWalked != 0 || u.TrainPackets != 0 {
		t.Fatalf("train fields must read zero: walked %d, packets %d", u.TrainsWalked, u.TrainPackets)
	}
	line := u.String()
	if !strings.Contains(line, fmt.Sprintf(", %d clamps,", ns.LedgerClamps)) {
		t.Fatalf("Simulator line lacks the clamp count %d: %s", ns.LedgerClamps, line)
	}
	if strings.Contains(line, "train") || strings.Contains(line, "cut-through") || strings.Contains(line, "faults:") {
		t.Fatalf("fault-free relaxed run rendered a trains, cut-through or faults clause: %s", line)
	}
	for _, f := range telemetry.Default().Gather() {
		if strings.Contains(f.Name, "train") || strings.Contains(f.Name, "elided") {
			t.Errorf("registry still exposes %s", f.Name)
		}
	}

	ResetSimUsage()
	if got := SimUsageSnapshot(); got != (SimUsage{}) {
		t.Fatalf("ResetSimUsage left %+v", got)
	}
}
