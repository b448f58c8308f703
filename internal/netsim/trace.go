package netsim

import (
	"fmt"

	"github.com/hpcperf/switchprobe/internal/sim"
	"github.com/hpcperf/switchprobe/internal/telemetry"
)

// Structured-trace emission for the network layer.  Every hook is guarded by
// telemetry.TraceEnabled() at the call site, so a disabled tracer costs one
// atomic load; high-rate delivery events additionally pass through the
// network's own deterministic sampler (Network.traceSample), so the traced
// deliveries do not depend on what other simulations run beside it.  Nothing
// here touches simulation state or random streams — tracing a run cannot
// change its schedule, only record it.

// tracePidFor lazily allocates the network's trace process id and names its
// lanes: one trace process per Network, one thread per destination leaf.
// The network is driven by one goroutine, so a plain field suffices.
func (n *Network) tracePidFor() int64 {
	if n.tracePid != 0 {
		return n.tracePid
	}
	pid := telemetry.NextTracePid()
	n.tracePid = pid
	telemetry.EmitProcessName(pid, fmt.Sprintf("net %s/%d nodes", TopologyFingerprint(n.topo), n.cfg.Nodes))
	for leaf := 0; leaf < n.Leaves(); leaf++ {
		telemetry.EmitThreadName(pid, int64(leaf), fmt.Sprintf("leaf %d", leaf))
	}
	return pid
}

// traceDelivery records one sampled packet delivery on the destination
// leaf's lane at its virtual arrival time.
func (n *Network) traceDelivery(p *packet, at sim.Time) {
	telemetry.EmitInstant("net.deliver", fmt.Sprintf("%d→%d", p.src, p.dst),
		n.tracePidFor(), int64(n.LeafOf(p.dst)), int64(at), map[string]any{
			"bytes": p.size,
			"class": p.flow.Class,
		})
}

// traceFault records fault-plan transitions: an instant per transition, plus
// — on repair — a complete span covering the whole outage window, so a
// Perfetto timeline shows each trunk's down time as a solid bar.  Trunk lanes
// use the port index offset past the leaf lanes so they never collide with
// delivery lanes.
func (n *Network) traceFault(pt *SwitchPort, kind FaultKind, factor float64, now sim.Time) {
	pid := n.tracePidFor()
	tid := int64(n.Leaves()) + int64(pt.idx)
	switch kind {
	case FaultTrunkDown:
		telemetry.EmitThreadName(pid, tid, "trunk "+pt.label)
		telemetry.EmitInstant("fault", "down "+pt.label, pid, tid, int64(now), nil)
	case FaultTrunkUp:
		telemetry.EmitInstant("fault", "up "+pt.label, pid, tid, int64(now), nil)
		if pt.downAt < now {
			telemetry.EmitSpan("fault.window", "outage "+pt.label, pid, tid,
				int64(pt.downAt), int64(now-pt.downAt), nil)
		}
	case FaultDegrade:
		telemetry.EmitInstant("fault", fmt.Sprintf("degrade %s x%.2g", pt.label, factor), pid, tid, int64(now), nil)
	}
}
