// Fault injection: deterministic trunk failures, degraded uplinks, failover
// rerouting and NIC-level retransmit.
//
// A FaultPlan is a schedule of trunk transitions — TrunkDown, TrunkUp and
// Degrade(factor) at virtual offsets — plus an optional MTBF/MTTR renewal
// generator drawn from a dedicated kernel substream ("faults"), so generated
// failures are reproducible per root seed and independent of traffic.  The
// plan is part of Config and of Config.Fingerprint (canonically encoded), so
// faulted and clean runs never share cached artifacts.
//
// Transitions execute as kernel events, never inside a drain or walk:
//
//   - TrunkDown marks the trunk's port down, drops its queued packets (strict
//     mode; relaxed walks never queue at ports) and stamps downAt so relaxed
//     walks committed past the transition instant lose their packets too.
//   - TrunkUp clears the mark and restores downAt to the next scheduled
//     failure of that trunk (or "never").
//   - Degrade scales the trunk's serialization time by the factor in both
//     engines; factor 1 restores full speed.
//
// After every transition batch the runtime recomputes affected routes through
// the topology's FailoverRouter, rewrites the route of every packet still
// queued at a NIC, and resumes stalled senders.  Pairs with no surviving
// route keep a dead route whose first trunk is down, so their traffic stalls
// at the NIC — the paper-faithful "leaf partitioned" behaviour — until a
// repair restores a path.
//
// A packet lost on a failed trunk is retransmitted from its source NIC after
// a detection timeout with capped exponential backoff (retryTimeout,
// retryBackoffCap), re-entering the normal injection funnel with the current
// (post-failover) route.
//
// Relaxed-engine interaction.  Fault transitions bound the lookahead horizon:
// no drain commits at or past the next scheduled transition, so arbitration
// and walks never batch across a topology change.  Walks check each trunk
// hop's downAt against the packet's arrival instant, which catches both
// already-down trunks and failures scheduled inside the committed window.
// Loss and retransmit run on the one goroutine that drives the network, in
// the same order on every rerun, so faulted runs stay byte-identical.
package netsim

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/hpcperf/switchprobe/internal/sim"
	"github.com/hpcperf/switchprobe/internal/telemetry"
)

// FaultKind names one trunk transition type.
type FaultKind uint8

const (
	// FaultTrunkDown takes the trunk out of service: queued and in-flight
	// packets are lost (and retransmitted), and routes fail over.
	FaultTrunkDown FaultKind = iota
	// FaultTrunkUp returns the trunk to service and restores baseline routes.
	FaultTrunkUp
	// FaultDegrade multiplies the trunk's serialization time by Factor
	// (Factor 1 restores full speed).
	FaultDegrade
)

// String implements fmt.Stringer with the tokens ParseFaultPlan accepts.
func (k FaultKind) String() string {
	switch k {
	case FaultTrunkDown:
		return "down"
	case FaultTrunkUp:
		return "up"
	case FaultDegrade:
		return "degrade"
	default:
		return fmt.Sprintf("faultkind(%d)", uint8(k))
	}
}

// FaultEvent is one scheduled trunk transition.
type FaultEvent struct {
	// At is the virtual-time offset of the transition from simulation start.
	At sim.Duration
	// Trunk is the label of the trunk port ("leaf0.up1"), as reported by
	// Layout.Trunks / Stats.TrunkLabels.
	Trunk string
	// Kind selects the transition.
	Kind FaultKind
	// Factor is the serialization multiplier for FaultDegrade (≥ 1); ignored
	// otherwise.
	Factor float64
}

// FaultPlan schedules trunk faults for one simulation run.  The zero value
// (and a nil plan) injects nothing.
type FaultPlan struct {
	// Events are explicit transitions, applied at their offsets in (At, Trunk)
	// order.
	Events []FaultEvent
	// MTBF, when positive, enables the renewal generator: trunk failures
	// arrive with exponentially distributed gaps of this mean, each striking
	// a uniformly drawn trunk and repairing after an exponential MTTR.  Both
	// must be set together.
	MTBF sim.Duration
	// MTTR is the mean repair time of generated failures.
	MTTR sim.Duration
}

const (
	// retryTimeout is the retransmit detection timeout, the base of the
	// exponential backoff.
	retryTimeout = 50 * sim.Microsecond
	// retryBackoffCap caps the exponential backoff.
	retryBackoffCap = sim.Millisecond
)

// Active reports whether the plan injects any faults.
func (fp *FaultPlan) Active() bool {
	return fp != nil && (len(fp.Events) > 0 || fp.MTBF > 0)
}

// sortedEvents returns the plan's events in canonical (At, Trunk, Kind,
// Factor) order, the order they are applied in and fingerprinted in.
func (fp *FaultPlan) sortedEvents() []FaultEvent {
	evs := append([]FaultEvent(nil), fp.Events...)
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Trunk != b.Trunk {
			return a.Trunk < b.Trunk
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Factor < b.Factor
	})
	return evs
}

// Fingerprint canonically encodes every plan field that influences simulated
// behaviour; it joins Config.Fingerprint when the plan is active.  The text
// ends with the retry constants (rto, rcap): it is a cache key, and
// dropping them would re-key every faulted artifact.
func (fp *FaultPlan) Fingerprint() string {
	var b strings.Builder
	for i, e := range fp.sortedEvents() {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%s:%s@%d", e.Kind, e.Trunk, int64(e.At))
		if e.Kind == FaultDegrade {
			b.WriteByte(':')
			b.WriteString(strconv.FormatFloat(e.Factor, 'g', -1, 64))
		}
	}
	fmt.Fprintf(&b, "|mtbf=%d|mttr=%d|rto=%d|rcap=%d",
		int64(fp.MTBF), int64(fp.MTTR), int64(retryTimeout), int64(retryBackoffCap))
	return b.String()
}

// String renders the event in the ParseFaultPlan grammar
// (kind:trunk@offset[:factor]), so errors name it the way it was written.
func (e FaultEvent) String() string {
	s := fmt.Sprintf("%s:%s@%v", e.Kind, e.Trunk, time.Duration(e.At))
	if e.Kind == FaultDegrade {
		s += ":" + strconv.FormatFloat(e.Factor, 'g', -1, 64)
	}
	return s
}

// Validate checks the plan against a built layout: every referenced trunk
// must exist, degrade factors must be finite and ≥ 1, the MTBF/MTTR pair
// must be set together, and the fabric must have trunks at all (a single
// switch has no alternate route to fail over to, so plans are rejected
// there).  Config.Validate and New additionally bound degrade factors by the
// link's MTU serialization (see validateFaults).
func (fp *FaultPlan) Validate(lay Layout) error {
	if !fp.Active() {
		return nil
	}
	if len(lay.Trunks) == 0 {
		return fmt.Errorf("netsim: fault plan needs a topology with trunks (star has none)")
	}
	if (fp.MTBF > 0) != (fp.MTTR > 0) {
		return fmt.Errorf("netsim: fault plan MTBF and MTTR must be set together (mtbf=%v mttr=%v)", fp.MTBF, fp.MTTR)
	}
	if fp.MTBF < 0 || fp.MTTR < 0 {
		return fmt.Errorf("netsim: negative MTBF/MTTR (mtbf=%v mttr=%v)", fp.MTBF, fp.MTTR)
	}
	labels := make(map[string]bool, len(lay.Trunks))
	for _, t := range lay.Trunks {
		labels[t.Label] = true
	}
	for _, e := range fp.Events {
		if e.At < 0 {
			return fmt.Errorf("netsim: fault event %s:%s at negative offset %v", e.Kind, e.Trunk, e.At)
		}
		if !labels[e.Trunk] {
			return fmt.Errorf("netsim: fault event references unknown trunk %q", e.Trunk)
		}
		switch e.Kind {
		case FaultTrunkDown, FaultTrunkUp:
		case FaultDegrade:
			// Written so that NaN, which compares false to everything, fails.
			if !(e.Factor >= 1) || math.IsInf(e.Factor, 1) {
				return fmt.Errorf("netsim: fault event %s: degrade factor must be a finite number >= 1", e)
			}
		default:
			return fmt.Errorf("netsim: unknown fault kind %d for trunk %q", e.Kind, e.Trunk)
		}
	}
	return nil
}

// validateFaults checks the fault plan against the built layout, then
// rejects degrade factors under which an MTU-sized packet's serialization
// time no longer fits in sim.Duration: converting the product would wrap and
// make the degraded trunk faster instead of slower.
func (c Config) validateFaults(lay Layout) error {
	if err := c.Faults.Validate(lay); err != nil || !c.Faults.Active() {
		return err
	}
	serMTU := Link{Bandwidth: c.LinkBandwidth}.Serialization(c.MTU)
	for _, e := range c.Faults.Events {
		// math.MaxInt64 rounds to 2^63 as a float64: only a product strictly
		// below it converts to a Duration without wrapping.
		if e.Kind == FaultDegrade && !(float64(serMTU)*e.Factor < math.MaxInt64) {
			return fmt.Errorf("netsim: fault event %s: degraded serialization of an MTU packet (%v x %g) overflows the virtual clock",
				e, serMTU, e.Factor)
		}
	}
	return nil
}

// ParseFaultPlan parses the CLI encoding of explicit fault events: a
// comma-separated list of kind:trunk@offset[:factor] items, e.g.
//
//	down:leaf0.up1@5ms,up:leaf0.up1@12ms,degrade:leaf1.up0@2ms:2.5
//
// Offsets use Go duration syntax.  An empty string yields a nil plan.
func ParseFaultPlan(s string) (*FaultPlan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	fp := &FaultPlan{}
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		parts := strings.SplitN(item, ":", 3)
		if len(parts) < 2 {
			return nil, fmt.Errorf("netsim: fault event %q: want kind:trunk@offset[:factor]", item)
		}
		var kind FaultKind
		switch parts[0] {
		case "down":
			kind = FaultTrunkDown
		case "up":
			kind = FaultTrunkUp
		case "degrade":
			kind = FaultDegrade
		default:
			return nil, fmt.Errorf("netsim: fault event %q: unknown kind %q (valid: down, up, degrade)", item, parts[0])
		}
		trunkAt := strings.SplitN(parts[1], "@", 2)
		if len(trunkAt) != 2 || trunkAt[0] == "" {
			return nil, fmt.Errorf("netsim: fault event %q: want kind:trunk@offset[:factor]", item)
		}
		d, err := time.ParseDuration(trunkAt[1])
		if err != nil {
			return nil, fmt.Errorf("netsim: fault event %q: bad offset: %v", item, err)
		}
		ev := FaultEvent{At: sim.Duration(d.Nanoseconds()), Trunk: trunkAt[0], Kind: kind}
		if kind == FaultDegrade {
			if len(parts) != 3 {
				return nil, fmt.Errorf("netsim: fault event %q: degrade needs a factor (degrade:trunk@offset:factor)", item)
			}
			f, err := strconv.ParseFloat(parts[2], 64)
			if err != nil {
				return nil, fmt.Errorf("netsim: fault event %q: bad factor: %v", item, err)
			}
			ev.Factor = f
		} else if len(parts) == 3 {
			return nil, fmt.Errorf("netsim: fault event %q: only degrade takes a factor", item)
		}
		fp.Events = append(fp.Events, ev)
	}
	return fp, nil
}

// faultTransition is one pending transition in the runtime's time-sorted
// queue.  generated marks renewal-generator failures, which chain their own
// repair and successor draw when they fire.
type faultTransition struct {
	at        sim.Time
	trunk     *SwitchPort
	kind      FaultKind
	factor    float64
	generated bool
}

// setupFaults arms the fault runtime at network construction: explicit plan
// events become pending transitions, and the renewal generator pre-draws its
// first failure so downAt stamps are known before any traffic walks.
func (n *Network) setupFaults(fp *FaultPlan) {
	n.faultsOn = true
	n.nextFaultAt = maxSimTime
	n.faultFn = func(any) { n.faultStep() }
	n.retryFn = func(a any) { n.retryPacket(a.(*packet)) }
	byLabel := make(map[string]*SwitchPort, len(n.trunks))
	for _, pt := range n.trunks {
		byLabel[pt.label] = pt
	}
	for _, e := range fp.sortedEvents() {
		n.insertFault(faultTransition{
			at:     sim.Time(e.At),
			trunk:  byLabel[e.Trunk],
			kind:   e.Kind,
			factor: e.Factor,
		})
	}
	if fp.MTBF > 0 {
		n.mtbf, n.mttr = fp.MTBF, fp.MTTR
		n.faultRng = n.k.NewSubstream("faults")
		n.insertGeneratedFailure(0)
	}
}

// insertGeneratedFailure draws the next renewal failure — exponential gap
// from `from`, uniform trunk — and queues it.  Drawing one failure ahead
// keeps every trunk's downAt stamp current for relaxed walks.
func (n *Network) insertGeneratedFailure(from sim.Time) {
	gap := sim.Duration(n.faultRng.ExpFloat64() * float64(n.mtbf))
	trunk := n.trunks[n.faultRng.Int63n(int64(len(n.trunks)))]
	n.insertFault(faultTransition{at: from.Add(gap), trunk: trunk, kind: FaultTrunkDown, generated: true})
}

// insertFault queues one pending transition (kept time-sorted), schedules its
// kernel event, and refreshes the affected trunk's downAt stamp and the
// relaxed engine's horizon bound.
func (n *Network) insertFault(tr faultTransition) {
	i := sort.Search(len(n.faultPend), func(i int) bool { return n.faultPend[i].at > tr.at })
	n.faultPend = append(n.faultPend, faultTransition{})
	copy(n.faultPend[i+1:], n.faultPend[i:])
	n.faultPend[i] = tr
	if tr.kind == FaultTrunkDown && !tr.trunk.down && tr.at < tr.trunk.downAt {
		tr.trunk.downAt = tr.at
	}
	if tr.at < n.nextFaultAt {
		n.nextFaultAt = tr.at
	}
	n.k.CallAt(tr.at, n.faultFn, nil)
}

// faultStep is the kernel event applying every transition due at the current
// instant, then recomputing routes and resuming stalled senders.  It fires
// before any same-instant drain or pipeline event armed after the transition
// was inserted (its sequence number is older), so drains never observe a
// stale topology at or past a transition instant.
func (n *Network) faultStep() {
	now := n.k.Now()
	changed := false
	for len(n.faultPend) > 0 && n.faultPend[0].at <= now {
		tr := n.faultPend[0]
		copy(n.faultPend, n.faultPend[1:])
		n.faultPend = n.faultPend[:len(n.faultPend)-1]
		n.applyFault(tr, now)
		changed = true
	}
	n.nextFaultAt = maxSimTime
	if len(n.faultPend) > 0 {
		n.nextFaultAt = n.faultPend[0].at
	}
	if changed {
		n.recomputeRoutes()
		n.sweepQueuedRoutes()
		n.resumeAfterFault(now)
	}
}

// applyFault applies one transition to its trunk port.
func (n *Network) applyFault(tr faultTransition, now sim.Time) {
	pt := tr.trunk
	switch tr.kind {
	case FaultTrunkDown:
		if tr.generated {
			// Renewal chain: schedule this failure's repair and pre-draw the
			// next failure.  Draw order is fixed (repair gap, then the next
			// failure's gap and trunk), so the substream consumption — and with
			// it the whole fault timeline — is independent of traffic.
			repair := now.Add(sim.Duration(n.faultRng.ExpFloat64() * float64(n.mttr)))
			n.insertFault(faultTransition{at: repair, trunk: pt, kind: FaultTrunkUp, generated: true})
			n.insertGeneratedFailure(now)
		}
		if pt.down {
			return // already down (generator struck a failed trunk): no-op
		}
		pt.down = true
		pt.downAt = now
		n.trunksFailed++
		if telemetry.TraceEnabled() {
			n.traceFault(pt, FaultTrunkDown, 0, now)
		}
		// Strict mode queues packets at ports; every queued packet holds a
		// buffer reserve taken at admission.  Drop them all — the link is
		// gone — and retransmit from their source NICs.  (Relaxed walks never
		// queue at ports, so this loop is empty there.)
		for !pt.queue.empty() {
			p := pt.queue.pop()
			pt.buffered -= p.size
			n.losePacket(p, now)
		}
	case FaultTrunkUp:
		if telemetry.TraceEnabled() {
			// Emitted before downAt is rearmed: it still holds the failure
			// instant, which closes the outage span.
			n.traceFault(pt, FaultTrunkUp, 0, now)
		}
		pt.down = false
		pt.downAt = maxSimTime
		for _, tr2 := range n.faultPend {
			if tr2.trunk == pt && tr2.kind == FaultTrunkDown {
				pt.downAt = tr2.at
				break // pending queue is time-sorted: first hit is earliest
			}
		}
	case FaultDegrade:
		if tr.factor >= 1 {
			pt.slow = tr.factor
			if telemetry.TraceEnabled() {
				n.traceFault(pt, FaultDegrade, tr.factor, now)
			}
		}
	}
}

// recomputeRoutes re-resolves every cross-trunk node pair through the
// topology's FailoverRouter against the current trunk health, counting the
// pairs whose route actually changed.  Pairs with no surviving path keep
// their current (dead) route: its first trunk is down, so their traffic
// stalls at the NIC until a repair — the paper-faithful partition stall.
// Topologies without a FailoverRouter keep static routes (same stall).
func (n *Network) recomputeRoutes() {
	router, ok := n.topo.(FailoverRouter)
	if !ok {
		return
	}
	downFn := func(trunk int) bool { return n.trunks[trunk].down }
	nodes := n.cfg.Nodes
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			cur := n.routes[src*nodes+dst]
			if src == dst || len(cur) <= 1 {
				continue // no trunk on this pair's path
			}
			hops, alive := router.RouteAvoiding(nodes, src, dst, downFn)
			if !alive {
				continue
			}
			route := make([]*SwitchPort, 0, len(hops)+1)
			for _, h := range hops {
				route = append(route, n.trunks[h])
			}
			route = append(route, n.egress[dst])
			same := len(route) == len(cur)
			for i := 0; same && i < len(route); i++ {
				same = route[i] == cur[i]
			}
			if !same {
				n.routes[src*nodes+dst] = route
				n.routesRecomputed++
			}
		}
	}
}

// sweepQueuedRoutes rebinds every packet still queued at a NIC to the current
// route of its pair, so queued traffic fails over (or back) with the route
// table.  In-flight packets keep their old route and take the per-hop down
// checks instead.
func (n *Network) sweepQueuedRoutes() {
	nodes := n.cfg.Nodes
	for _, nc := range n.nics {
		for _, fq := range nc.queues {
			for i := fq.q.head; i < len(fq.q.buf); i++ {
				p := fq.q.buf[i]
				p.route = n.routes[p.src*nodes+p.dst]
			}
		}
	}
}

// resumeAfterFault retries every sender a transition may have unblocked (or
// newly blocked senders whose wait had no wake scheduled): strict-mode trunk
// waiters, relaxed-mode trunk waiter FIFOs, stalled NICs, and the parked
// list — whose drains must re-run under the new horizon bound.
func (n *Network) resumeAfterFault(now sim.Time) {
	if !n.relaxed {
		for _, pt := range n.trunks {
			n.wakeWaiters(pt)
		}
		return
	}
	for _, pt := range n.trunks {
		if len(pt.relWaiters) == 0 {
			continue
		}
		waiters := append([]*nic(nil), pt.relWaiters...)
		for i := range pt.relWaiters {
			pt.relWaiters[i] = nil
		}
		pt.relWaiters = pt.relWaiters[:0]
		for _, nc := range waiters {
			nc.dropWaitingOn(pt)
		}
		for _, nc := range waiters {
			if !nc.parked {
				n.wakingPort = pt
				n.drainNic(nc)
				n.wakingPort = nil
			}
		}
	}
	for _, nc := range n.nics {
		if nc.stalled && !nc.parked {
			n.drainNic(nc)
		}
	}
	if len(n.parked) > 0 {
		n.ensureAdvance(now)
	}
}

// losePacket records the loss of a packet on a failed trunk and schedules its
// retransmission from the source NIC: detection timeout with capped
// exponential backoff from the loss instant, then re-injection on the current
// route.
func (n *Network) losePacket(p *packet, at sim.Time) {
	if p.retries < 62 {
		p.retries++
	}
	backoff := retryTimeout << (p.retries - 1)
	if backoff > retryBackoffCap || backoff <= 0 {
		backoff = retryBackoffCap
	}
	n.packetsRetransmitted++
	n.retryBackoffNs += int64(backoff)
	retryAt := at.Add(backoff)
	if now := n.k.Now(); retryAt < now {
		retryAt = now
	}
	n.k.CallAt(retryAt, n.retryFn, p)
}

// retryPacket re-injects a lost packet at its source NIC on the pair's
// current route.
func (n *Network) retryPacket(p *packet) {
	p.hop = 0
	p.route = n.routes[p.src*n.cfg.Nodes+p.dst]
	n.inject(p)
}

// loseWalked is the relaxed-walk loss path: the walk committed the packet's
// arrival at a trunk hop at or past the trunk's downAt stamp.  The packet
// still holds its reserve on that hop (the walk reserves hop h+1 before
// releasing hop h); push the matching release at the loss instant so the
// port's credit ledger stays balanced, then retransmit.
func (n *Network) loseWalked(p *packet, pt *SwitchPort, at sim.Time) {
	if pt.capacity != 0 {
		pt.led.push(at, p.size)
	}
	n.losePacket(p, at)
}
