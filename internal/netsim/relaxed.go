// Schedule-relaxed execution: fused route walks on per-flow random
// substreams.
//
// The strict pipeline (netsim.go) replays one global (time, seq) interleaving
// of every per-hop event, drawing all stochastic fabric delays from a single
// shared RNG stream.  That pins a total order across flows that the paper's
// methodology never needs — it only needs statistically faithful latency and
// slowdown distributions — and it is why the cut-through fast path's 82–85%
// event elision bought only ~5% wall-clock: the events got cheaper, but every
// one of them still had to happen, in order.
//
// Relaxed mode (the default since ModelVersion 3) removes the order pin:
//
//   - Per-flow RNG substreams.  Each flow queue draws its fabric delays from
//     a private stream seeded deterministically from (root seed, source node,
//     flow class, flow id) via sim.Kernel.NewSubstream.  One flow's draws no
//     longer serialize against every other flow's, so the simulator is free
//     to advance flows out of global order while each flow's delay sequence
//     — and therefore the run as a whole for a fixed root seed — stays
//     bit-reproducible.
//
//   - Fused route walks.  When a NIC picks a packet, walkPacket advances it
//     through its entire route analytically in one pass — serialization,
//     wire, fabric draw, port-FIFO wait, credit admission per hop — instead
//     of scheduling 4–8 lane events per packet.  Port state is kept as
//     scalars a walk can push forward: freeAt (when the port's link frees)
//     and a credit ledger of scheduled future buffer releases, so head-of-
//     line blocking and back-pressure stalls shift a walk's hop times exactly
//     like the strict event cascade would.
//
//   - Conservative lookahead.  A NIC batch-commits consecutive picks ahead
//     of the kernel clock, but never at or beyond the next instant the rest
//     of the simulation can act (the kernel's next event or the lane's next
//     entry): a completion or probe injection scheduled before that horizon
//     could add a competing flow, and round-robin arbitration must see it.
//     Blocked or out-of-horizon NICs park behind a kick entry on the
//     existing deferred lane, which already interleaves with kernel events
//     in (time, seq) order.
//
// Only three kinds of deferred work survive per message: NIC kicks, probe /
// observer deliveries (which must run user callbacks at their true virtual
// time), and one completion entry per message.  Bulk traffic — the dominant
// packet population — crosses the fabric with zero scheduled events.
//
// Relaxed runs are deterministic for a fixed root seed but NOT byte-identical
// to strict runs; the strict mode remains selectable (Config.StrictOrder) as
// the golden oracle, and the equivalence tests assert the two agree
// distributionally.
package netsim

import (
	"github.com/hpcperf/switchprobe/internal/sim"
	"github.com/hpcperf/switchprobe/internal/telemetry"
)

// relaxedLookaheadWindows scales the relaxed-mode commit horizon in units of
// one deepest-route traversal.  Larger values amortize the advance/wake
// machinery over more packets per batch but let a drain commit further ahead
// of traffic it cannot yet see; one traversal is the largest window that
// keeps arbitration staleness below what contention-sensitive orderings
// (concurrent traffic overtaking serialized traffic) can tolerate — at 2 the
// scheduling overhead barely drops while measured distributions start to
// drift, and at 4 orderings invert outright.
const relaxedLookaheadWindows = 1

// release is one scheduled future buffer-credit return on a port's ledger.
// cum is the cumulative bytes of every release ever pushed, so a range of
// releases is a subtraction of two entries rather than a sum.
type release struct {
	at  sim.Time
	cum int64
}

// relLedger tracks the scheduled credit releases of one port in relaxed
// mode.  Reserves are folded into SwitchPort.buffered immediately (as in
// strict mode); their matching releases land here, timestamped, so admission
// queries at future instants can count only the credits still held then.
// Release times are non-decreasing per port (walks push the port's freeAt
// forward), so the queue stays sorted by construction.
type relLedger struct {
	q    []release
	head int
	// total is the cumulative bytes ever pushed; applied is the prefix
	// already folded back into the port's buffered count.
	total   int64
	applied int64
	// clamps counts pushes whose release had to be postponed to keep the
	// queue sorted (see push).  Telemetry only — surfaced via Stats so
	// credit-timing drift is measurable instead of silent.
	clamps int64
}

// push schedules size bytes of credit to return at time at.  Probe shadow
// service (walkPacket) can finish before the port's last committed release;
// clamping keeps the queue sorted at the cost of returning those few bytes
// marginally late.
func (l *relLedger) push(at sim.Time, size int) {
	if len(l.q) > 0 && at < l.q[len(l.q)-1].at {
		at = l.q[len(l.q)-1].at
		l.clamps++
	}
	l.total += int64(size)
	l.q = append(l.q, release{at: at, cum: l.total})
}

// apply destructively consumes every release due at or before now and
// returns the byte count to subtract from the port's buffered total.
// Only past releases are consumed — admission queries always look strictly
// ahead of the clock and use the sorted tail non-destructively.
func (l *relLedger) apply(now sim.Time) int {
	if l.head == len(l.q) || l.q[l.head].at > now {
		return 0
	}
	last := int64(0)
	for l.head < len(l.q) && l.q[l.head].at <= now {
		last = l.q[l.head].cum
		l.head++
	}
	delta := last - l.applied
	l.applied = last
	if l.head == len(l.q) {
		l.q = l.q[:0]
		l.head = 0
	}
	return int(delta)
}

// relAdmit returns the earliest instant ≥ t at which the port's input buffer
// can accept size more bytes, mirroring strict mode's reserve-at-service-
// start credit semantics.  Every reserve currently counted in buffered has a
// matching release on the ledger (walks reserve and release atomically), so
// the search always terminates.
func (n *Network) relAdmit(pt *SwitchPort, size int, t sim.Time) sim.Time {
	if pt.capacity == 0 {
		return t
	}
	led := &pt.led
	if led.head < len(led.q) && led.q[led.head].at <= n.k.Now() {
		// Matured releases exist; fold them in before judging capacity.
		pt.buffered -= led.apply(n.k.Now())
	}
	if pt.buffered+size <= pt.capacity {
		return t
	}
	// Admission needs `need` cumulative release-bytes beyond the applied
	// prefix; binary-search the first release reaching it.
	need := int64(pt.buffered+size-pt.capacity) + led.applied
	lo, hi := led.head, len(led.q)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if led.q[mid].cum < need {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(led.q) {
		panic("netsim: relaxed admission found no scheduled release (unbalanced credit reserve)")
	}
	if at := led.q[lo].at; at > t {
		return at
	}
	return t
}

// pump starts draining the NIC in the active scheduling mode; it is the
// single injection funnel shared by messages and probes.
//
// Strict mode drains inline (its event sequence is byte-pinned).  Relaxed
// mode defers: the NIC is marked dirty and drained by a single batch entry
// ordered directly after the current event at the same virtual instant, so a
// rank posting a whole window of sends in one event pays one drain scan for
// the lot instead of one per message.  The deferral shifts no timestamps —
// packets still start no earlier than their enqueue instant, and the drain
// runs before virtual time advances past it.
func (n *Network) pump(nc *nic) {
	if !n.relaxed {
		n.tryStartUplink(nc)
		return
	}
	if nc.dirty {
		// A batch entry is already bound to drain this NIC; the new packets
		// are on its queues and will be seen then.
		return
	}
	if nc.parked {
		// The advance owns the cursor's resume — up to a full lookahead away,
		// too late for the arbitration slot a fresh head is owed now.
		n.expressHeads(nc, n.k.Now())
		return
	}
	nc.dirty = true
	n.dirtyNics = append(n.dirtyNics, nc)
	n.ensureBatchDrain()
}

// ensureBatchDrain arms the same-instant batch-drain entry if none is
// pending: a lane entry keyed (now, next seq) so it executes as soon as the
// current event's dispatch completes, or a kernel event when the lane is
// unavailable.
func (n *Network) ensureBatchDrain() {
	if n.batchPending {
		return
	}
	n.batchPending = true
	at := n.k.Now()
	if n.fastOn && at < laneMaxAt && n.k.NextSeq() < laneMaxSeq {
		n.lane.push(laneEvent{key: laneKey(at, n.k.AllocSeq()), kind: laneRelaxedBatch})
		return
	}
	n.k.CallAt(at, n.batchFn, nil)
}

// drainBatch drains every NIC marked dirty since the entry was armed.  A NIC
// already drained by a port wake in the meantime cleared its own flag and is
// skipped; a parked NIC stays parked (the advance owns its resume).
func (n *Network) drainBatch() {
	n.batchPending = false
	for i, nc := range n.dirtyNics {
		n.dirtyNics[i] = nil
		if nc.dirty {
			nc.dirty = false
			if !nc.parked {
				n.drainNic(nc)
			}
		}
	}
	n.dirtyNics = n.dirtyNics[:0]
}

// drainNic is the relaxed-order NIC scheduler: it repeatedly picks the next
// admissible packet in round-robin flow order and walks it through its whole
// route, advancing a local uplink cursor t ahead of the kernel clock up to
// the conservative horizon (one lookahead past the clock).  It parks on the
// network's advance list when the uplink is blocked on downstream credits or
// when committing further would outrun the horizon.
func (n *Network) drainNic(nc *nic) {
	// A drain reaching the NIC through any path (batch entry, port wake,
	// parked-NIC advance) satisfies a pending batch mark: clear it so the
	// batch skips the NIC instead of rescanning it.
	nc.dirty = false
	total := len(nc.queues)
	if total == 0 {
		return
	}
	now := n.k.Now()
	horizon := now.Add(n.lookahead)
	if n.faultsOn && n.nextFaultAt < horizon {
		// Fault transitions bound the lookahead: no pick is committed at or
		// past the next scheduled trunk transition, so arbitration never
		// batches across a topology change (walks committed before the bound
		// still cover in-window failures via the per-hop downAt check).
		horizon = n.nextFaultAt
	}
	t := nc.freeAt
	if t < now {
		t = now
	}
	n.expressHeads(nc, now)
	for {
		if t >= horizon {
			// Committing further would outrun the lookahead: traffic injected
			// by events this drain cannot yet see (kernel events, deferred
			// completions) must get its arbitration turn at most one fabric
			// traversal late.  Park until the clock catches up.
			nc.freeAt = t
			n.park(nc)
			return
		}
		var chosen *packet
		var cfq *flowQueue
		var chosenFirst *SwitchPort
		var denied *SwitchPort // port that already refused admission this pass
		anyBlocked := false
		// Round-robin over the non-empty queues only: two bitmap segments,
		// nc.next..total-1 then 0..nc.next-1, visiting exactly the indices
		// the dense scan would have visited in the same order (empty queues
		// contribute no side effects there).
	scan:
		for seg := 0; seg < 2; seg++ {
			from, limit := nc.next, total
			if seg == 1 {
				from, limit = 0, nc.next
			}
			for idx := nc.nextActive(from, limit); idx >= 0; idx = nc.nextActive(idx+1, limit) {
				fq := nc.queues[idx]
				p := fq.q.front()
				first := p.route[0]
				// A port with waiters grants credits exclusively through its
				// FIFO rotation: a NIC arriving outside a wake joins the queue
				// rather than racing the head for matured or future credits.
				// The NIC the wake itself resumed is exempt (wakingPort): it IS
				// the FIFO head taking its turn, and without the exemption every
				// resumed waiter would see the others still queued and re-block
				// without ever consulting the ledger.  The denied cache skips
				// repeat admission checks against a port that already refused
				// this pass.
				if (n.faultsOn && first.down) || first == denied || (len(first.relWaiters) > 0 && first != n.wakingPort) || n.relAdmit(first, p.size, t) > t {
					anyBlocked = true
					denied = first
					if !nc.isWaitingOn(first) {
						nc.waitingOn = append(nc.waitingOn, first)
						first.relWaiters = append(first.relWaiters, nc)
						n.ensureRelWake(first)
					}
					continue
				}
				chosen, cfq, chosenFirst = fq.q.pop(), fq, first
				if fq.q.empty() {
					nc.clearActive(idx)
				}
				fq.exprPending = false
				nc.next = idx + 1
				if nc.next == total {
					nc.next = 0
				}
				break scan
			}
		}
		if chosen == nil {
			if anyBlocked {
				// Head-of-line stall: every queued flow heads to a full
				// buffer.  The NIC is now queued on each blocking port's
				// relaxed waiter FIFO — the same stall-order rotation strict
				// mode uses — so contending NICs share returning credits
				// fairly instead of racing.
				nc.stalled = true
				n.stallEvents++
			}
			nc.freeAt = t
			return
		}
		nc.stalled = false
		ser := n.serialization(chosen.size)
		if chosenFirst.capacity != 0 {
			chosenFirst.buffered += chosen.size // credit reserved while in flight
		}
		nc.busyNS += ser
		n.walkPacket(chosen, cfq, t, ser)
		t = t.Add(ser)
		nc.freeAt = t
	}
}

// expressHeads walks, at strict-equivalent pick times, the head packet of
// every flow queue whose head was enqueued at this very instant.
//
// A drain cursor committed ahead of the clock has already scheduled up to a
// full lookahead of serialization that strict round-robin arbitration would
// have ordered AFTER a packet arriving now: strict gives a newly-enqueued
// flow its rotation slot within about one in-flight packet, while riding the
// cursor would displace it by a uniform-ish [0, lookahead).  That gap is
// invisible to bulk throughput but lands squarely on the latency-sensitive
// population — ImpactB probes and MPI control messages — whose distributions
// are the experiments' observables.  Express picks therefore start at now
// (plus the expected residual service serResidual when the uplink is mid-
// packet), pace among themselves at link rate through exprFreeAt, and push
// the committed cursor by their serialization so link time stays conserved.
// Later packets of the same burst ride the normal cursor: only the queue
// head is the arrival whose arbitration slot strict mode would grant now,
// and each flow gets at most one grant per instant (flowQueue.exprSeen) so
// a send window injected packet-by-packet stays on the batched cursor.
//
// SendProbe packets (onDeliver != nil) skip buffer admission — the occupancy
// count at this instant includes reserves taken by future-cursor picks that
// would arrive after the probe — and take their port waits from walkPacket's
// arrival-ordered shadow instead.  Other heads honor admission; a denied
// head registers on the port's waiter FIFO exactly like a cursor pick and
// falls back to the cursor path.
func (n *Network) expressHeads(nc *nic, now sim.Time) {
	tp := now
	if nc.freeAt > now {
		tp = tp.Add(n.serResidual)
	}
	if nc.exprFreeAt > tp {
		tp = nc.exprFreeAt
	}
	for idx := nc.nextActive(0, len(nc.queues)); idx >= 0; idx = nc.nextActive(idx+1, len(nc.queues)) {
		fq := nc.queues[idx]
		p := fq.q.front()
		if (p.sent != now || fq.exprSeen == now) && !fq.exprPending {
			continue
		}
		first := p.route[0]
		if p.onDeliver == nil {
			if (n.faultsOn && first.down) || (len(first.relWaiters) > 0 && first != n.wakingPort) || n.relAdmit(first, p.size, tp) > tp {
				fq.exprPending = true
				if !nc.isWaitingOn(first) {
					nc.waitingOn = append(nc.waitingOn, first)
					first.relWaiters = append(first.relWaiters, nc)
					n.ensureRelWake(first)
				}
				continue
			}
		}
		fq.exprPending = false
		fq.exprSeen = now
		fq.q.pop()
		if fq.q.empty() {
			nc.clearActive(idx)
		}
		ser := n.serialization(p.size)
		if first.capacity != 0 {
			first.buffered += p.size // credit reserved while in flight
		}
		nc.busyNS += ser
		n.walkPacket(p, fq, tp, ser)
		end := tp.Add(ser)
		if nc.freeAt > now {
			nc.freeAt = nc.freeAt.Add(ser) // express pick consumed link time
		} else {
			nc.freeAt = end
		}
		nc.exprFreeAt = end
		tp = end
	}
}

// walkPacket advances one picked packet through its entire route
// analytically: per hop, wire propagation plus a fabric delay drawn from the
// flow's private substream, then port-FIFO availability, then downstream
// credit admission, then link serialization.  The walk commits each port's
// freeAt / busy time / credit ledger as it goes, so later walks through the
// same ports queue behind this packet exactly as the strict event cascade
// would make them.
func (n *Network) walkPacket(p *packet, fq *flowQueue, pick sim.Time, ser sim.Duration) {
	rng := &fq.rng // seeded at flowQueue creation (flowQueueFor)
	route := p.route
	size := p.size
	t := pick.Add(ser) // leaves the NIC
	probe := p.onDeliver != nil
	for h := 0; h < len(route); h++ {
		pt := route[h]
		b := t.Add(pt.link.Delay + n.fabricDelayFrom(rng))
		arrived := b
		if n.faultsOn && pt.node < 0 && arrived >= pt.downAt {
			// The trunk is (or will be) down at the packet's arrival — the
			// downAt stamp covers both current failures and ones scheduled
			// inside the committed window (the generator pre-draws, so the
			// stamp is always current).  The packet holds one reserve on this
			// hop (taken by the pick for hop 0, by the previous iteration
			// otherwise); loseWalked releases it and retransmits.
			n.loseWalked(p, pt, arrived)
			return
		}
		hser := ser
		if n.faultsOn && pt.slow > 1 {
			hser = sim.Duration(float64(ser) * pt.slow) // degraded link
		}
		// Arrival-ordered shadow service.  The port's committed freeAt leads
		// honest arrival time by however far sender drain cursors have
		// batched ahead, so a straight FIFO wait behind it would charge this
		// packet for service that strict mode orders after it.  When commits
		// arrive in order (relArrival ≤ arrived) the shadow IS the FIFO wait,
		// freeAt − arrived; when this packet honestly arrived before work
		// already committed here, it waits only for the backlog that preceded
		// it (freeAt − relArrival) and its service is spliced into the
		// committed timeline without reordering what is already promised.
		base := pt.relArrival
		if arrived > base {
			base = arrived
		}
		if w := pt.freeAt - base; w > 0 {
			b = b.Add(sim.Duration(w))
		}
		if arrived > pt.relArrival {
			pt.relArrival = arrived
		}
		if h+1 < len(route) {
			if next := route[h+1]; next.capacity != 0 {
				if !probe {
					b = n.relAdmit(next, size, b)
				}
				next.buffered += size // credit reserved while in flight
			}
		}
		e := b.Add(hser)
		if pt.freeAt > e {
			pt.freeAt = pt.freeAt.Add(hser) // splice into the committed backlog
		} else {
			pt.freeAt = e
		}
		pt.busyNS += hser
		if pt.capacity != 0 {
			pt.led.push(e, size) // this hop's credit returns when service ends
		}
		t = e
	}
	arrive := t.Add(route[len(route)-1].link.Delay)
	n.finishWalk(p, fq, arrive)
}

// finishWalk commits the bookkeeping tail of a completed route walk:
// delivery counters, observer/probe posts, message completion and packet
// recycling.
func (n *Network) finishWalk(p *packet, fq *flowQueue, arrive sim.Time) {
	size := p.size
	fq.bytes += int64(size)
	if telemetry.TraceEnabled() && n.traceSample.Hit() {
		n.traceDelivery(p, arrive)
	}
	n.packetsDelivered++
	n.bytesDelivered += int64(size)
	if p.onDeliver != nil || len(n.observers) > 0 {
		// User callbacks must run at the packet's true virtual time; defer
		// through the lane, which advances the clock to the entry.
		n.postRelaxed(arrive, laneRelaxedDeliver, p, 0)
		return
	}
	if ms := p.msg; ms != nil {
		if arrive > ms.completeAt {
			ms.completeAt = arrive
		}
		ms.remaining--
		if ms.remaining == 0 {
			// One deferred completion per message, at the max arrival.
			n.postRelaxed(ms.completeAt, laneRelaxedComplete, p, 0)
			return
		}
	}
	n.putPacket(p)
}

// ensureRelWake schedules a deferred waiter wake for the port at its next
// scheduled credit release, if one is not already pending.  The wake resumes
// the port's waiter FIFO in stall order, reproducing strict mode's fair
// rotation among NICs contending for a saturated buffer.
func (n *Network) ensureRelWake(pt *SwitchPort) {
	if pt.wakePending || len(pt.relWaiters) == 0 {
		return
	}
	led := &pt.led
	if led.head == len(led.q) {
		// Unreachable while waiters exist: the first registrant was denied
		// admission, so reserved credits remain, and every reserve has a
		// scheduled release on the ledger.
		return
	}
	at := led.q[led.head].at
	if now := n.k.Now(); at < now {
		at = now
	}
	pt.wakePending = true
	if n.fastOn && at < laneMaxAt && n.k.NextSeq() < laneMaxSeq {
		n.lane.push(laneEvent{key: laneKey(at, n.k.AllocSeq()), kind: laneRelaxedPortWake, aux: pt.idx})
		return
	}
	n.k.CallAt(at, n.portWakeFn, pt)
}

// relaxedPortWake fires a port's deferred waiter wake.  Waiters resume in
// stall order, but only while the buffer has free room at the wake instant:
// waking the whole herd on every credit release costs O(NICs) queue rescans
// per packet on a saturated port (strict mode sidesteps that with its
// busy-uplink early-out, which relaxed drains do not have).  NICs beyond the
// free room keep their FIFO turn for the next release's wake, and a resumed
// NIC that stays blocked re-registers at the tail, so contenders rotate
// through the free room without starvation.
func (n *Network) relaxedPortWake(pt *SwitchPort) {
	// wakePending stays set while the wake runs so the drains below cannot
	// arm a duplicate entry; the wake re-arms itself once on exit.
	rounds := len(pt.relWaiters)
	for i := 0; i < rounds && len(pt.relWaiters) > 0; i++ {
		if pt.capacity != 0 {
			pt.buffered -= pt.led.apply(n.k.Now())
			if pt.buffered >= pt.capacity {
				break
			}
		}
		nc := pt.relWaiters[0]
		last := len(pt.relWaiters) - 1
		copy(pt.relWaiters, pt.relWaiters[1:])
		pt.relWaiters[last] = nil
		pt.relWaiters = pt.relWaiters[:last]
		nc.dropWaitingOn(pt)
		n.wakingPort = pt
		n.drainNic(nc)
		n.wakingPort = nil
	}
	pt.wakePending = false
	n.ensureRelWake(pt)
}

// park suspends a NIC whose drain reached the commit horizon and arms the
// network's shared advance entry.  One deferred entry resumes every parked
// NIC per lookahead window, so the per-window scheduling overhead is
// amortized across the whole fabric instead of paid per NIC.
func (n *Network) park(nc *nic) {
	if !nc.parked {
		nc.parked = true
		n.parked = append(n.parked, nc)
	}
	n.ensureAdvance(nc.freeAt)
}

// ensureAdvance guarantees a deferred advance no later than at.  A pending
// later entry is superseded by bumping the generation (the stale entry
// becomes a no-op when drained); advance() itself re-arms once on exit, so
// parks it triggers skip the per-call check.
func (n *Network) ensureAdvance(at sim.Time) {
	if n.advancing {
		return
	}
	if now := n.k.Now(); at < now {
		at = now
	}
	if n.advPending && n.advanceAt <= at {
		return
	}
	n.advGen++
	n.advanceAt = at
	n.advPending = true
	if n.fastOn && at < laneMaxAt && n.k.NextSeq() < laneMaxSeq {
		n.lane.push(laneEvent{key: laneKey(at, n.k.AllocSeq()), kind: laneRelaxedAdvance, aux: n.advGen})
		return
	}
	n.k.CallAt(at, n.advanceFn, n.advGen)
}

// advance resumes every parked NIC whose committed cursor falls inside the
// new lookahead window, then re-arms one deferred entry at the earliest
// still-parked cursor.  gen identifies the lane entry that fired; a stale
// generation (superseded by an earlier re-arm) is a no-op.
func (n *Network) advance(gen int32) {
	if gen != n.advGen {
		return
	}
	n.advPending = false
	n.advancing = true
	horizon := n.k.Now().Add(n.lookahead)
	if n.faultsOn && n.nextFaultAt < horizon {
		horizon = n.nextFaultAt // drains must not commit across a transition
	}
	list := n.parked
	n.parked = n.parkedScratch[:0]
	for _, nc := range list {
		if nc.freeAt < horizon {
			nc.parked = false
			n.drainNic(nc) // may re-park onto the fresh list
		} else {
			n.parked = append(n.parked, nc)
		}
	}
	n.parkedScratch = list[:0]
	n.advancing = false
	if len(n.parked) > 0 {
		min := n.parked[0].freeAt
		for _, nc := range n.parked[1:] {
			if nc.freeAt < min {
				min = nc.freeAt
			}
		}
		n.ensureAdvance(min)
	}
}

// postRelaxed schedules a deferred relaxed-mode entry (delivery or message
// completion) at an absolute instant, falling back to a kernel event when
// the fast path is off or the packed key range is exceeded.
func (n *Network) postRelaxed(at sim.Time, kind uint8, p *packet, aux int32) {
	if n.fastOn && at < laneMaxAt && n.k.NextSeq() < laneMaxSeq {
		n.lane.push(laneEvent{key: laneKey(at, n.k.AllocSeq()), kind: kind, p: p, aux: aux})
		return
	}
	if kind == laneRelaxedDeliver {
		n.k.CallAt(at, n.relaxDeliverFn, p)
	} else {
		n.k.CallAt(at, n.relaxCompleteFn, p)
	}
}

// relaxedDeliver runs a walked packet's delivery callbacks at its arrival
// instant.  Counters were already committed at walk time; this entry exists
// only to run user code (observers, probe onDeliver) at the true clock.
func (n *Network) relaxedDeliver(p *packet, at sim.Time) {
	d := Delivery{Src: p.src, Dst: p.dst, Size: p.size, Flow: p.flow, Sent: p.sent, Arrived: at}
	for _, obs := range n.observers {
		obs(d)
	}
	if p.onDeliver != nil {
		p.onDeliver(d)
	}
	if ms := p.msg; ms != nil {
		ms.remaining--
		if ms.remaining == 0 {
			// Entries execute in time order, so this is the last arrival —
			// unless earlier packets of the message completed at walk time
			// (observer registered mid-message) with a later bound.
			if ms.completeAt > at {
				at = ms.completeAt
			}
			p.msg = nil
			n.putPacket(p)
			n.finishMessage(ms, at)
			return
		}
	}
	n.putPacket(p)
}

// relaxedComplete fires a message's completion at its max arrival time,
// carried by the message's final packet (recycled here).
func (n *Network) relaxedComplete(p *packet, at sim.Time) {
	ms := p.msg
	p.msg = nil
	n.putPacket(p)
	n.finishMessage(ms, at)
}
