// Cut-through fast path: per-hop packet events run on a deferred lane
// instead of the kernel heap.
//
// The per-hop machinery in netsim.go needs 2–3 scheduled events per packet
// per hop (uplink done, per-port arrive + done, deliver).  Pushing each one
// through the kernel — event struct, heap insert, heap pop, dispatch — is
// the dominant cost of a cold simulation run.  The fast path removes almost
// all of that traffic from the kernel: pipeline events are queued on a
// netsim-private lane (a small, cache-hot heap of plain values) that the
// kernel drains inline through the sim.AuxQueue hook, so an N-packet train
// crossing an uncontended stretch costs the kernel O(1) scheduled events
// (its completion delivery) instead of O(N·hops).
//
// Equivalence, not approximation.  The lane is not a model shortcut — it
// executes the identical handlers, in the identical global order, drawing
// the per-hop fabric delays from the same RNG stream at the same points.
// Three invariants make the schedule byte-identical to the slow path's:
//
//  1. Real sequence numbers.  Every lane entry is stamped with a sequence
//     number from the kernel's own counter (Kernel.AllocSeq) at the moment
//     the slow path would have scheduled it.  Lane entries and kernel events
//     therefore stay totally ordered by (time, seq), with exactly the
//     tie-breaks the slow path would have produced.
//  2. Ordered draining.  Lane entries execute exactly when the global order
//     reaches them: the kernel drains the lane through the AuxQueue hook
//     before dispatching any event ordered after the lane's head (and before
//     going idle or stopping at a RunUntil deadline), and every externally
//     callable netsim entry point — message injection, statistics reads,
//     observer registration — additionally drains entries ordered before the
//     current event's own (time, seq) position.  No external code can ever
//     observe lane-managed state mid-flight.
//  3. A true clock.  The drain advances the kernel clock to each entry's
//     timestamp before executing it (Kernel.LaneDispatch), so deliveries —
//     which run user callbacks: probe onDeliver, message completions,
//     observers — see exactly the virtual clock they would have seen as
//     kernel events, and anything they schedule or inject lands at exactly
//     the right position in the order.
package netsim

import (
	"github.com/hpcperf/switchprobe/internal/sim"
)

// laneEvent kinds name the pipeline stage a deferred event re-enters; the
// drain loop dispatches on the kind, so entries carry no function pointer.
// The first four belong to the strict pipeline; the laneRelaxed* kinds are
// the only deferred work the relaxed mode (relaxed.go) schedules: the shared
// parked-NIC advance, user-visible deliveries, per-message completions, and
// port waiter wakes.
const (
	laneUplinkDone uint8 = iota
	laneArrive
	lanePortDone
	laneDeliver
	laneRelaxedAdvance
	laneRelaxedDeliver
	laneRelaxedComplete
	laneRelaxedPortWake
	laneRelaxedBatch
)

// The lane packs an entry's (time, seq) key into one uint64 — timestamp in
// the high bits, sequence number in the low laneSeqBits — so heap ordering is
// a single integer compare.  The packing holds while the virtual clock stays
// under 2^36 ns (≈ 68 virtual seconds, far beyond any measurement window)
// and per-kernel sequence numbers stay under 2^28; an event outside either
// range simply becomes a real kernel event (post falls back), which the
// drain-order machinery handles like any other kernel event.
const (
	laneSeqBits = 28
	laneMaxAt   = sim.Time(1)<<(64-laneSeqBits) - 1
	laneMaxSeq  = uint64(1)<<laneSeqBits - 1
)

// laneKey packs (at, seq) into the lane's single-compare ordering key,
// clamping out-of-range components.  Clamping keeps comparisons exact:
// lane entries always carry strictly in-range timestamps and sequence
// numbers (push falls back to a kernel event otherwise), so an entry orders
// below a clamped limit exactly when it orders below the true (at, seq).
func laneKey(at sim.Time, seq uint64) uint64 {
	if at > laneMaxAt {
		return ^uint64(0)
	}
	if seq > laneMaxSeq {
		seq = laneMaxSeq
	}
	return uint64(at)<<laneSeqBits | seq
}

// laneEvent is one deferred pipeline event: a 24-byte value with a
// single-word ordering key, so heap sifts are one compare and a small move.
// aux carries the NIC index for relaxed-mode kick entries (which have no
// packet); it packs into the padding after kind, keeping the 24-byte size.
type laneEvent struct {
	key  uint64
	p    *packet
	kind uint8
	aux  int32
}

// lane is the deferred event queue: a 4-ary min-heap of pipeline events
// keyed by (time, seq), mirroring the kernel's ordering.  It lives on the
// Network and reuses its backing array, so steady-state traffic allocates
// nothing.
type lane struct {
	events []laneEvent
	// active marks a drain in progress, so re-entrant guard calls (a message
	// completion sending a new message mid-drain) are no-ops: the drain loop
	// itself already executes entries in global order.
	active bool
}

// empty reports whether the lane holds no entries.
func (l *lane) empty() bool { return len(l.events) == 0 }

// minKey returns the key of the earliest entry; the lane must be non-empty.
func (l *lane) minKey() uint64 { return l.events[0].key }

const laneArity = 4

func (l *lane) push(e laneEvent) {
	h := append(l.events, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / laneArity
		if h[i].key >= h[parent].key {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	l.events = h
}

func (l *lane) pop() laneEvent {
	h := l.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = laneEvent{}
	h = h[:n]
	i := 0
	for {
		first := laneArity*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + laneArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].key < h[best].key {
				best = c
			}
		}
		if h[best].key >= h[i].key {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	l.events = h
	return top
}

// setFastPath enables or disables the cut-through fast path, which is on by
// default.  Simulated schedules are byte-identical either way; tests turn it
// off to get the kernel-event reference.  It must be called before the
// network carries traffic: toggling mid-flight would strand or reorder
// deferred events.
func (n *Network) setFastPath(enabled bool) {
	if !n.lane.empty() {
		panic("netsim: setFastPath called with packets in flight")
	}
	if enabled == n.fastOn {
		return
	}
	if enabled {
		if err := n.k.SetAux(n); err != nil {
			panic("netsim: " + err.Error())
		}
	} else {
		_ = n.k.SetAux(nil)
	}
	n.fastOn = enabled
}

// post schedules a pipeline event.  With the fast path on it goes to the
// deferred lane, stamped with a real kernel sequence number; otherwise — or
// for the rare event outside the packed-key range — it is a plain kernel
// event, which the drain-order machinery handles like any other.  All
// per-hop handlers and deliveries schedule through here (with matching kind
// and callback), so the same code drives both paths.
func (n *Network) post(d sim.Duration, kind uint8, fn func(any), p *packet) {
	if !n.fastOn {
		n.k.Call(d, fn, p)
		return
	}
	at := n.k.Now().Add(d)
	if at >= laneMaxAt || n.k.NextSeq() >= laneMaxSeq {
		n.k.CallAt(at, fn, p)
		return
	}
	n.lane.push(laneEvent{key: laneKey(at, n.k.AllocSeq()), kind: kind, p: p})
}

// postDeliver schedules a packet's final delivery.  Deliveries run user
// code — probe callbacks, message completions, observers — but they too
// stay on the lane: the drain advances the kernel clock to each entry's
// timestamp, so callbacks observe exactly the clock and state they would
// have seen under a kernel event.
func (n *Network) postDeliver(d sim.Duration, p *packet) {
	n.post(d, laneDeliver, n.deliverFn, p)
}

// exec runs one drained lane entry through its pipeline stage.
func (n *Network) exec(ev *laneEvent) {
	switch ev.kind {
	case laneUplinkDone:
		n.uplinkDone(ev.p)
	case laneArrive:
		n.arrive(ev.p)
	case lanePortDone:
		n.portDone(ev.p)
	case laneRelaxedAdvance:
		n.advance(ev.aux)
	case laneRelaxedPortWake:
		n.relaxedPortWake(n.ports[ev.aux])
	case laneRelaxedBatch:
		n.drainBatch()
	case laneRelaxedDeliver:
		n.relaxedDeliver(ev.p, sim.Time(ev.key>>laneSeqBits))
	case laneRelaxedComplete:
		n.relaxedComplete(ev.p, sim.Time(ev.key>>laneSeqBits))
	default:
		n.deliverAt(ev.p, sim.Time(ev.key>>laneSeqBits))
	}
}

// DrainBefore implements sim.AuxQueue: it executes every lane entry strictly
// ordered before the (at, seq) position and not past the deadline, in
// (time, seq) order, and reports whether any entry ran.  Handlers executed
// here schedule follow-up work relative to the entry's own timestamp (see
// clock), so batching never skews the simulated schedule.  Because executing
// an entry can schedule a real kernel event (a barrier delivery) ordered
// before the lane's next entry, the limit is re-clamped against the kernel's
// next event key after every entry; the kernel then dispatches that event
// before handing the lane its next turn.
func (n *Network) DrainBefore(at sim.Time, seq uint64, deadline sim.Time) bool {
	l := &n.lane
	if l.empty() {
		return false
	}
	// Fold the deadline into the packed limit: entries past the deadline
	// must not run even if they are ordered before the next kernel event.
	limit := laneKey(at, seq)
	if deadline < at {
		limit = laneKey(deadline+1, 0)
	}
	if kat, kseq, ok := n.k.NextEventKey(); ok {
		if k := laneKey(kat, kseq); k < limit {
			limit = k
		}
	}
	if l.minKey() >= limit {
		return false
	}
	l.active = true
	var drained int64
	gen := n.k.PostGen()
	for {
		ev := l.pop()
		n.k.LaneDispatch(sim.Time(ev.key>>laneSeqBits), ev.key&laneMaxSeq)
		drained++
		n.exec(&ev)
		if l.empty() {
			break
		}
		// Executing the entry may have scheduled a real kernel event ordered
		// before the lane's next one; tighten the limit if so.
		if g := n.k.PostGen(); g != gen {
			gen = g
			if kat, kseq, ok := n.k.NextEventKey(); ok {
				if k := laneKey(kat, kseq); k < limit {
					limit = k
				}
			}
		}
		if l.minKey() >= limit {
			break
		}
	}
	l.active = false
	n.cutThroughEvents += drained
	n.k.NoteElided(uint64(drained))
	return true
}

// PeekKey implements sim.AuxPeeker: it reports the (time, seq) key of the
// lane's earliest deferred entry, so the kernel's InstantIdle guard can see
// whether the lane holds work at the current instant before letting a
// zero-length park be skipped.
func (n *Network) PeekKey() (sim.Time, uint64, bool) {
	if n.lane.empty() {
		return 0, 0, false
	}
	key := n.lane.minKey()
	return sim.Time(key >> laneSeqBits), key & laneMaxSeq, true
}

// drainGuard drains lane entries ordered before the currently dispatching
// kernel event.  The kernel already drains the lane before every dispatch
// and the drain loop handles re-entrant calls, so this is a cheap no-op
// safety net for entry points reached outside the dispatch path (code
// running before Run, or between drive loops).
func (n *Network) drainGuard() {
	if !n.fastOn || n.lane.active || n.lane.empty() {
		return
	}
	n.DrainBefore(n.k.Now(), n.k.CurrentSeq(), maxSimTime)
}

// maxSimTime is the far-future sentinel for unbounded drains.
const maxSimTime = sim.Time(1<<63 - 1)
