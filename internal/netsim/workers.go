// Leaf-domain parallel execution for the relaxed mode (Config.Workers).
//
// An advance window resumes a batch of parked NICs whose drains are
// independent whenever their committed port state lives in disjoint leaf
// domains: a NIC whose every queued packet routes directly to an egress port
// on its own leaf can only read and write that leaf's ports.  Such a window
// partitions by leaf, and the partitions can execute on worker goroutines.
//
// Parallel execution must stay byte-identical to sequential execution — the
// simulated schedule is a model output, not an execution detail — so worker
// drains never touch globally-ordered state directly.  Each drain writes
// into a per-NIC relSink: deferred posts and port-wake arms (whose lane
// sequence numbers encode the global order), recycled packets (pool order),
// re-parks (advance-list order) and statistics.  After the workers join, the
// coordinator replays every sink in the sequential drain order — the parked-
// list order — so sequence allocation, pool contents and parked order come
// out exactly as a Workers=0 run produces them.  That identity is what lets
// Config.Workers stay out of Config.Fingerprint.
//
// A window is parallelized only when every runnable NIC is leaf-local (a
// cross-leaf walk would mutate two leaves' trunks plus a foreign egress
// port, racing that leaf's own drains) and at least two leaf domains hold
// runnable NICs.  Any other window falls back to the sequential loop in
// advance().  The partition test is O(runnable NICs): each NIC maintains a
// count of queued cross-leaf packets at enqueue/pick time.
package netsim

import (
	"sync"

	"github.com/hpcperf/switchprobe/internal/sim"
)

// relOp is one globally-ordered side effect recorded by a worker-executed
// drain: a deferred post (delivery or completion, kind laneRelaxedDeliver /
// laneRelaxedComplete) or a port-wake arm (kind laneRelaxedPortWake, pt set).
type relOp struct {
	kind uint8
	at   sim.Time
	p    *packet
	pt   *SwitchPort
}

// relSink buffers one NIC drain's globally-ordered side effects.  A nil
// *relSink selects the direct (sequential) path throughout the drain code.
type relSink struct {
	active   bool // this slot's NIC was drained this window
	parked   bool // the drain re-parked its NIC
	ops      []relOp
	recycled []*packet
	packets  int64
	bytes    int64
	stalls   int64
	// Worker-local copy of Network.serialization's two-entry memo: the memo
	// is pure (serialization time is a function of size alone), so a stale
	// worker copy can never produce a different value, only a recompute.
	serSize [2]int
	serVal  [2]sim.Duration
}

// serialization mirrors Network.serialization on the sink's private memo.
func (s *relSink) serialization(bw float64, size int) sim.Duration {
	if s.serSize[0] == size {
		return s.serVal[0]
	}
	if s.serSize[1] == size {
		s.serSize[0], s.serSize[1] = size, s.serSize[0]
		s.serVal[0], s.serVal[1] = s.serVal[1], s.serVal[0]
		return s.serVal[0]
	}
	v := Link{Bandwidth: bw}.Serialization(size)
	s.serSize[1], s.serVal[1] = s.serSize[0], s.serVal[0]
	s.serSize[0], s.serVal[0] = size, v
	return v
}

// reset clears the sink for reuse, dropping packet references so the pool
// stays the only owner.  The serialization memo survives: it is pure.
func (s *relSink) reset() {
	s.active, s.parked = false, false
	for i := range s.ops {
		s.ops[i] = relOp{}
	}
	s.ops = s.ops[:0]
	for i := range s.recycled {
		s.recycled[i] = nil
	}
	s.recycled = s.recycled[:0]
	s.packets, s.bytes, s.stalls = 0, 0, 0
}

// crossLeaf reports whether walking p would touch ports outside its source
// NIC's leaf domain: every multi-hop route crosses the spine, and a direct
// egress route leaves the domain when the endpoints sit on different leaves
// (impossible in the built-in topologies, which route same-leaf pairs
// directly, but a custom Layout may do otherwise).
func (n *Network) crossLeaf(p *packet) bool {
	return len(p.route) != 1 || n.layout.LeafOf[p.dst] != n.layout.LeafOf[p.src]
}

// advanceParallel tries to run one advance window's drains on worker
// goroutines, one task stream per leaf domain.  It returns false — having
// taken no action — when the window does not partition: some runnable NIC
// holds cross-leaf traffic, or fewer than two leaf domains are runnable.
// On success the window's drains, posts, re-parks and statistics are
// complete and byte-identical to what the sequential loop would have done.
func (n *Network) advanceParallel(list []*nic, horizon sim.Time) bool {
	leaves := n.layout.Leaves
	if leaves < 2 {
		return false
	}
	// Pass 1: the window partitions only if every runnable NIC is leaf-local.
	if n.leafSeen == nil {
		n.leafSeen = make([]bool, leaves)
	}
	distinct := 0
	for _, nc := range list {
		if nc.freeAt >= horizon {
			continue
		}
		if nc.crossQueued > 0 {
			for _, leaf := range n.leafUsed {
				n.leafSeen[leaf] = false
			}
			n.leafUsed = n.leafUsed[:0]
			return false
		}
		if leaf := n.layout.LeafOf[nc.node]; !n.leafSeen[leaf] {
			n.leafSeen[leaf] = true
			n.leafUsed = append(n.leafUsed, leaf)
			distinct++
		}
	}
	used := n.leafUsed
	if distinct < 2 {
		for _, leaf := range used {
			n.leafSeen[leaf] = false
		}
		n.leafUsed = used[:0]
		return false
	}
	// Pass 2: bind each runnable NIC to a slot (its sequential drain rank)
	// and group the slots by leaf.
	if cap(n.sinks) < len(list) {
		n.sinks = make([]relSink, len(list))
	}
	sinks := n.sinks[:len(list)]
	if n.leafSlots == nil {
		n.leafSlots = make([][]int, leaves)
	}
	for i, nc := range list {
		if nc.freeAt >= horizon {
			continue
		}
		leaf := n.layout.LeafOf[nc.node]
		n.leafSlots[leaf] = append(n.leafSlots[leaf], i)
		sinks[i].active = true
	}
	// Drain: each goroutine owns whole leaf domains (round-robin over the
	// runnable leaves), so same-leaf drains stay sequential in slot order —
	// they genuinely depend on each other's port commits — while distinct
	// leaves proceed concurrently.
	nw := n.workers
	if nw > distinct {
		nw = distinct
	}
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for g := w; g < len(used); g += nw {
				for _, si := range n.leafSlots[used[g]] {
					nc := list[si]
					nc.parked = false
					n.drainNic(nc, &sinks[si])
				}
			}
		}(w)
	}
	wg.Wait()
	// Merge: replay every sink in slot order — the exact order the
	// sequential loop would have interleaved these effects — so lane
	// sequence numbers, the packet pool and the parked list are
	// byte-identical to a Workers=0 run.
	for i, nc := range list {
		s := &sinks[i]
		if !s.active {
			n.parked = append(n.parked, nc)
			continue
		}
		for j := range s.ops {
			op := &s.ops[j]
			if op.kind == laneRelaxedPortWake {
				n.armPortWake(op.pt, op.at)
			} else {
				n.postRelaxed(op.at, op.kind, op.p, 0)
			}
		}
		for _, p := range s.recycled {
			n.putPacket(p)
		}
		if s.parked {
			n.parked = append(n.parked, nc)
		}
		n.packetsDelivered += s.packets
		n.bytesDelivered += s.bytes
		n.stallEvents += s.stalls
		s.reset()
	}
	for _, leaf := range used {
		n.leafSlots[leaf] = n.leafSlots[leaf][:0]
		n.leafSeen[leaf] = false
	}
	n.leafUsed = used[:0]
	n.parallelWindows++
	return true
}
