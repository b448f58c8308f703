// Package netsim simulates the network connecting a set of compute nodes, at
// packet granularity, on top of the discrete-event kernel.
//
// The model reproduces the pieces of a real InfiniBand-class fabric (the
// QLogic QDR hardware of LLNL's Cab cluster) that matter for the paper's
// active-measurement methodology:
//
//   - Each node has one uplink into the fabric shared by every process on the
//     node.  The NIC arbitrates between per-flow queues in round-robin order,
//     so a small probe packet is never stuck behind an entire bulk message
//     from another process.
//   - Every switch traversal adds a routing overhead with a small, stochastic
//     per-packet component (including a rare heavy tail, which the paper
//     observes even on an idle switch).
//   - Every switch output port — a node's egress port or an inter-switch
//     trunk — has a finite buffer drained at link rate.  When a buffer is
//     full, upstream transmitters stall: the credit-based flow control that
//     keeps latencies bounded and slows senders down when the fabric
//     saturates.
//
// Which ports a packet crosses is decided by a pluggable Topology (see
// topology.go): the paper's single switch (Star) or a two-stage fat-tree
// with tunable oversubscription (FatTree).  The per-hop machinery — Link
// serialization, SwitchPort queueing and credits — is shared by every
// topology, so probe latency grows smoothly with offered load on any fabric,
// which is exactly the signal the ImpactB benchmark measures.
package netsim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strconv"
	"strings"

	"github.com/hpcperf/switchprobe/internal/sim"
	"github.com/hpcperf/switchprobe/internal/telemetry"
)

// ModelVersion identifies the behavioural generation of the network model:
// its per-hop queueing mechanics, arbitration order and random-delay
// derivation.  Any change that can alter packet schedules must bump this
// constant so persisted simulation artifacts keyed on it are invalidated.
//
// Version 3 adds the schedule-relaxed execution mode (relaxed.go) and makes
// it the default: per-flow RNG substreams and fused analytic route walks
// replace the strict global event interleaving.  Strict ordering — which
// still reproduces version-2 packet schedules byte-for-byte — remains
// selectable via Config.StrictOrder and participates in the fingerprint, so
// artifacts from the two modes never collide.
//
// Version 4 adds fault injection (faults.go): trunk down/up/degrade
// transitions, failover rerouting and NIC-level retransmit.  Fault-free runs
// produce the same schedules as version 3, but the version bump invalidates
// all persisted artifacts uniformly so the fingerprint grammar change
// (Config.Faults) can never collide with a version-3 key.
//
// Version 5 fixes a credit leak on fault-induced loss: a packet dropped
// mid-serialization (portDone on a downed trunk) now releases the next hop's
// buffer reserve and wakes its waiters, where version 4 leaked the reserve
// for the rest of the run.  Fault-free schedules are unchanged — the loss
// branch is gated on an active plan — but faulted runs can now unblock
// stalled senders earlier, so their packet schedules shift and every faulted
// version-4 artifact must be invalidated.
const ModelVersion = 5

// Config describes the fabric and its links.
type Config struct {
	// Nodes is the number of compute nodes attached to the fabric.
	Nodes int
	// LinkBandwidth is the bandwidth of every link (node uplinks/downlinks
	// and inter-switch trunks) in bytes per second.
	LinkBandwidth float64
	// MTU is the maximum packet payload in bytes; larger messages are
	// segmented.
	MTU int
	// WireDelay is the propagation delay of one link traversal.
	WireDelay sim.Duration
	// FabricDelay is the mean per-packet routing/forwarding overhead of one
	// switch traversal.
	FabricDelay sim.Duration
	// FabricJitter is the half-width of the uniform jitter added to
	// FabricDelay.
	FabricJitter sim.Duration
	// TailProb is the probability that a switch traversal adds an
	// exponentially-distributed delay of mean TailDelay (buffer conflicts,
	// arbitration misses).  This produces the small high-latency tail visible
	// on an idle switch.
	TailProb float64
	// TailDelay is the mean of the heavy-tail delay component.
	TailDelay sim.Duration
	// EgressBufferBytes is the per-output-port buffer size (egress ports and
	// trunks alike).  Zero means unlimited buffering (no back-pressure),
	// which is physically unrealistic but useful as an ablation.
	EgressBufferBytes int
	// Topology selects the fabric layout connecting the nodes; nil means the
	// paper's single switch (Star).
	Topology Topology
	// StrictOrder selects the golden-oracle execution mode: one global
	// (time, seq) event interleaving with all fabric delays drawn from a
	// single shared RNG stream, byte-identical to ModelVersion 2 schedules.
	// The zero value selects the relaxed mode (relaxed.go): per-flow RNG
	// substreams and per-packet analytic route walks, deterministic per root
	// seed but only statistically equivalent to strict runs.  The mode
	// changes simulated schedules, so it participates in Fingerprint.
	StrictOrder bool
	// Faults schedules trunk failures, repairs and degradations for the run
	// (faults.go); nil injects nothing.  An active plan changes simulated
	// schedules, so it participates in Fingerprint (canonically encoded).
	Faults *FaultPlan
}

// CabConfig returns a configuration modelled after one bottom-level switch of
// LLNL's Cab cluster: 18 nodes, ~5 GB/s links, ~1.25 µs idle one-way packet
// latency.
func CabConfig() Config {
	return Config{
		Nodes:             18,
		LinkBandwidth:     5e9,
		MTU:               4096,
		WireDelay:         250 * sim.Nanosecond,
		FabricDelay:       200 * sim.Nanosecond,
		FabricJitter:      120 * sim.Nanosecond,
		TailProb:          0.02,
		TailDelay:         2 * sim.Microsecond,
		EgressBufferBytes: 16 * 1024,
	}
}

// Fingerprint returns a canonical, deterministic encoding of every field
// that influences simulated packet behaviour, including the topology.  It is
// the network layer's contribution to content-addressed run hashing: two
// configs with equal fingerprints produce identical packet schedules for the
// same kernel seed.  New Config fields MUST be added here.
func (c Config) Fingerprint() string {
	order := "relaxed"
	if c.StrictOrder {
		order = "strict"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "nodes=%d;bw=%s;mtu=%d;wire=%d;fabric=%d;jitter=%d;tailp=%s;taild=%d;ebuf=%d;topo=%s;order=%s",
		c.Nodes,
		strconv.FormatFloat(c.LinkBandwidth, 'g', -1, 64),
		c.MTU,
		int64(c.WireDelay),
		int64(c.FabricDelay),
		int64(c.FabricJitter),
		strconv.FormatFloat(c.TailProb, 'g', -1, 64),
		int64(c.TailDelay),
		c.EgressBufferBytes,
		TopologyFingerprint(c.topology()),
		order)
	if c.Faults.Active() {
		// Only active plans join the fingerprint, so fault-free configs keep
		// their exact version-3 encoding (modulo the ModelVersion bump).
		fmt.Fprintf(&b, ";faults=%s", c.Faults.Fingerprint())
	}
	return b.String()
}

// TopologyFingerprinter lets a custom Topology implementation provide its own
// canonical parameter encoding for content-addressed run hashing.
type TopologyFingerprinter interface {
	Fingerprint() string
}

// TopologyFingerprint canonically encodes a topology's identity and
// parameters.  The built-in topologies encode their struct fields; custom
// implementations may implement TopologyFingerprinter, otherwise the Go
// value syntax of the topology value is used (adequate for flat parameter
// structs, ambiguous for pointer-rich ones — implement the interface then).
func TopologyFingerprint(t Topology) string {
	switch topo := t.(type) {
	case nil:
		return "star"
	case TopologyFingerprinter:
		return topo.Fingerprint()
	case Star:
		return "star"
	case FatTree:
		return fmt.Sprintf("fattree(leaves=%d,uplinks=%d)", topo.Leaves, topo.UplinksPerLeaf)
	default:
		return fmt.Sprintf("%s:%#v", t.Name(), t)
	}
}

// topology resolves the configured topology, defaulting to the single
// switch.
func (c Config) topology() Topology {
	if c.Topology == nil {
		return Star{}
	}
	return c.Topology
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.validateScalars(); err != nil {
		return err
	}
	lay, err := c.topology().Build(c.Nodes)
	if err != nil {
		return err
	}
	return c.validateFaults(lay)
}

// validateScalars checks everything but the topology layout, so Network
// construction can validate without building the O(nodes²) route table
// twice.
func (c Config) validateScalars() error {
	if c.Nodes < 2 {
		return fmt.Errorf("netsim: need at least 2 nodes, have %d", c.Nodes)
	}
	if c.LinkBandwidth <= 0 {
		return fmt.Errorf("netsim: non-positive link bandwidth %v", c.LinkBandwidth)
	}
	if c.MTU <= 0 {
		return fmt.Errorf("netsim: non-positive MTU %d", c.MTU)
	}
	if c.TailProb < 0 || c.TailProb > 1 {
		return fmt.Errorf("netsim: tail probability %v outside [0,1]", c.TailProb)
	}
	if c.EgressBufferBytes < 0 {
		return fmt.Errorf("netsim: negative egress buffer %d", c.EgressBufferBytes)
	}
	if c.EgressBufferBytes > 0 && c.EgressBufferBytes < c.MTU {
		return fmt.Errorf("netsim: egress buffer %dB smaller than MTU %dB", c.EgressBufferBytes, c.MTU)
	}
	return nil
}

// Flow identifies a traffic source for NIC arbitration and accounting: every
// (class, id) pair gets its own queue at its node's NIC.
type Flow struct {
	// Class labels the software component generating the traffic, e.g.
	// "impact", "compress" or an application name.
	Class string
	// ID distinguishes flows of the same class, typically the sender rank.
	ID int
}

// Delivery describes a packet that reached its destination; observers receive
// one per packet.
type Delivery struct {
	Src, Dst int
	Size     int
	Flow     Flow
	Sent     sim.Time
	Arrived  sim.Time
}

// Latency returns the packet's one-way latency.
func (d Delivery) Latency() sim.Duration { return d.Arrived.Sub(d.Sent) }

// Link models one transmission medium: serialization at Bandwidth followed
// by a fixed propagation delay.
type Link struct {
	Bandwidth float64
	Delay     sim.Duration
}

// Serialization returns the time to push size bytes onto the link.
func (l Link) Serialization(size int) sim.Duration {
	return sim.Duration(float64(size) / l.Bandwidth * float64(sim.Second))
}

// packet is the unit of transfer inside the simulator.  Packets are drawn
// from a per-network free list and recycled after delivery, so steady-state
// traffic allocates nothing.
type packet struct {
	src, dst  int
	size      int
	flow      Flow
	sent      sim.Time
	onDeliver func(Delivery)
	msg       *messageState
	// route is the shared, read-only port sequence the packet traverses
	// (ending at dst's egress port); hop indexes the port it is at or headed
	// to.
	route []*SwitchPort
	hop   int
	// fq is the source NIC's flow queue the packet was injected on; both
	// engines count delivered bytes on it (flowQueue.bytes).
	fq *flowQueue
	// retries counts losses on failed trunks (faults.go); it scales the
	// retransmit backoff exponentially and saturates instead of overflowing.
	retries uint8
}

// nextHop returns the port the packet visits after the current one, nil at
// the final egress port.
func (p *packet) nextHop() *SwitchPort {
	if p.hop+1 < len(p.route) {
		return p.route[p.hop+1]
	}
	return nil
}

// messageState tracks the remaining packets of a segmented message.  Pooled
// like packets.  Completion calls fnArg(deliveryTime, arg) when fnArg is set.
type messageState struct {
	remaining int
	fnArg     func(sim.Time, any)
	arg       any
	// completeAt is the max arrival time committed so far by relaxed-mode
	// walks of this message's packets; the completion fires there.
	completeAt sim.Time
}

// pktQueue is a FIFO of packets that reuses its backing array: popping
// advances a head index instead of reslicing, and the buffer rewinds once
// drained, so a steady flow of packets touches the allocator only while the
// queue's high-water mark grows.
type pktQueue struct {
	buf  []*packet
	head int
}

func (q *pktQueue) push(p *packet) { q.buf = append(q.buf, p) }

func (q *pktQueue) empty() bool { return q.head == len(q.buf) }

func (q *pktQueue) front() *packet { return q.buf[q.head] }

func (q *pktQueue) pop() *packet {
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return p
}

// sender is an upstream transmitter — a NIC or a switch port — that can
// stall on a full downstream buffer and is retried when credits return.
type sender interface {
	resume(n *Network)
}

// flowQueue is one per-flow FIFO at a node's NIC.
type flowQueue struct {
	flow Flow
	q    pktQueue
	// idx is the queue's position in nic.queues and its bit in nic.active;
	// fixed for the queue's lifetime (queues are only ever appended).
	idx int
	// rng is the flow's private delay substream (relaxed mode), seeded
	// deterministically from (root seed, source node, class, id) when the
	// queue is created; unseeded in strict mode, which draws from the
	// shared stream.  It is a sim.Substream rather than math/rand: walks
	// draw one fabric delay per packet-hop, and the splitmix64 step is
	// several times cheaper per draw.
	rng sim.Substream
	// exprPending marks a head that was express-eligible (expressHeads) but
	// denied buffer admission: it keeps its express pick — at the port
	// wake's instant, not the drain cursor's — when credits return.
	exprPending bool
	// exprSeen is the last instant this flow received an express grant.
	// Strict round-robin arbitration owes a newly-active flow ONE slot, not
	// one per packet: without this stamp a window of sends injected to a
	// parked NIC would be expressed packet-by-packet (each pop makes the
	// next packet the fresh head), degrading the batched cursor to per-
	// packet processing.  Initialized to a pre-simulation sentinel so an
	// inject at t=0 is still eligible.
	exprSeen sim.Time
	// bytes accumulates the flow's delivered payload; Stats folds it into
	// BytesByClass.
	bytes int64
}

// nic models a node's network interface: per-flow queues drained round-robin
// onto the uplink.
type nic struct {
	node    int
	link    Link
	queues  []*flowQueue
	byFlow  map[Flow]*flowQueue
	lastFq  *flowQueue // most recent byFlow hit; senders repeat flows, so this skips the map hash
	next    int        // round-robin cursor into queues
	busy    bool
	busyNS  sim.Duration
	stalled bool
	// Relaxed-mode drain state: freeAt is how far ahead of the kernel clock
	// the uplink has committed serializations; parked marks the NIC as
	// suspended on the network's advance list (drain reached the commit
	// horizon), deduping repeated parks; waitingOn lists the ports whose
	// relWaiters FIFOs the NIC is queued in (at most a handful, so slice
	// scans beat the strict path's per-port map here).
	freeAt sim.Time
	// exprFreeAt paces express picks (expressHeads) among themselves at link
	// rate, so a burst of fresh flow heads departs serialized rather than in
	// parallel.
	exprFreeAt sim.Time
	parked     bool
	dirty      bool // queued on the network's same-instant batch-drain list
	waitingOn  []*SwitchPort
	// active is the bitmap of non-empty flow queues (bit fq.idx set iff
	// fq.q holds packets), maintained at every queue push/pop.  Arbitration
	// scans walk its set bits instead of the full queue list, so pick cost
	// scales with the number of flows that actually hold traffic — and the
	// word-ordered scan visits exactly the indices the full scan would, so
	// round-robin order (and with it waiter registration order) is
	// unchanged.
	active []uint64
}

// markActive records that queue idx holds packets.
func (nc *nic) markActive(idx int) { nc.active[idx>>6] |= 1 << (uint(idx) & 63) }

// clearActive records that queue idx ran empty.
func (nc *nic) clearActive(idx int) { nc.active[idx>>6] &^= 1 << (uint(idx) & 63) }

// nextActive returns the index of the first non-empty flow queue in
// [from, limit), or -1 when the range holds none.  Scanning a wrapped
// round-robin window is two calls: [cursor, len) then [0, cursor).
func (nc *nic) nextActive(from, limit int) int {
	if from >= limit {
		return -1
	}
	w := from >> 6
	word := nc.active[w] &^ (1<<(uint(from)&63) - 1)
	for {
		if word != 0 {
			idx := w<<6 + bits.TrailingZeros64(word)
			if idx >= limit {
				return -1
			}
			return idx
		}
		w++
		if w<<6 >= limit {
			return -1
		}
		word = nc.active[w]
	}
}

// isWaitingOn reports whether the NIC is already queued in pt's relaxed
// waiter FIFO.
func (nc *nic) isWaitingOn(pt *SwitchPort) bool {
	for _, w := range nc.waitingOn {
		if w == pt {
			return true
		}
	}
	return false
}

// dropWaitingOn removes pt from the NIC's registration list.
func (nc *nic) dropWaitingOn(pt *SwitchPort) {
	for i, w := range nc.waitingOn {
		if w == pt {
			last := len(nc.waitingOn) - 1
			nc.waitingOn[i] = nc.waitingOn[last]
			nc.waitingOn[last] = nil
			nc.waitingOn = nc.waitingOn[:last]
			return
		}
	}
}

// resume implements sender.  Relaxed mode drains directly: a resumed waiter
// must attempt its pick at the wake instant, even if its uplink cursor is
// committed ahead of the clock, or it would forfeit its FIFO turn.
func (nc *nic) resume(n *Network) {
	if n.relaxed {
		n.drainNic(nc)
		return
	}
	n.tryStartUplink(nc)
}

// SwitchPort is one output port of a switch: a finite input buffer governed
// by credits, a FIFO of packets awaiting transmission, and the link the port
// drains onto.  Egress ports deliver to a node; trunk ports forward to the
// next switch stage.
type SwitchPort struct {
	label    string
	node     int // destination node for egress ports, -1 for trunks
	link     Link
	capacity int // input buffer bytes; 0 = unlimited

	queue    pktQueue
	buffered int
	busy     bool
	busyNS   sim.Duration

	// waiters are transmitters stalled on this port's buffer, retried in
	// stall order so no sender starves when the port is saturated.
	waiters []sender
	waiting map[sender]bool

	// Relaxed-mode walk state: freeAt is when the port's link frees after
	// the last committed serialization; led schedules the future credit
	// releases matching the reserves counted in buffered; relWaiters is the
	// stall-order FIFO of NICs blocked on this buffer (only NICs transmit in
	// relaxed mode — walks never stall mid-route); idx is the port's
	// position in Network.ports (it names the port's trace thread);
	// wakePending dedupes the deferred waiter wake.
	freeAt sim.Time
	// relArrival is the latest honest (pre-FIFO-wait) arrival instant of any
	// packet committed here; freeAt − relArrival is the backlog that had
	// genuinely arrived by then, which is what probe shadow service charges
	// instead of the commit-order freeAt (see walkPacket).
	relArrival  sim.Time
	led         relLedger
	relWaiters  []*nic
	idx         int32
	wakePending bool

	// Fault state (faults.go, trunk ports only): down marks the trunk out of
	// service; downAt is the instant of the current or next scheduled failure
	// (maxSimTime when none), which relaxed walks compare committed arrivals
	// against; slow > 1 scales the port's serialization time (degraded link).
	down   bool
	downAt sim.Time
	slow   float64
}

// Label names the port ("down3" for node 3's egress, "leaf0.up1" for a
// trunk).
func (pt *SwitchPort) Label() string { return pt.label }

// BusyTime returns the port's cumulative transmission time.
func (pt *SwitchPort) BusyTime() sim.Duration { return pt.busyNS }

// hasRoom reports whether the port's input buffer can accept size more
// bytes.
func (pt *SwitchPort) hasRoom(size int) bool {
	return pt.capacity == 0 || pt.buffered+size <= pt.capacity
}

// resume implements sender.
func (pt *SwitchPort) resume(n *Network) { n.tryStartPort(pt) }

// Network is the simulated fabric: NICs, switch ports and the routes between
// them, laid out by the configured topology.
type Network struct {
	k      *sim.Kernel
	cfg    Config
	topo   Topology
	layout Layout
	rng    *rand.Rand
	// tracePid is this network's lane group in a structured trace, allocated
	// on first sampled emission (0 = none yet), and traceSample picks which
	// deliveries are traced (see trace.go).
	tracePid    int64
	traceSample telemetry.Sampler
	nics        []*nic
	egress      []*SwitchPort // per-node egress ports
	trunks      []*SwitchPort // inter-switch ports (empty for Star)
	ports       []*SwitchPort // every port, indexed by SwitchPort.idx
	// routes[src*Nodes+dst] is the shared port sequence between the pair,
	// ending at dst's egress port; resolved once at construction so the
	// per-packet path costs one slice-header copy.
	routes [][]*SwitchPort

	observers []func(Delivery)

	// Free lists and scratch space for the per-packet pipeline.
	pktFree []*packet
	msgFree []*messageState
	blocked []*SwitchPort // scratch for tryStartUplink's blocked-port scan

	// serSize/serVal memoize the last two distinct packet serialization
	// times (every link shares one bandwidth).  Traffic is dominated by
	// full-MTU segments plus one probe size, so the per-packet floating
	// point divides almost always hit the cache.
	serSize [2]int
	serVal  [2]sim.Duration

	// Pipeline-stage callbacks bound once at construction; every per-packet
	// event is scheduled through sim.Kernel.Call with one of these, so no
	// closures are allocated on the hot path.
	uplinkDoneFn func(any)
	arriveFn     func(any)
	portDoneFn   func(any)
	deliverFn    func(any)

	// relaxed selects the schedule-relaxed execution mode (relaxed.go);
	// lookahead bounds how far ahead of the kernel clock a NIC drain may
	// commit; the callbacks are its deferred kernel events, bound once like
	// the strict stage callbacks above.
	relaxed         bool
	lookahead       sim.Duration
	serResidual     sim.Duration
	relaxDeliverFn  func(any)
	relaxCompleteFn func(any)
	portWakeFn      func(any)
	advanceFn       func(any)

	// Parked NICs awaiting the shared deferred advance event (relaxed mode):
	// advanceAt/advGen identify the pending event (stale generations no-op),
	// advancing suppresses re-arming while advance() itself resumes drains,
	// and parkedScratch is the spare backing array the resume loop swaps in.
	// advFree recycles the tickets that carry each advance event's
	// generation.
	parked        []*nic
	parkedScratch []*nic
	advancing     bool
	advPending    bool
	advanceAt     sim.Time
	advGen        int32
	advFree       []*advTicket
	// NICs with freshly enqueued traffic awaiting the same-instant batch
	// drain: injection marks the NIC dirty instead of draining inline, so a
	// rank posting a whole window of sends in one event pays one drain scan,
	// not one per message.  batchPending dedupes the batch event; batchFn is
	// its callback.
	dirtyNics    []*nic
	batchPending bool
	batchFn      func(any)
	// wakingPort is the port whose waiter FIFO is mid-wake: the resumed NIC
	// may attempt admission there even though other waiters are queued (it
	// is the FIFO head taking its granted turn).
	wakingPort *SwitchPort

	// Fault-injection runtime (faults.go): faultsOn gates every hot-path
	// check; faultPend is the time-sorted transition queue; nextFaultAt
	// bounds the relaxed engine's lookahead horizon; faultRng feeds the
	// MTBF/MTTR renewal generator.
	faultsOn    bool
	faultPend   []faultTransition
	faultRng    sim.Substream
	mtbf, mttr  sim.Duration
	nextFaultAt sim.Time
	faultFn     func(any)
	retryFn     func(any)

	// Statistics.
	packetsDelivered int64
	bytesDelivered   int64
	stallEvents      int64
	// Fault telemetry (faults.go).
	trunksFailed         int64
	packetsRetransmitted int64
	routesRecomputed     int64
	retryBackoffNs       int64
}

// maxSimTime is the far-future sentinel for "no transition scheduled"
// (SwitchPort.downAt, Network.nextFaultAt).
const maxSimTime = sim.Time(1<<63 - 1)

// New creates a network attached to kernel k.
func New(k *sim.Kernel, cfg Config) (*Network, error) {
	if err := cfg.validateScalars(); err != nil {
		return nil, err
	}
	topo := cfg.topology()
	layout, err := topo.Build(cfg.Nodes)
	if err != nil {
		return nil, err
	}
	if err := layout.validate(cfg.Nodes); err != nil {
		return nil, err
	}
	if err := cfg.validateFaults(layout); err != nil {
		return nil, err
	}
	n := &Network{
		k:      k,
		cfg:    cfg,
		topo:   topo,
		layout: layout,
		rng:    k.NewRand("netsim"),
	}
	link := Link{Bandwidth: cfg.LinkBandwidth, Delay: cfg.WireDelay}
	queueCap := 16
	if cfg.EgressBufferBytes > 0 {
		if c := cfg.EgressBufferBytes/cfg.MTU + 1; c > queueCap {
			queueCap = c
		}
	}
	for i := 0; i < cfg.Nodes; i++ {
		n.nics = append(n.nics, &nic{
			node: i, link: link, byFlow: make(map[Flow]*flowQueue),
			// Pre-size the stall bookkeeping: a NIC rarely waits on more
			// than a couple of ports at once, and growing these on the
			// drain path was a measurable share of relaxed-mode allocs.
			waitingOn: make([]*SwitchPort, 0, 4),
			active:    make([]uint64, 1),
		})
		n.egress = append(n.egress, n.newPort(fmt.Sprintf("down%d", i), i, link, queueCap))
	}
	for _, spec := range layout.Trunks {
		n.trunks = append(n.trunks, n.newPort(spec.Label, -1, link, queueCap))
	}
	n.routes = make([][]*SwitchPort, cfg.Nodes*cfg.Nodes)
	maxHops := 1
	for src := 0; src < cfg.Nodes; src++ {
		for dst := 0; dst < cfg.Nodes; dst++ {
			if src == dst {
				continue
			}
			hops := layout.Routes[src*cfg.Nodes+dst]
			route := make([]*SwitchPort, 0, len(hops)+1)
			for _, h := range hops {
				route = append(route, n.trunks[h])
			}
			n.routes[src*cfg.Nodes+dst] = append(route, n.egress[dst])
			if len(route) > maxHops {
				maxHops = len(route)
			}
		}
	}
	// Relaxed-mode lookahead: a multiple of one full traversal of the
	// deepest route (per hop: wire propagation, mean fabric overhead, one
	// MTU serialization) plus the final wire.  A drain never commits further
	// ahead of the clock than this, so traffic injected by events the drain
	// could not yet see contends for arbitration at most one lookahead
	// window late.  The window multiplier trades scheduling overhead (one
	// advance entry and one batch of drains per window) against arbitration
	// staleness; the statistical-equivalence gates bound the drift the
	// chosen value may introduce.
	serMTU := Link{Bandwidth: cfg.LinkBandwidth}.Serialization(cfg.MTU)
	n.lookahead = relaxedLookaheadWindows * (sim.Duration(maxHops)*(cfg.WireDelay+cfg.FabricDelay+serMTU) + cfg.WireDelay)
	// Probe-express residual: a probe enqueued while its NIC's drain cursor
	// is committed ahead is walked at now + serResidual instead of waiting
	// for the cursor (relaxed.go, expressProbes).  Half an MTU serialization
	// is the expected residual service time of the packet a busy strict-mode
	// uplink would be transmitting at the probe's arrival — the head-of-line
	// wait round-robin arbitration actually imposes on a probe.
	n.serResidual = serMTU / 2
	n.uplinkDoneFn = func(a any) { n.uplinkDone(a.(*packet)) }
	n.arriveFn = func(a any) { n.arrive(a.(*packet)) }
	n.portDoneFn = func(a any) { n.portDone(a.(*packet)) }
	n.deliverFn = func(a any) { n.deliver(a.(*packet)) }
	n.relaxed = !cfg.StrictOrder
	n.relaxDeliverFn = func(a any) { n.relaxedDeliver(a.(*packet)) }
	n.relaxCompleteFn = func(a any) { n.relaxedComplete(a.(*packet)) }
	n.portWakeFn = func(a any) { n.relaxedPortWake(a.(*SwitchPort)) }
	n.advanceFn = func(a any) { n.advance(a.(*advTicket)) }
	n.batchFn = func(any) { n.drainBatch() }
	if cfg.Faults.Active() {
		n.setupFaults(cfg.Faults)
	}
	return n, nil
}

// newPort builds one switch output port and registers it in the port index.
func (n *Network) newPort(label string, node int, link Link, queueCap int) *SwitchPort {
	pt := &SwitchPort{
		label:    label,
		node:     node,
		link:     link,
		capacity: n.cfg.EgressBufferBytes,
		queue:    pktQueue{buf: make([]*packet, 0, queueCap)},
		waiting:  make(map[sender]bool),
		idx:      int32(len(n.ports)),
		downAt:   maxSimTime,
		// Pre-size the relaxed-mode credit ledger and waiter FIFO so the
		// steady-state drain path appends without touching the allocator.
		led:        relLedger{q: make([]release, 0, 32)},
		relWaiters: make([]*nic, 0, 4),
	}
	n.ports = append(n.ports, pt)
	return pt
}

// getPacket serves a packet struct, preferring the free list.
func (n *Network) getPacket() *packet {
	if l := len(n.pktFree); l > 0 {
		p := n.pktFree[l-1]
		n.pktFree = n.pktFree[:l-1]
		return p
	}
	return &packet{}
}

// putPacket recycles a delivered packet.
func (n *Network) putPacket(p *packet) {
	p.onDeliver = nil
	p.msg = nil
	p.route = nil
	p.fq = nil
	p.retries = 0
	n.pktFree = append(n.pktFree, p)
}

// getMessageState serves a message tracker, preferring the free list.
func (n *Network) getMessageState() *messageState {
	if l := len(n.msgFree); l > 0 {
		ms := n.msgFree[l-1]
		n.msgFree = n.msgFree[:l-1]
		return ms
	}
	return &messageState{}
}

// putMessageState recycles a finished message tracker.
func (n *Network) putMessageState(ms *messageState) {
	ms.fnArg = nil
	ms.arg = nil
	ms.completeAt = 0
	n.msgFree = append(n.msgFree, ms)
}

// MustNew is New that panics on configuration errors.
func MustNew(k *sim.Kernel, cfg Config) *Network {
	n, err := New(k, cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Nodes returns the number of attached nodes.
func (n *Network) Nodes() int { return n.cfg.Nodes }

// Topology returns the fabric layout the network was built with.
func (n *Network) Topology() Topology { return n.topo }

// Leaves returns the number of bottom-level switches.
func (n *Network) Leaves() int { return n.layout.Leaves }

// LeafOf returns the leaf switch the node's uplink attaches to.
func (n *Network) LeafOf(node int) int { return n.layout.LeafOf[node] }

// PathHops returns the number of switch output ports a packet from src to
// dst crosses (1 on a single switch, 3 across a fat-tree's spine).
func (n *Network) PathHops(src, dst int) int { return len(n.routes[src*n.cfg.Nodes+dst]) }

// Observe registers fn to be called for every delivered packet, at the
// packet's arrival instant: deliveries are kernel events, so observers see
// the true virtual clock.
func (n *Network) Observe(fn func(Delivery)) {
	n.observers = append(n.observers, fn)
}

// serialization returns the time to push size bytes over one link (all
// links share one bandwidth), memoizing the last two distinct sizes.
func (n *Network) serialization(size int) sim.Duration {
	if n.serSize[0] == size {
		return n.serVal[0]
	}
	if n.serSize[1] == size {
		n.serSize[0], n.serSize[1] = size, n.serSize[0]
		n.serVal[0], n.serVal[1] = n.serVal[1], n.serVal[0]
		return n.serVal[0]
	}
	v := Link{Bandwidth: n.cfg.LinkBandwidth}.Serialization(size)
	n.serSize[1], n.serVal[1] = n.serSize[0], n.serVal[0]
	n.serSize[0], n.serVal[0] = size, v
	return v
}

// SendMessage injects a message of size bytes from node src to node dst on
// behalf of flow.  The message is segmented into MTU-sized packets.  When the
// last byte is delivered, onComplete (if not nil) is invoked with the
// delivery time.  Sending to the own node is not handled here (the MPI layer
// short-circuits intra-node traffic); src and dst must differ.
func (n *Network) SendMessage(src, dst, size int, flow Flow, onComplete func(sim.Time)) error {
	if onComplete == nil {
		return n.SendMessageCall(src, dst, size, flow, nil, nil)
	}
	return n.SendMessageCall(src, dst, size, flow, runCompletion, onComplete)
}

// runCompletion is the completion of every SendMessage with a closure: the
// closure itself travels as the argument.
func runCompletion(at sim.Time, onComplete any) { onComplete.(func(sim.Time))(at) }

// SendMessageCall is SendMessage with an allocation-free completion: when the
// last byte is delivered, fn(deliveryTime, arg) is invoked (nothing when fn
// is nil).  Callers that bind fn once and thread their per-message state
// through arg avoid a per-message closure.  The message is split into
// MTU-sized packets on the source NIC's flow queue.
func (n *Network) SendMessageCall(src, dst, size int, flow Flow, fn func(sim.Time, any), arg any) error {
	if err := n.checkEndpoints(src, dst); err != nil {
		return err
	}
	if size <= 0 {
		return fmt.Errorf("netsim: non-positive message size %d", size)
	}
	npkts := (size + n.cfg.MTU - 1) / n.cfg.MTU
	ms := n.getMessageState()
	ms.remaining, ms.fnArg, ms.arg = npkts, fn, arg
	nc, fq := n.flowQueueFor(src, flow)
	route := n.routes[src*n.cfg.Nodes+dst]
	now := n.k.Now()
	remaining := size
	for i := 0; i < npkts; i++ {
		psize := n.cfg.MTU
		if psize > remaining {
			psize = remaining
		}
		remaining -= psize
		p := n.getPacket()
		p.src, p.dst, p.size, p.flow, p.sent, p.msg = src, dst, psize, flow, now, ms
		p.route, p.hop, p.fq = route, 0, fq
		fq.q.push(p)
	}
	nc.markActive(fq.idx)
	n.pump(nc)
	return nil
}

// SendProbe injects a single probe packet of size bytes and reports its
// delivery (including one-way latency) to onDeliver.  Probe packets must fit
// in one MTU.
func (n *Network) SendProbe(src, dst, size int, flow Flow, onDeliver func(Delivery)) error {
	if err := n.checkEndpoints(src, dst); err != nil {
		return err
	}
	if size <= 0 || size > n.cfg.MTU {
		return fmt.Errorf("netsim: probe size %d outside (0, MTU=%d]", size, n.cfg.MTU)
	}
	p := n.getPacket()
	p.src, p.dst, p.size, p.flow, p.sent, p.onDeliver = src, dst, size, flow, n.k.Now(), onDeliver
	p.route, p.hop = n.routes[src*n.cfg.Nodes+dst], 0
	n.inject(p)
	return nil
}

func (n *Network) checkEndpoints(src, dst int) error {
	if src < 0 || src >= n.cfg.Nodes || dst < 0 || dst >= n.cfg.Nodes {
		return fmt.Errorf("netsim: endpoint out of range src=%d dst=%d nodes=%d", src, dst, n.cfg.Nodes)
	}
	if src == dst {
		return fmt.Errorf("netsim: src and dst are the same node %d", src)
	}
	return nil
}

// flowQueueFor resolves (creating on first use) the per-flow FIFO of flow at
// node src.  Resolving once per message rather than once per packet keeps the
// map lookup off the per-packet path.
func (n *Network) flowQueueFor(src int, flow Flow) (*nic, *flowQueue) {
	nc := n.nics[src]
	if fq := nc.lastFq; fq != nil && fq.flow == flow {
		return nc, fq
	}
	fq := nc.byFlow[flow]
	if fq == nil {
		fq = &flowQueue{flow: flow, exprSeen: -1, idx: len(nc.queues)}
		if n.relaxed {
			// Seed the flow's private delay substream now, when the flow is
			// created: walks then read fq.rng directly with no first-use check,
			// and the derivation stays allocation-free (the name is assembled
			// in a stack buffer, never materialized as a string).
			var nb [64]byte
			b := append(nb[:0], "flow/"...)
			b = strconv.AppendInt(b, int64(src), 10)
			b = append(b, '/')
			b = append(b, flow.Class...)
			b = append(b, '/')
			b = strconv.AppendInt(b, int64(flow.ID), 10)
			fq.rng = n.k.NewSubstreamBytes(b)
		}
		nc.byFlow[flow] = fq
		nc.queues = append(nc.queues, fq)
		if len(nc.queues) > len(nc.active)*64 {
			nc.active = append(nc.active, 0)
		}
	}
	nc.lastFq = fq
	return nc, fq
}

// inject places a packet on its source NIC's per-flow queue.
func (n *Network) inject(p *packet) {
	nc, fq := n.flowQueueFor(p.src, p.flow)
	p.fq = fq
	fq.q.push(p)
	nc.markActive(fq.idx)
	n.pump(nc)
}

// tryStartUplink starts transmitting the next admissible packet from the
// NIC's flow queues, in round-robin order.  Admission is governed by the
// first port on the packet's route (the destination's egress port on a
// single switch, a leaf uplink across the spine): if every candidate packet
// heads to a full buffer the NIC stalls until space frees up.
func (n *Network) tryStartUplink(nc *nic) {
	if nc.busy {
		return
	}
	total := len(nc.queues)
	if total == 0 {
		return
	}
	blocked := n.blocked[:0]
	var chosen *packet
	// Round-robin over the non-empty queues only, in the two bitmap segments
	// drainNic walks: nc.next..total-1, then 0..nc.next-1.
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
			if (n.faultsOn && first.down) || !first.hasRoom(p.size) {
				// A down first trunk blocks like a full one: the NIC registers
				// on it and is retried when the repair's wakeWaiters fires.
				blocked = append(blocked, first)
				continue
			}
			chosen = fq.q.pop()
			if fq.q.empty() {
				nc.clearActive(idx)
			}
			nc.next = idx + 1
			if nc.next == total {
				nc.next = 0
			}
			break scan
		}
	}
	if chosen == nil {
		if len(blocked) > 0 {
			// Head-of-line stall: register for wake-up on every blocking port
			// (the waiting map dedupes repeats of the same port).
			nc.stalled = true
			n.stallEvents++
			for _, pt := range blocked {
				if !pt.waiting[nc] {
					pt.waiting[nc] = true
					pt.waiters = append(pt.waiters, nc)
				}
			}
		}
		n.blocked = blocked[:0]
		return
	}
	n.blocked = blocked[:0]
	nc.stalled = false
	chosen.route[0].buffered += chosen.size // credit reserved while in flight
	ser := n.serialization(chosen.size)
	nc.busy = true
	nc.busyNS += ser
	n.k.Call(ser, n.uplinkDoneFn, chosen)
}

// fabricDelay draws the stochastic overhead of one switch traversal from the
// shared math/rand stream (strict mode): mean FabricDelay, uniform jitter,
// and the rare exponential heavy tail.  The draw sequence is byte-pinned to
// the version-2 schedules, so this must keep using math/rand even though
// fabricDelayFrom mirrors the same distribution on cheaper substreams.
func (n *Network) fabricDelay() sim.Duration {
	rng := n.rng
	d := n.cfg.FabricDelay
	if n.cfg.FabricJitter > 0 {
		d += sim.Duration(rng.Int63n(int64(2*n.cfg.FabricJitter)+1)) - n.cfg.FabricJitter
	}
	if n.cfg.TailProb > 0 && rng.Float64() < n.cfg.TailProb {
		d += sim.Duration(rng.ExpFloat64() * float64(n.cfg.TailDelay))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// fabricDelayFrom is fabricDelay drawing from an explicit per-flow substream
// (relaxed mode): the same distribution — mean, uniform jitter, exponential
// tail — on a generator that costs a few instructions per draw, since walks
// consume one variate per packet-hop.
func (n *Network) fabricDelayFrom(rng *sim.Substream) sim.Duration {
	d := n.cfg.FabricDelay
	if n.cfg.FabricJitter > 0 {
		d += sim.Duration(rng.Int63n(int64(2*n.cfg.FabricJitter)+1)) - n.cfg.FabricJitter
	}
	if n.cfg.TailProb > 0 && rng.Float64() < n.cfg.TailProb {
		d += sim.Duration(rng.ExpFloat64() * float64(n.cfg.TailDelay))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// uplinkDone frees the uplink after a packet's serialization, launches the
// packet across the wire and through the first switch's routing stage, and
// keeps the NIC draining.  Wire traversal and fabric routing are one fused
// event: the stochastic fabric delay is drawn here, which preserves the
// delay distribution while saving a heap operation per packet.
func (n *Network) uplinkDone(p *packet) {
	nc := n.nics[p.src]
	nc.busy = false
	n.k.Call(nc.link.Delay+n.fabricDelay(), n.arriveFn, p)
	n.tryStartUplink(nc)
}

// arrive places the packet on the queue of the port it has reached.  A
// packet arriving at a trunk that failed while it was in flight is lost and
// retransmitted (its buffer reserve, taken at admission, is released).
func (n *Network) arrive(p *packet) {
	pt := p.route[p.hop]
	if n.faultsOn && pt.down {
		pt.buffered -= p.size
		n.losePacket(p, n.k.Now())
		return
	}
	pt.queue.push(p)
	n.tryStartPort(pt)
}

// tryStartPort drains the port's FIFO onto its link.  A port whose front
// packet heads to a full downstream buffer stalls whole (head-of-line, as in
// a real FIFO output queue) until credits return; the final egress port has
// no downstream buffer and never stalls.  A front packet headed to a DOWN
// trunk — its route went stale while it queued here — is dropped and
// retransmitted instead of stalling the FIFO behind a link that may never
// return.
func (n *Network) tryStartPort(pt *SwitchPort) {
	if pt.busy {
		return
	}
	freed := false
	for !pt.queue.empty() {
		p := pt.queue.front()
		next := p.nextHop()
		if n.faultsOn && next != nil && next.down {
			pt.queue.pop()
			pt.buffered -= p.size
			freed = true
			n.losePacket(p, n.k.Now())
			continue
		}
		if next != nil {
			if !next.hasRoom(p.size) {
				n.stallEvents++
				if !next.waiting[pt] {
					next.waiting[pt] = true
					next.waiters = append(next.waiters, pt)
				}
				break
			}
			next.buffered += p.size // credit reserved while in flight
		}
		pt.queue.pop()
		pt.busy = true
		ser := n.serialization(p.size)
		if n.faultsOn && pt.slow > 1 {
			ser = sim.Duration(float64(ser) * pt.slow) // degraded link
		}
		pt.busyNS += ser
		n.k.Call(ser, n.portDoneFn, p)
		break
	}
	if freed {
		n.wakeWaiters(pt)
	}
}

// portDone frees the port after a packet's serialization, releases the
// packet's buffer credit, retries stalled upstream transmitters, forwards
// the packet (to the next switch stage, or to its destination if this was
// the egress port) and keeps the port draining.
func (n *Network) portDone(p *packet) {
	pt := p.route[p.hop]
	pt.busy = false
	pt.buffered -= p.size
	n.wakeWaiters(pt)
	if n.faultsOn && pt.down {
		// The trunk failed while this packet was mid-serialization: the
		// transmission was cut and the packet is lost.  Release the next
		// hop's credit too — tryStartPort reserved it when serialization
		// began, and the packet will never arrive to claim it; without the
		// release the reserve leaks until the run ends, shrinking the next
		// hop's buffer for every later packet.
		if next := p.nextHop(); next != nil {
			next.buffered -= p.size
			n.wakeWaiters(next)
		}
		n.losePacket(p, n.k.Now())
		return
	}
	p.hop++
	if p.hop < len(p.route) {
		n.k.Call(pt.link.Delay+n.fabricDelay(), n.arriveFn, p)
	} else {
		n.k.Call(pt.link.Delay, n.deliverFn, p)
	}
	n.tryStartPort(pt)
}

// wakeWaiters retries transmitters stalled on this port, in the order they
// stalled (first stalled, first retried), so saturated ports serve every
// upstream NIC and trunk fairly.
func (n *Network) wakeWaiters(pt *SwitchPort) {
	if len(pt.waiters) == 0 {
		return
	}
	waiters := pt.waiters
	pt.waiters = nil
	for _, s := range waiters {
		delete(pt.waiting, s)
	}
	for _, s := range waiters {
		s.resume(n)
	}
}

// deliver hands the packet to its destination and recycles it.  It runs as
// the packet's delivery event, so the arrival instant is the kernel clock
// and completion callbacks, probe callbacks and observers all run at the
// packet's true arrival time.
func (n *Network) deliver(p *packet) {
	at := n.k.Now()
	n.packetsDelivered++
	n.bytesDelivered += int64(p.size)
	p.fq.bytes += int64(p.size)
	if telemetry.TraceEnabled() && n.traceSample.Hit() {
		n.traceDelivery(p, at)
	}
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
			n.finishMessage(ms, at)
		}
	}
	n.putPacket(p)
}

// finishMessage recycles a completed message tracker and fires its
// completion callback at time at.
func (n *Network) finishMessage(ms *messageState, at sim.Time) {
	fnArg, arg := ms.fnArg, ms.arg
	n.putMessageState(ms)
	if fnArg != nil {
		fnArg(at, arg)
	}
}

// Stats summarizes the traffic the network has carried so far.
type Stats struct {
	PacketsDelivered int64
	BytesDelivered   int64
	BytesByClass     map[string]int64
	StallEvents      int64
	// LedgerClamps counts relLedger.push calls that had to clamp a release
	// "marginally late" — a probe's shadow service finishing before the last
	// committed release.  A drifting value flags credit-timing skew.
	LedgerClamps int64
	// Fault-injection telemetry (faults.go): trunk failures applied, packets
	// lost on failed trunks and retransmitted, node pairs whose route failed
	// over (or back), and the summed retransmit backoff.  All zero on a
	// fault-free run.
	TrunksFailed         int64
	PacketsRetransmitted int64
	RoutesRecomputed     int64
	RetryBackoffNs       int64
	// UplinkBusy and DownlinkBusy are the cumulative transmission times per
	// node link.
	UplinkBusy   []sim.Duration
	DownlinkBusy []sim.Duration
	// TrunkLabels and TrunkBusy are the inter-switch ports and their
	// cumulative transmission times (empty on a single switch).
	TrunkLabels []string
	TrunkBusy   []sim.Duration
}

// Stats returns a snapshot of the network's counters.
func (n *Network) Stats() Stats {
	s := Stats{
		PacketsDelivered:     n.packetsDelivered,
		BytesDelivered:       n.bytesDelivered,
		BytesByClass:         make(map[string]int64),
		StallEvents:          n.stallEvents,
		TrunksFailed:         n.trunksFailed,
		PacketsRetransmitted: n.packetsRetransmitted,
		RoutesRecomputed:     n.routesRecomputed,
		RetryBackoffNs:       n.retryBackoffNs,
	}
	for _, pt := range n.ports {
		s.LedgerClamps += pt.led.clamps
	}
	for _, nc := range n.nics {
		for _, fq := range nc.queues {
			if fq.bytes != 0 {
				s.BytesByClass[fq.flow.Class] += fq.bytes
			}
		}
	}
	for _, nc := range n.nics {
		s.UplinkBusy = append(s.UplinkBusy, nc.busyNS)
	}
	for _, pt := range n.egress {
		s.DownlinkBusy = append(s.DownlinkBusy, pt.busyNS)
	}
	for _, pt := range n.trunks {
		s.TrunkLabels = append(s.TrunkLabels, pt.label)
		s.TrunkBusy = append(s.TrunkBusy, pt.busyNS)
	}
	return s
}

// MeanLinkUtilization returns the mean downlink utilization (busy fraction)
// over the elapsed virtual time window; it is a ground-truth load measure
// used in tests and ablations (the methodology itself never reads it — it
// only sees probe latencies, like on real hardware).
func (n *Network) MeanLinkUtilization(elapsed sim.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	var sum float64
	for _, pt := range n.egress {
		sum += float64(pt.busyNS) / float64(elapsed)
	}
	return sum / float64(len(n.egress))
}

// IdleLatencyEstimate returns the expected one-way latency of a size-byte
// packet crossing a single switch on an otherwise idle network, excluding
// the stochastic tail.  It is used by tests and by the documentation, not by
// the measurement code.
func (n *Network) IdleLatencyEstimate(size int) sim.Duration {
	return n.serialization(size)*2 + 2*n.cfg.WireDelay + n.cfg.FabricDelay
}

// PathIdleLatencyEstimate is IdleLatencyEstimate for a concrete node pair
// under the configured topology: each port on the route adds one
// serialization, one wire traversal and one fabric traversal.
func (n *Network) PathIdleLatencyEstimate(src, dst, size int) sim.Duration {
	h := sim.Duration(n.PathHops(src, dst))
	return n.serialization(size)*(h+1) + n.cfg.WireDelay*(h+1) + n.cfg.FabricDelay*h
}
