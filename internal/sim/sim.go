// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock by executing scheduled events in
// timestamp order on the goroutine that calls Run/RunUntil.  Every simulated
// activity — network pipeline stages, MPI ranks written as continuations,
// traffic generators — is a chain of callback events, so simulation code needs
// no locking and is fully deterministic for a fixed seed.
//
// Four calls schedule an event: Post/PostAt run a closure, Call/CallAt run a
// callback with a caller-supplied argument, letting hot paths reuse one
// pre-bound callback instead of allocating a closure per event.  None returns
// a handle: event structs come from an internal free list and return to it
// once they fire, so steady-state scheduling allocates nothing.  Only
// Shutdown discards pending events.
//
// Pending events wait in one of three structures, and every step fires the
// (time, seq) minimum of their fronts.  Events scheduled for the current
// instant take a FIFO ring.  Events due within 32.8 µs of the current
// 128 ns bucket take a calendar queue: a fixed ring of time buckets, each a
// sorted list, found through an occupancy bitmap, so scheduling and firing
// one costs O(1).  Events further out wait in a 4-ary heap.
//
// The kernel is the substrate for the simulated cluster network, the MPI-like
// runtime and the application workloads used to reproduce the active
// measurement methodology of Casas & Bronevetsky (IPDPS 2014).
package sim

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"math/rand"

	"github.com/hpcperf/switchprobe/internal/telemetry"
)

// KernelVersion identifies the behavioural generation of the kernel: its
// event ordering, random-stream derivation and scheduling fast paths.  Any
// change that can alter the event schedule (and therefore every measurement
// derived from it) must bump this constant so persisted simulation artifacts
// keyed on it are invalidated.
//
// Version 3 introduces the schedule-relaxed execution mode: the network
// layer may commit pipeline work ahead of the clock (per-flow random
// substreams, analytically fused route walks) instead of replaying the
// strict global (time, seq) interleaving.  The strict golden-oracle mode
// still reproduces version-2 schedules byte-for-byte, but artifacts are keyed
// on the mode, so the version bump invalidates every pre-relaxation cache.
//
// The version covers the order events fire in, not where they wait: moving
// a client's events between a private queue and the kernel's, or between the
// kernel's own ring, calendar and heap, without changing their (time, seq)
// keys needs no bump.
const KernelVersion = 3

// Time is a point in virtual time, expressed in nanoseconds since the start
// of the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units (all in virtual nanoseconds).
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1_000
	Millisecond Duration = 1_000_000
	Second      Duration = 1_000_000_000
)

// Seconds returns the duration as a floating point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros returns the duration as a floating point number of microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// String formats the duration with an adaptive unit.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fus", d.Micros())
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// Add returns the time offset by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed between u and t (t - u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as a floating point number of seconds since the
// simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// DurationOfSeconds converts a float number of seconds to a Duration.
func DurationOfSeconds(s float64) Duration { return Duration(s * float64(Second)) }

// DurationOfMicros converts a float number of microseconds to a Duration.
func DurationOfMicros(us float64) Duration { return Duration(us * float64(Microsecond)) }

// event is a scheduled callback, fn(arg) at time at.  Every event is pooled:
// the kernel recycles it onto its free list once it fires or Shutdown
// discards it, and no caller ever holds one.
type event struct {
	at  Time
	seq uint64
	fn  func(any)
	arg any
	// next threads the event through its calendar bucket's list.
	next *event
}

// Stats counts what the kernel has done since creation.  All counters are
// monotonic.
type Stats struct {
	// EventsScheduled is the total number of events accepted via any
	// scheduling API.
	EventsScheduled uint64
	// EventsFired is the number of events whose callback ran.
	EventsFired uint64
	// EventsCancelled is the number of pending events Shutdown discarded
	// without firing.
	EventsCancelled uint64
	// PoolReuses is the number of event structs served from the free list
	// instead of the heap allocator (allocations avoided).
	PoolReuses uint64
	// FastPathEvents is the number of events that bypassed the timed queues
	// through the same-instant FIFO ring.
	FastPathEvents uint64
	// ProcFastResumes is the number of non-parking fast paths a suspended
	// activity (an MPI rank) took instead of posting its resume event: waits
	// on already-complete operations, waits with zero pending requests, and
	// zero-length computes resumed inline under the InstantIdle guard.
	ProcFastResumes uint64
}

// eventRing is a growable FIFO of events scheduled for the current instant;
// it replaces O(log n) heap traffic with O(1) pushes and pops for the very
// common "schedule at now" case (wakes, same-time cascades).
type eventRing struct {
	buf  []*event
	head int
	n    int
}

func (r *eventRing) push(e *event) {
	if r.n == len(r.buf) {
		r.grow()
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = e
	r.n++
}

func (r *eventRing) grow() {
	newBuf := make([]*event, max(16, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		j := r.head + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		newBuf[i] = r.buf[j]
	}
	r.buf = newBuf
	r.head = 0
}

func (r *eventRing) peek() *event { return r.buf[r.head] }

func (r *eventRing) pop() *event {
	e := r.buf[r.head]
	r.buf[r.head] = nil
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return e
}

// Kernel is a discrete-event simulation engine.  It is not safe for
// concurrent use; all interaction must happen from the goroutine driving
// Run/RunUntil or from code executed by the kernel itself (events).
type Kernel struct {
	now   Time
	nowq  eventRing
	far   []heapEntry // 4-ary min-heap of events beyond the calendar's span
	pool  []*event
	seq   uint64
	seed  int64
	stats Stats

	// tracePid is this kernel's lane id in a structured trace, allocated on
	// the first sampled emission (0 = none yet), and traceSample picks which
	// fired events are traced.  Purely observational: both are touched only
	// while a trace is being recorded.
	tracePid    int64
	traceSample telemetry.Sampler

	// cal comes last: its 4 KiB of buckets would otherwise separate the
	// fields above, which every step touches, onto distant cache lines.
	cal calendar
}

// NewKernel creates a kernel whose random streams derive from seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{seed: seed}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Seed returns the base seed of the kernel's random streams.
func (k *Kernel) Seed() int64 { return k.seed }

// Stats returns a snapshot of the kernel's activity counters.
func (k *Kernel) Stats() Stats { return k.stats }

// NoteFastResume records one taken non-parking fast path: a wait on an
// already-complete operation, a wait with zero pending requests, or a
// zero-length compute resumed inline under the InstantIdle guard.  It only
// feeds the ProcFastResumes statistic; it has no effect on execution.
func (k *Kernel) NoteFastResume() { k.stats.ProcFastResumes++ }

// InstantIdle reports whether nothing further is ordered at the current
// instant: the same-instant ring is empty and the earliest calendar and heap
// events (if any) lie strictly in the future.  When it holds, an event posted
// now would fire as the very next action with no intervening work, so a client
// may instead run its continuation inline: the only change to the schedule
// is that every later sequence number shifts down by one — uniformly, which
// preserves all relative (time, seq) orderings — and the resume event is
// saved.
func (k *Kernel) InstantIdle() bool {
	if k.nowq.n > 0 {
		return false
	}
	// Only now's own bucket can hold an event due now, and it sorts first.
	if h := k.cal.b[slot(k.now)].head; h != nil && h.at == k.now {
		return false
	}
	return len(k.far) == 0 || k.far[0].e.at > k.now
}

// NewRand returns a deterministic random stream identified by name.  Streams
// with distinct names are independent; the same (seed, name) pair always
// yields the same sequence.
func (k *Kernel) NewRand(name string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", k.seed, name)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// Pending reports the number of scheduled events that have not yet fired.
func (k *Kernel) Pending() int {
	n := len(k.far) + k.nowq.n
	k.cal.each(func(*event) { n++ })
	return n
}

// --- calendar queue ---------------------------------------------------------
//
// Events due soon wait in a calendar queue (Brown, CACM 1988): a ring of
// calBuckets buckets, each 1<<calWidthBits ns of virtual time wide and holding
// an (at, seq)-sorted list threaded through event.next.  A bit per bucket marks
// the non-empty ones, and a summary bit per 64-bucket word marks the
// non-empty words, so the earliest bucket is found in a few word operations.
//
// The kernel never schedules into its own past, and an event enters the
// calendar only when it is due within calSpan of the start of the bucket
// holding now, so every calendar event lies in [bucketStart(now),
// bucketStart(now)+calSpan).  No two absolute buckets therefore share a slot,
// and scanning the ring from now's slot visits buckets in time order.  The
// bucket shape is set by measurement (docs/performance.md, "Kernel queue").

const (
	calWidthBits  = 7 // 128 ns buckets
	calBucketBits = 8 // 256 of them: a 32.8 µs span
	calBuckets    = 1 << calBucketBits
	calSpan       = Time(calBuckets) << calWidthBits
	calWords      = calBuckets / 64
)

type calBucket struct{ head, tail *event }

type calendar struct {
	summary uint64           // bit w set when occ[w] != 0
	occ     [calWords]uint64 // bit i%64 of occ[i/64] set when bucket i is non-empty
	b       [calBuckets]calBucket
}

// slot returns the calendar bucket that holds time t.
func slot(t Time) int { return int(t>>calWidthBits) & (calBuckets - 1) }

// push files e in its bucket behind every event due no later: sequence
// numbers only grow, so that is its (at, seq) place.
func (c *calendar) push(e *event) {
	i := slot(e.at)
	b := &c.b[i]
	switch {
	case b.head == nil:
		b.head, b.tail = e, e
		c.occ[i>>6] |= 1 << (i & 63)
		c.summary |= 1 << (i >> 6)
	case b.head.at>>calWidthBits != e.at>>calWidthBits:
		panic(fmt.Sprintf("sim: calendar bucket holds %d and %d, a span or more apart", b.head.at, e.at))
	case b.tail.at <= e.at:
		b.tail.next = e
		b.tail = e
	case e.at < b.head.at:
		e.next = b.head
		b.head = e
	default:
		p := b.head
		for p.next.at <= e.at {
			p = p.next
		}
		e.next = p.next
		p.next = e
	}
}

// first returns the first non-empty bucket at or circularly after slot
// from.  The calendar must not be empty.
func (c *calendar) first(from int) int {
	w := from >> 6
	if m := c.occ[w] >> (from & 63); m != 0 {
		return from + bits.TrailingZeros64(m)
	}
	// The words after w, else wrap round to the words before w and last to
	// w's own buckets before from.
	s := c.summary >> (w + 1) << (w + 1)
	if s == 0 {
		s = c.summary
	}
	w = bits.TrailingZeros64(s)
	return w<<6 | bits.TrailingZeros64(c.occ[w])
}

// pop removes and returns the head of non-empty bucket i.
func (c *calendar) pop(i int) *event {
	b := &c.b[i]
	e := b.head
	b.head = e.next
	e.next = nil
	if b.head == nil {
		b.tail = nil
		if c.occ[i>>6] &^= 1 << (i & 63); c.occ[i>>6] == 0 {
			c.summary &^= 1 << (i >> 6)
		}
	}
	return e
}

// each calls visit on every calendar event, in no particular order; visit
// may unlink the event it is given.
func (c *calendar) each(visit func(*event)) {
	for w, m := range c.occ {
		for ; m != 0; m &= m - 1 {
			for e := c.b[w<<6|bits.TrailingZeros64(m)].head; e != nil; {
				next := e.next
				visit(e)
				e = next
			}
		}
	}
}

// --- far heap ---------------------------------------------------------------
//
// Events beyond the calendar's span wait in a manual 4-ary min-heap:
// container/heap's interface calls were a top profile entry in packet-heavy
// simulations, and the wider node halves the sift-down depth (the pop-heavy
// direction) while keeping all four children of a node on one cache line
// pair.

const heapArity = 4

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapEntry carries an event's packed (at, seq) ordering key beside its
// pointer, so heap sifts compare contiguous uint64s instead of dereferencing
// two Events per comparison.  Keys pack the time into the high 36 bits and
// the sequence number into the low 28; the rare out-of-range event gets the
// sentinel key and falls back to a full field comparison, preserving the
// exact (at, seq) order in all cases.
type heapEntry struct {
	key uint64
	e   *event
}

const (
	keySeqBits  = 28
	keyMaxAt    = Time(1)<<(64-keySeqBits) - 1
	keyMaxSeq   = uint64(1)<<keySeqBits - 1
	keySentinel = ^uint64(0)
)

// eventKey packs (at, seq) into a single-compare ordering key, or the
// sentinel when either component is out of packing range.
func eventKey(at Time, seq uint64) uint64 {
	if at > keyMaxAt || seq > keyMaxSeq {
		return keySentinel
	}
	return uint64(at)<<keySeqBits | seq
}

// entryLess orders heap entries by packed key; keys are unique while in
// packing range (seq is unique per kernel).  A sentinel says nothing about
// where its event sorts (an overflowing seq can carry an early time), so any
// comparison involving one falls back to the fields.
func entryLess(a, b *heapEntry) bool {
	if a.key == keySentinel || b.key == keySentinel {
		return eventLess(a.e, b.e)
	}
	return a.key < b.key
}

func (k *Kernel) heapPush(e *event) {
	h := append(k.far, heapEntry{key: eventKey(e.at, e.seq), e: e})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !entryLess(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	k.far = h
}

func (k *Kernel) heapPop() *event {
	h := k.far
	top := h[0].e
	n := len(h) - 1
	h[0] = h[n]
	h[n] = heapEntry{}
	h = h[:n]
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if entryLess(&h[c], &h[best]) {
				best = c
			}
		}
		if !entryLess(&h[best], &h[i]) {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	k.far = h
	return top
}

// --- scheduling -------------------------------------------------------------

// newEvent serves an event struct, preferring the free list.
func (k *Kernel) newEvent() *event {
	if n := len(k.pool); n > 0 {
		e := k.pool[n-1]
		k.pool = k.pool[:n-1]
		k.stats.PoolReuses++
		return e
	}
	return &event{}
}

// recycle returns an event that fired or was discarded to the free list.
func (k *Kernel) recycle(e *event) {
	e.fn = nil
	e.arg = nil
	k.pool = append(k.pool, e)
}

// enqueue stamps and queues a prepared event.  Events for the current instant
// take the FIFO ring, events within the calendar's span take the calendar,
// and later events take the far heap.
func (k *Kernel) enqueue(e *event, t Time) {
	if t < k.now {
		t = k.now
	}
	e.at = t
	e.seq = k.seq
	k.seq++
	k.stats.EventsScheduled++
	if t == k.now {
		k.nowq.push(e)
		k.stats.FastPathEvents++
		return
	}
	if t-k.now&^(1<<calWidthBits-1) < calSpan {
		k.cal.push(e)
		return
	}
	k.heapPush(e)
}

// runClosure is the callback of every Post/PostAt event: the closure itself
// travels as the event's argument.  A func value is one pointer, so storing
// it in an interface allocates nothing.
func runClosure(fn any) { fn.(func())() }

// PostAt schedules fn to run at virtual time t.  Scheduling in the past is
// clamped to the current time.
func (k *Kernel) PostAt(t Time, fn func()) { k.CallAt(t, runClosure, fn) }

// Post schedules fn to run d after the current virtual time; a negative d
// counts as zero.
func (k *Kernel) Post(d Duration, fn func()) { k.Call(d, runClosure, fn) }

// CallAt schedules fn(arg) at virtual time t.  Combined with a pre-bound fn
// it makes repeated scheduling completely allocation-free: the event is
// pooled and no closure is created.
func (k *Kernel) CallAt(t Time, fn func(any), arg any) {
	e := k.newEvent()
	e.fn = fn
	e.arg = arg
	k.enqueue(e, t)
}

// Call schedules fn(arg) to run d after the current virtual time; a negative
// d counts as zero.
func (k *Kernel) Call(d Duration, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	k.CallAt(k.now.Add(d), fn, arg)
}

// --- execution --------------------------------------------------------------

// Where step found the event it fires.
const (
	fromRing = iota
	fromCalendar
	fromFar
)

// Run executes events until the event queue is empty.  It returns the final
// virtual time.
func (k *Kernel) Run() Time {
	for k.step(-1) {
	}
	return k.now
}

// RunUntil executes events with timestamps <= deadline and then advances the
// clock to exactly the deadline.  It returns the final virtual time.
func (k *Kernel) RunUntil(deadline Time) Time {
	for k.step(deadline) {
	}
	if k.now < deadline {
		k.now = deadline
	}
	return k.now
}

// RunFor runs the simulation for d of virtual time from the current instant.
func (k *Kernel) RunFor(d Duration) Time { return k.RunUntil(k.now.Add(d)) }

// step executes the next event if there is one and (when deadline >= 0) it
// does not lie beyond the deadline.  It reports whether an event ran.
//
// The ring only ever holds events stamped at the current instant, and the
// clock advances solely by firing calendar and heap events, which cannot
// happen while ring events remain; comparing the three front events by
// (at, seq) therefore reproduces the exact global ordering of a single queue.
func (k *Kernel) step(deadline Time) bool {
	var e *event
	from := fromRing
	i := 0
	if k.nowq.n > 0 {
		e = k.nowq.peek()
	}
	if k.cal.summary != 0 {
		i = k.cal.first(slot(k.now))
		if c := k.cal.b[i].head; e == nil || eventLess(c, e) {
			e, from = c, fromCalendar
		}
	}
	if len(k.far) > 0 {
		if f := k.far[0].e; e == nil || eventLess(f, e) {
			e, from = f, fromFar
		}
	}
	if e == nil || deadline >= 0 && e.at > deadline {
		return false
	}
	switch from {
	case fromRing:
		k.nowq.pop()
	case fromCalendar:
		k.cal.pop(i)
	default:
		k.heapPop()
	}
	k.now = e.at
	k.stats.EventsFired++
	if telemetry.TraceEnabled() && k.traceSample.Hit() {
		// Sampled kernel lane: one instant per kept event at its virtual
		// firing time.  The guard is a single atomic load when no trace is
		// active, and sampling is this kernel's own countdown — the event
		// schedule cannot depend on it.
		if k.tracePid == 0 {
			k.tracePid = telemetry.NextTracePid()
			telemetry.EmitProcessName(k.tracePid, "sim kernel")
		}
		telemetry.EmitInstant("kernel", "fire", k.tracePid, 0, int64(e.at), nil)
	}
	fn, arg := e.fn, e.arg
	k.recycle(e) // safe: callback copied out, struct may be reused by fn itself
	fn(arg)
	return true
}

// Shutdown ends a run whose activities never finish on their own (an
// endless rank loop, a traffic generator): it discards every pending event —
// rank resumes and in-flight network events alike — counting each in
// Stats.EventsCancelled, so none of them fires and their structs return to
// the free list.  It must be called from outside the kernel (not from an
// event).  Calling Shutdown again discards only events scheduled since.
func (k *Kernel) Shutdown() {
	for _, he := range k.far {
		k.discard(he.e)
	}
	k.far = k.far[:0]
	k.cal.each(func(e *event) {
		e.next = nil
		k.discard(e)
	})
	k.cal = calendar{}
	for k.nowq.n > 0 {
		k.discard(k.nowq.pop())
	}
}

// discard recycles a pending event that Shutdown removed from its queue.
func (k *Kernel) discard(e *event) {
	k.stats.EventsCancelled++
	k.recycle(e)
}
