// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock by executing scheduled events in
// timestamp order on the goroutine that calls Run/RunUntil.  Every simulated
// activity — network pipeline stages, MPI ranks written as continuations,
// traffic generators — is a chain of callback events, so simulation code needs
// no locking and is fully deterministic for a fixed seed.
//
// Two scheduling APIs exist.  At/After return a cancellable *Event handle and
// allocate a fresh event per call.  Post/PostAt/Call/CallAt are fire-and-forget:
// they return no handle, draw their event structs from an internal free list
// and recycle them after firing, so steady-state scheduling allocates nothing.
// Call/CallAt additionally carry a caller-supplied argument to the callback,
// letting hot paths reuse one pre-bound callback instead of allocating a
// closure per event.  Events scheduled for the current instant bypass the
// timer heap entirely through a FIFO ring.
//
// The kernel is the substrate for the simulated cluster network, the MPI-like
// runtime and the application workloads used to reproduce the active
// measurement methodology of Casas & Bronevetsky (IPDPS 2014).
package sim

import (
	"fmt"
	"hash/fnv"
	"math"
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
// layer's deferred lane may commit pipeline work ahead of the clock (per-flow
// random substreams, analytically fused route walks) instead of replaying the
// strict global (time, seq) interleaving.  The strict golden-oracle mode
// still reproduces version-2 schedules byte-for-byte, but artifacts are keyed
// on the mode, so the version bump invalidates every pre-relaxation cache.
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

// Event is a scheduled callback.  Handles returned by At/After can be
// cancelled before they fire.  Events created through Post/PostAt/Call/CallAt
// are pooled and never escape the kernel.
type Event struct {
	at  Time
	seq uint64
	fn  func()
	// afn/arg are the argument-carrying callback form used by Call/CallAt;
	// exactly one of fn and afn is set.
	afn       func(any)
	arg       any
	cancelled bool
	// pooled events are recycled onto the kernel free list once popped; only
	// handle-less events may be pooled, so a recycled struct can never be
	// reached through a stale *Event.
	pooled bool
}

// Time returns the virtual time at which the event is scheduled to fire.
func (e *Event) Time() Time { return e.at }

// Cancel prevents the event from firing.  Cancelling an event that already
// fired is a no-op.
func (e *Event) Cancel() { e.cancelled = true }

// Stats counts what the kernel has done since creation.  All counters are
// monotonic.
type Stats struct {
	// EventsScheduled is the total number of events accepted via any
	// scheduling API.
	EventsScheduled uint64
	// EventsFired is the number of events whose callback ran.
	EventsFired uint64
	// EventsCancelled is the number of events discarded without firing
	// (explicit Cancel or Shutdown).
	EventsCancelled uint64
	// PoolReuses is the number of event structs served from the free list
	// instead of the heap allocator (allocations avoided).
	PoolReuses uint64
	// FastPathEvents is the number of events that bypassed the timer heap
	// through the same-instant FIFO ring.
	FastPathEvents uint64
	// EventsElided is the number of would-be events a client simulated
	// analytically instead of scheduling (reported via NoteElided); the
	// network layer's cut-through fast path is the main contributor.  The
	// schedule is byte-identical with or without elision — only the kernel's
	// bookkeeping cost changes.
	EventsElided uint64
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
	buf  []*Event
	head int
	n    int
}

func (r *eventRing) push(e *Event) {
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
	newBuf := make([]*Event, max(16, 2*len(r.buf)))
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

func (r *eventRing) peek() *Event { return r.buf[r.head] }

func (r *eventRing) pop() *Event {
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
	now     Time
	events  []heapEntry // 4-ary min-heap ordered by packed (at, seq) keys
	nowq    eventRing
	pool    []*Event
	seq     uint64
	curSeq  uint64
	postGen uint64
	seed    int64
	stats   Stats

	// aux is the attached deferred event lane, if any (see AuxQueue).
	aux AuxQueue

	// tracePid is this kernel's lane id in a structured trace, allocated on
	// the first sampled emission (0 = none yet), and traceSample picks which
	// fired events are traced.  Purely observational: both are touched only
	// while a trace is being recorded.
	tracePid    int64
	traceSample telemetry.Sampler
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

// NoteElided records n events that a client executed through its own deferred
// lane instead of scheduling them as kernel events.  It only feeds the
// EventsElided statistic; it has no effect on execution.
func (k *Kernel) NoteElided(n uint64) { k.stats.EventsElided += n }

// NoteFastResume records one taken non-parking fast path: a wait on an
// already-complete operation, a wait with zero pending requests, or a
// zero-length compute resumed inline under the InstantIdle guard.  It only
// feeds the ProcFastResumes statistic; it has no effect on execution.
func (k *Kernel) NoteFastResume() { k.stats.ProcFastResumes++ }

// AuxPeeker is optionally implemented by an AuxQueue that can report the
// (time, seq) key of its earliest deferred entry.  InstantIdle consults it;
// a lane that does not implement the method is conservatively treated as
// possibly holding same-instant work.
type AuxPeeker interface {
	// PeekKey returns the key of the earliest deferred entry and whether one
	// exists.
	PeekKey() (Time, uint64, bool)
}

// InstantIdle reports whether nothing further is ordered at the current
// instant: the same-instant ring is empty, the earliest heap event (if any)
// lies strictly in the future, and the attached deferred lane (if any) holds
// no entry at or before now.  When it holds, an event posted now would fire
// as the very next action with no intervening work, so a client may instead
// run its continuation inline: the only change to the schedule is that every
// later sequence number shifts down by one — uniformly, which preserves all
// relative (time, seq) orderings — and the resume event is saved.
// Cancelled heap events and non-peekable lanes make the answer conservatively
// false.
func (k *Kernel) InstantIdle() bool {
	if k.nowq.n > 0 {
		return false
	}
	if len(k.events) > 0 && k.events[0].e.at <= k.now {
		return false
	}
	if k.aux != nil {
		p, ok := k.aux.(AuxPeeker)
		if !ok {
			return false
		}
		if at, _, have := p.PeekKey(); have && at <= k.now {
			return false
		}
	}
	return true
}

// AllocSeq hands out the next event sequence number without scheduling
// anything.  A client that runs its own deferred event lane (netsim's
// cut-through path) stamps each lane entry with a real sequence number at the
// moment it would have scheduled the event, so lane entries and kernel events
// remain totally ordered by (time, seq) exactly as if every entry had been a
// kernel event.  The allocation counts as a scheduled event in Stats.
func (k *Kernel) AllocSeq() uint64 {
	s := k.seq
	k.seq++
	k.stats.EventsScheduled++
	return s
}

// NextSeq returns the sequence number the next scheduled event (or AllocSeq
// call) will receive, without consuming it.  A deferred lane peeks it to
// decide whether an entry still fits its packed-key range before allocating.
func (k *Kernel) NextSeq() uint64 { return k.seq }

// CurrentSeq returns the sequence number of the event being dispatched (0
// before the first dispatch).  Together with Now it identifies the current
// position in the global (time, seq) event order; a deferred lane drains
// every entry ordered before this position before the caller may touch lane
// state.
func (k *Kernel) CurrentSeq() uint64 { return k.curSeq }

// LaneDispatch is called by the attached deferred lane as it executes each
// entry: it advances the kernel clock to the entry's timestamp and records
// its sequence number as the current dispatch position.  Lane drains run in
// global (time, seq) order between kernel dispatches, so the clock stays
// monotonic and every callback run from the lane — completions, observers —
// sees exactly the clock it would have seen as a kernel event.
func (k *Kernel) LaneDispatch(at Time, seq uint64) {
	if at > k.now {
		k.now = at
	}
	k.curSeq = seq
}

// NextEventKey returns the (time, seq) key of the earliest scheduled event
// and whether one exists.  Cancelled events are included (their key is a
// conservative lower bound: the kernel will discard them and look again).
// A deferred lane re-reads this every drained entry, because executing an
// entry can schedule a real event that must run before the lane's next one.
func (k *Kernel) NextEventKey() (Time, uint64, bool) {
	var e *Event
	if k.nowq.n > 0 {
		e = k.nowq.peek()
	}
	if len(k.events) > 0 && (e == nil || eventLess(k.events[0].e, e)) {
		e = k.events[0].e
	}
	if e == nil {
		return 0, 0, false
	}
	return e.at, e.seq, true
}

// AuxQueue is a deferred event lane maintained by a client (netsim's
// cut-through fast path).  The kernel gives the lane its turn in the global
// (time, seq) event order: before dispatching an event — and before going
// idle or stopping at a RunUntil deadline — it asks the lane to execute every
// entry strictly ordered before the given position and not past the deadline.
// Lane entries carry sequence numbers from AllocSeq, so "ordered before" is
// the exact order the entries would have had as kernel events.
type AuxQueue interface {
	// DrainBefore executes deferred entries e with (e.at, e.seq) < (at, seq)
	// and e.at <= deadline, in (at, seq) order, and reports whether any entry
	// ran.  Draining may schedule new kernel events.
	DrainBefore(at Time, seq uint64, deadline Time) bool
}

// SetAux attaches a deferred event lane to the kernel (nil detaches).  At
// most one lane may be attached at a time; attaching over an existing lane
// reports an error so two networks on one kernel fail loudly instead of
// silently reordering each other.
func (k *Kernel) SetAux(aux AuxQueue) error {
	if aux != nil && k.aux != nil && k.aux != aux {
		return fmt.Errorf("sim: kernel already has a deferred event lane attached")
	}
	k.aux = aux
	return nil
}

// NewRand returns a deterministic random stream identified by name.  Streams
// with distinct names are independent; the same (seed, name) pair always
// yields the same sequence.
func (k *Kernel) NewRand(name string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", k.seed, name)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// Pending reports the number of scheduled, non-cancelled events.
func (k *Kernel) Pending() int {
	n := 0
	for _, he := range k.events {
		if !he.e.cancelled {
			n++
		}
	}
	for i := 0; i < k.nowq.n; i++ {
		j := k.nowq.head + i
		if j >= len(k.nowq.buf) {
			j -= len(k.nowq.buf)
		}
		if !k.nowq.buf[j].cancelled {
			n++
		}
	}
	return n
}

// --- event heap -------------------------------------------------------------
//
// A manual 4-ary min-heap: container/heap's interface calls were a top
// profile entry in packet-heavy simulations, and the wider node halves the
// sift-down depth (the pop-heavy direction) while keeping all four children
// of a node on one cache line pair.

const heapArity = 4

func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapEntry carries an event's packed (at, seq) ordering key beside its
// pointer, so heap sifts compare contiguous uint64s instead of dereferencing
// two Events per comparison.  Keys use the same 36/28-bit time/seq packing as
// the network layer's deferred lane; the rare out-of-range event gets the
// sentinel key and falls back to a full field comparison, preserving the
// exact (at, seq) order in all cases.
type heapEntry struct {
	key uint64
	e   *Event
}

const (
	keySeqBits = 28
	keyMaxAt   = Time(1)<<(64-keySeqBits) - 1
	keyMaxSeq  = uint64(1)<<keySeqBits - 1
)

// eventKey packs (at, seq) into a single-compare ordering key, or the
// sentinel when either component is out of packing range.
func eventKey(at Time, seq uint64) uint64 {
	if at > keyMaxAt || seq > keyMaxSeq {
		return ^uint64(0)
	}
	return uint64(at)<<keySeqBits | seq
}

// entryLess orders heap entries by packed key; keys are unique while in
// packing range (seq is unique per kernel), so the field fallback only
// breaks ties between sentinel-keyed entries.
func entryLess(a, b *heapEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return eventLess(a.e, b.e)
}

func (k *Kernel) heapPush(e *Event) {
	h := append(k.events, heapEntry{key: eventKey(e.at, e.seq), e: e})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !entryLess(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	k.events = h
}

func (k *Kernel) heapPop() *Event {
	h := k.events
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
	k.events = h
	return top
}

// --- scheduling -------------------------------------------------------------

// newEvent serves an event struct, preferring the free list.
func (k *Kernel) newEvent() *Event {
	if n := len(k.pool); n > 0 {
		e := k.pool[n-1]
		k.pool = k.pool[:n-1]
		k.stats.PoolReuses++
		return e
	}
	return &Event{}
}

// recycle returns a pooled event to the free list.  Handle-bearing events
// (At/After) are never recycled: a stale *Event held by the caller must stay
// inert rather than alias a future event.
func (k *Kernel) recycle(e *Event) {
	if !e.pooled {
		return
	}
	e.fn = nil
	e.afn = nil
	e.arg = nil
	e.cancelled = false
	e.pooled = false
	k.pool = append(k.pool, e)
}

// enqueue stamps and queues a prepared event.  Events for the current instant
// take the FIFO ring; later events take the heap.
func (k *Kernel) enqueue(e *Event, t Time) {
	if t < k.now {
		t = k.now
	}
	e.at = t
	e.seq = k.seq
	k.seq++
	k.postGen++
	k.stats.EventsScheduled++
	if t == k.now {
		k.nowq.push(e)
		k.stats.FastPathEvents++
		return
	}
	k.heapPush(e)
}

// PostGen returns a counter that changes whenever a real event is scheduled.
// A deferred lane snapshots it to detect, without re-reading the queue heads,
// whether executing an entry scheduled a kernel event that may now be ordered
// before the lane's next entry.
func (k *Kernel) PostGen() uint64 { return k.postGen }

// At schedules fn to run at virtual time t and returns a cancellable handle.
// Scheduling in the past is clamped to the current time.
func (k *Kernel) At(t Time, fn func()) *Event {
	e := &Event{fn: fn}
	k.enqueue(e, t)
	return e
}

// After schedules fn to run d after the current virtual time.
func (k *Kernel) After(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return k.At(k.now.Add(d), fn)
}

// PostAt schedules fn to run at virtual time t with no cancellation handle.
// The backing event comes from the kernel's free list, so steady-state use
// does not allocate.
func (k *Kernel) PostAt(t Time, fn func()) {
	e := k.newEvent()
	e.fn = fn
	e.pooled = true
	k.enqueue(e, t)
}

// Post schedules fn to run d after the current virtual time with no
// cancellation handle (the pooled counterpart of After).
func (k *Kernel) Post(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	k.PostAt(k.now.Add(d), fn)
}

// CallAt schedules fn(arg) at virtual time t with no cancellation handle.
// Combined with a pre-bound fn it makes repeated scheduling completely
// allocation-free: the event is pooled and no closure is created.
func (k *Kernel) CallAt(t Time, fn func(any), arg any) {
	e := k.newEvent()
	e.afn = fn
	e.arg = arg
	e.pooled = true
	k.enqueue(e, t)
}

// Call schedules fn(arg) to run d after the current virtual time (the pooled,
// argument-carrying counterpart of After).
func (k *Kernel) Call(d Duration, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	k.CallAt(k.now.Add(d), fn, arg)
}

// --- execution --------------------------------------------------------------

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
// clock advances solely by firing heap events, which cannot happen while ring
// events remain; comparing the two front events by (at, seq) therefore
// reproduces the exact global ordering of a single queue.
//
// An attached deferred lane (AuxQueue) gets its turn first: before an event
// is dispatched, every lane entry ordered before it executes, and before the
// kernel goes idle or stops at the deadline, every remaining in-deadline lane
// entry executes.  Lane drains can schedule new kernel events, so the loop
// re-examines the queues after each drain that made progress.
func (k *Kernel) step(deadline Time) bool {
	for {
		var e *Event
		fromRing := false
		if k.nowq.n > 0 {
			e = k.nowq.peek()
			fromRing = true
			if len(k.events) > 0 && eventLess(k.events[0].e, e) {
				e = k.events[0].e
				fromRing = false
			}
		} else if len(k.events) > 0 {
			e = k.events[0].e
		} else {
			if k.aux != nil && k.aux.DrainBefore(maxTime, ^uint64(0), capDeadline(deadline)) {
				continue
			}
			return false
		}
		if e.cancelled {
			if fromRing {
				k.nowq.pop()
			} else {
				k.heapPop()
			}
			k.stats.EventsCancelled++
			k.recycle(e)
			continue
		}
		if deadline >= 0 && e.at > deadline {
			if k.aux != nil && k.aux.DrainBefore(maxTime, ^uint64(0), deadline) {
				continue
			}
			return false
		}
		if k.aux != nil && k.aux.DrainBefore(e.at, e.seq, capDeadline(deadline)) {
			// The drain may have scheduled events ordered before e.
			continue
		}
		if fromRing {
			k.nowq.pop()
		} else {
			k.heapPop()
		}
		k.now = e.at
		k.curSeq = e.seq
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
		fn, afn, arg := e.fn, e.afn, e.arg
		k.recycle(e) // safe: callback copied out, struct may be reused by fn itself
		if fn != nil {
			fn()
		} else {
			afn(arg)
		}
		return true
	}
}

// maxTime is the far-future sentinel used for unbounded lane drains.
const maxTime = Time(math.MaxInt64)

// capDeadline translates step's "no deadline" sentinel (-1) into the lane's
// far-future bound.
func capDeadline(deadline Time) Time {
	if deadline < 0 {
		return maxTime
	}
	return deadline
}

// Shutdown ends a run whose activities never finish on their own (an
// endless rank loop, a traffic generator): it cancels every pending ring and
// heap event, counting each in Stats.EventsCancelled, so none of them fires
// and their pooled structs return to the free list.  It must be called from
// outside the kernel (not from an event).  An attached deferred lane keeps
// its entries; a later Run drains them.  Calling Shutdown again cancels only
// events scheduled since.
func (k *Kernel) Shutdown() {
	for _, he := range k.events {
		k.stats.EventsCancelled++
		he.e.cancelled = true
		k.recycle(he.e)
	}
	k.events = k.events[:0]
	for k.nowq.n > 0 {
		e := k.nowq.pop()
		k.stats.EventsCancelled++
		e.cancelled = true
		k.recycle(e)
	}
}
