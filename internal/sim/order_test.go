package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// The differential order test drives Kernel and naiveKernel with the same
// generated calls and requires the same observable behaviour after every
// call: the fired (at, seq) sequence, Stats, Pending, InstantIdle and the
// clock.  naiveKernel shares no queue code with Kernel, so it checks the
// ring, the calendar and the far heap together against the one rule they
// implement: fire the minimum pending (at, seq).

// kernelUnderTest is the scheduling surface both kernels expose.
type kernelUnderTest interface {
	Now() Time
	At(Time, func()) *Event
	After(Duration, func()) *Event
	PostAt(Time, func())
	Post(Duration, func())
	CallAt(Time, func(any), any)
	Call(Duration, func(any), any)
	Run() Time
	RunUntil(Time) Time
	Shutdown()
	Stats() Stats
	Pending() int
	InstantIdle() bool
	NoteFastResume()
	step(deadline Time) bool
}

// naiveKernel keeps every pending event in one slice and fires the minimum
// (at, seq) it finds by linear scan.  It mirrors Kernel's bookkeeping — the
// clamp to now, the free-list counters, cancelled events discarded when they
// reach the front — but nothing of how Kernel stores events.
type naiveKernel struct {
	now     Time
	seq     uint64
	pending []*Event
	free    int // recycled pooled structs the next pooled schedule reuses
	stats   Stats
}

func (k *naiveKernel) Now() Time       { return k.now }
func (k *naiveKernel) Stats() Stats    { return k.stats }
func (k *naiveKernel) NoteFastResume() { k.stats.ProcFastResumes++ }

func (k *naiveKernel) enqueue(e *Event, t Time) {
	if t < k.now {
		t = k.now
	}
	e.at, e.seq = t, k.seq
	k.seq++
	k.stats.EventsScheduled++
	if t == k.now {
		k.stats.FastPathEvents++
	}
	k.pending = append(k.pending, e)
}

func (k *naiveKernel) pooled() *Event {
	if k.free > 0 {
		k.free--
		k.stats.PoolReuses++
	}
	return &Event{pooled: true}
}

func (k *naiveKernel) release(e *Event) {
	if e.pooled {
		k.free++
	}
}

func (k *naiveKernel) At(t Time, fn func()) *Event {
	e := &Event{fn: fn}
	k.enqueue(e, t)
	return e
}

func (k *naiveKernel) After(d Duration, fn func()) *Event {
	return k.At(k.now.Add(max(d, 0)), fn)
}

func (k *naiveKernel) PostAt(t Time, fn func()) {
	e := k.pooled()
	e.fn = fn
	k.enqueue(e, t)
}

func (k *naiveKernel) Post(d Duration, fn func()) { k.PostAt(k.now.Add(max(d, 0)), fn) }

func (k *naiveKernel) CallAt(t Time, fn func(any), arg any) {
	e := k.pooled()
	e.afn, e.arg = fn, arg
	k.enqueue(e, t)
}

func (k *naiveKernel) Call(d Duration, fn func(any), arg any) {
	k.CallAt(k.now.Add(max(d, 0)), fn, arg)
}

func (k *naiveKernel) step(deadline Time) bool {
	for len(k.pending) > 0 {
		m := 0
		for i, e := range k.pending {
			if e.at < k.pending[m].at || e.at == k.pending[m].at && e.seq < k.pending[m].seq {
				m = i
			}
		}
		e := k.pending[m]
		if !e.cancelled && deadline >= 0 && e.at > deadline {
			return false
		}
		k.pending = append(k.pending[:m], k.pending[m+1:]...)
		k.release(e)
		if e.cancelled {
			k.stats.EventsCancelled++
			continue
		}
		k.now = e.at
		k.stats.EventsFired++
		if e.fn != nil {
			e.fn()
		} else {
			e.afn(e.arg)
		}
		return true
	}
	return false
}

func (k *naiveKernel) Run() Time {
	for k.step(-1) {
	}
	return k.now
}

func (k *naiveKernel) RunUntil(deadline Time) Time {
	for k.step(deadline) {
	}
	k.now = max(k.now, deadline)
	return k.now
}

func (k *naiveKernel) Shutdown() {
	for _, e := range k.pending {
		k.stats.EventsCancelled++
		e.cancelled = true
		k.release(e)
	}
	k.pending = nil
}

func (k *naiveKernel) Pending() int {
	n := 0
	for _, e := range k.pending {
		if !e.cancelled {
			n++
		}
	}
	return n
}

func (k *naiveKernel) InstantIdle() bool {
	for _, e := range k.pending {
		if e.at == k.now {
			return false
		}
	}
	return true
}

// firing is one fired event: its time and sequence number.  The harness
// numbers events in scheduling order, as both kernels number seq.
type firing struct {
	at  Time
	seq uint64
}

// orderHarness schedules generated events on one kernel and records what
// fires.  A fired event may schedule follow-ups and cancel a handle, chosen
// by hashing its seq, so two harnesses in lockstep make the same calls for as
// long as their kernels fire the same events.
type orderHarness struct {
	k       kernelUnderTest
	fired   []firing
	handles []*Event
	recent  [16]Time // recently scheduled times, to tie new events to
	nextSeq uint64
	queued  int // scheduled, not yet fired or shut down: at least Pending
	budget  int // follow-ups fired events may still schedule
	callFn  func(any)
}

// maxQueued caps the queue depth a generated input can build, so the naive
// kernel's linear scan stays cheap; cold campaigns peak at about 600.
const maxQueued = 1024

func newOrderHarness(k kernelUnderTest, budget int) *orderHarness {
	h := &orderHarness{k: k, budget: budget}
	h.callFn = func(arg any) { h.fire(arg.(uint64)) }
	return h
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// horizonAt turns a generated (class, x) pair into an absolute time around
// now and its calendar bucket: the same instant, the next nanosecond, one
// bucket width ±1, the calendar span ±1 from the current bucket's start, the
// far heap's range, beyond the packed-key range (2^36 ns ahead), the past,
// and times other events were scheduled for, which ties events across the
// ring, calendar and heap.
func (h *orderHarness) horizonAt(class, x byte) Time {
	now := h.k.Now()
	bucket := now &^ (1<<calWidthBits - 1)
	width := Time(1) << calWidthBits
	switch class % 16 {
	case 0:
		return now
	case 1:
		return now + 1
	case 2:
		return now + width - 1
	case 3:
		return now + width
	case 4:
		return now + width + 1
	case 5:
		return bucket + calSpan - 1
	case 6:
		return bucket + calSpan
	case 7:
		return bucket + calSpan + 1
	case 8:
		if x < 16 { // rarely: once fired, it moves the clock past 2^36 ns
			return now + keyMaxAt + 1 + Time(x)*1000
		}
		return now + calSpan + Time(x)*1000
	case 9:
		return now + Time(x)
	case 10:
		return now + Time(x)*16
	case 11:
		return now + Time(x)*256
	case 12, 13:
		return h.recent[x%16]
	case 14:
		return now - Time(x)
	default:
		return bucket + width*Time(x%8) + Time(x)%width
	}
}

// schedule makes one generated scheduling call: api picks the entry point.
func (h *orderHarness) schedule(api, class, x byte) {
	if h.queued >= maxQueued {
		return
	}
	h.queued++
	now := h.k.Now()
	at := h.horizonAt(class, x)
	seq := h.nextSeq
	h.nextSeq++
	h.recent[seq%16] = max(at, now)
	fn := func() { h.fire(seq) }
	switch api % 6 {
	case 0:
		h.handles = append(h.handles, h.k.At(at, fn))
	case 1:
		h.handles = append(h.handles, h.k.After(at.Sub(now), fn))
	case 2:
		h.k.PostAt(at, fn)
	case 3:
		h.k.Post(at.Sub(now), fn)
	case 4:
		h.k.CallAt(at, h.callFn, seq)
	default:
		h.k.Call(at.Sub(now), h.callFn, seq)
	}
}

func (h *orderHarness) fire(seq uint64) {
	h.queued--
	h.fired = append(h.fired, firing{h.k.Now(), seq})
	r := mix64(seq)
	if r&7 == 0 && len(h.handles) > 0 {
		h.handles[(r>>3)%uint64(len(h.handles))].Cancel()
	}
	for n := r >> 16 % 3; n > 0 && h.budget > 0; n-- {
		h.budget--
		r = mix64(r)
		h.schedule(byte(r), byte(r>>8), byte(r>>16))
	}
}

// deadline turns a generated (class, x) pair into a RunUntil deadline: the
// middle of a nearby bucket, past the calendar span, just ahead, in the past,
// or beyond the packed-key range.
func (h *orderHarness) deadline(class, x byte) Time {
	now := h.k.Now()
	bucket := now &^ (1<<calWidthBits - 1)
	width := Time(1) << calWidthBits
	switch class % 6 {
	case 0:
		return bucket + width*Time(x%4) + width/2
	case 1:
		return bucket + calSpan + width/2 + Time(x)*width
	case 2:
		return now + Time(x)
	case 3:
		return now - 1
	case 4:
		return bucket + 2*calSpan + Time(x)*width
	default:
		return now + keyMaxAt + Time(x)
	}
}

// apply decodes one 4-byte operation.
func (h *orderHarness) apply(op, a, b, c byte) {
	switch op % 32 {
	default: // 0-15
		h.schedule(a, b, c)
	case 16, 17, 18, 19, 20, 21, 22:
		h.k.step(-1)
	case 23, 24:
		if len(h.handles) > 0 {
			h.handles[int(c)%len(h.handles)].Cancel()
		}
	case 25, 26:
		h.k.RunUntil(h.deadline(a, b))
	case 27:
		h.k.Run()
	case 28:
		h.k.Shutdown()
		h.queued = 0
	case 29:
		h.k.NoteFastResume()
	case 30, 31: // a burst, to build queue depth
		r := uint64(a)<<16 | uint64(b)<<8 | uint64(c)
		for i := 0; i < 1+int(c%32); i++ {
			r = mix64(r)
			h.schedule(byte(r), byte(r>>8), byte(r>>16))
		}
	}
}

// maxOrderOps caps the operations one input drives.
const maxOrderOps = 4096

// checkKernelOrder runs the operations data encodes on a Kernel and a
// naiveKernel in lockstep and fails at the first observable difference.
func checkKernelOrder(t testing.TB, data []byte) {
	ops := min(len(data)/4, maxOrderOps)
	want := newOrderHarness(&naiveKernel{}, 2*ops)
	got := newOrderHarness(NewKernel(1), 2*ops)
	compared := 0
	for i := 0; i < ops; i++ {
		op := data[4*i : 4*i+4]
		want.apply(op[0], op[1], op[2], op[3])
		got.apply(op[0], op[1], op[2], op[3])
		if err := sameBehaviour(want, got, compared); err != nil {
			t.Fatalf("after op %d (% x): %v", i, op, err)
		}
		compared = len(got.fired)
	}
	// Drain what is left, so every pending event is compared too.
	want.k.Run()
	got.k.Run()
	if err := sameBehaviour(want, got, compared); err != nil {
		t.Fatalf("after the final Run: %v", err)
	}
}

// sameBehaviour compares two harnesses whose first compared firings are
// already known to agree.
func sameBehaviour(want, got *orderHarness, compared int) error {
	n := min(len(want.fired), len(got.fired))
	for j := compared; j < n; j++ {
		if want.fired[j] != got.fired[j] {
			return fmt.Errorf("firing %d is (at %d, seq %d), want (at %d, seq %d)",
				j, got.fired[j].at, got.fired[j].seq, want.fired[j].at, want.fired[j].seq)
		}
	}
	if len(got.fired) != len(want.fired) {
		return fmt.Errorf("%d events fired, want %d", len(got.fired), len(want.fired))
	}
	if g, w := got.k.Now(), want.k.Now(); g != w {
		return fmt.Errorf("clock %d, want %d", g, w)
	}
	if g, w := got.k.Stats(), want.k.Stats(); g != w {
		return fmt.Errorf("stats %+v, want %+v", g, w)
	}
	if g, w := got.k.Pending(), want.k.Pending(); g != w {
		return fmt.Errorf("pending %d, want %d", g, w)
	}
	if g, w := got.k.InstantIdle(), want.k.InstantIdle(); g != w {
		return fmt.Errorf("InstantIdle %v, want %v", g, w)
	}
	return nil
}

// orderOps returns n generated operations from seed.
func orderOps(seed int64, n int) []byte {
	data := make([]byte, 4*n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

func TestKernelOrderMatchesNaiveKernel(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			checkKernelOrder(t, orderOps(seed, 2000))
		})
	}
}

func FuzzKernelOrder(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(orderOps(seed, 256))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkKernelOrder(t, data) })
}

// TestFarHeapOrderOutsidePackedKeys pins the far heap's sentinel fallback:
// events whose time passes 2^36-1 ns or whose seq passes 2^28-1 do not fit
// the packed key and fall back to a field comparison.  Sequence numbers
// cross the packing limit midway, and calendar-resident events interleave
// with far ones before and after the clock itself passes 2^36 ns.
func TestFarHeapOrderOutsidePackedKeys(t *testing.T) {
	k := NewKernel(1)
	k.seq = keyMaxSeq - 20
	var want, got []firing
	schedule := func(at Time) {
		seq := k.seq
		want = append(want, firing{max(at, k.Now()), seq})
		k.PostAt(at, func() { got = append(got, firing{k.Now(), seq}) })
	}
	base := keyMaxAt + 1
	for i := 0; i < 48; i++ {
		switch i % 4 {
		case 0: // beyond the packed-key time range, some sharing an instant
			schedule(base + Time(i%8)*100)
		case 1: // calendar-resident
			schedule(Time(i) * 100)
		case 2: // far, inside the packed-key time range
			schedule(calSpan + Time(i%5)*1000)
		default: // far, at instants the first group uses too
			schedule(base + Time(i%3)*100)
		}
	}
	// Once the clock nears 2^36 ns, calendar events lie past the packed-key
	// range too; some tie with far events scheduled at the start.
	k.PostAt(keyMaxAt, func() {
		for i := 0; i < 12; i++ {
			schedule(base + Time(i%4)*100)
			schedule(base + calSpan + Time(i)*10)
		}
	})
	k.Run()
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].seq < want[j].seq
	})
	if len(got) != len(want) {
		t.Fatalf("%d events fired, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d is (at %d, seq %d), want (at %d, seq %d)", i, got[i].at, got[i].seq, want[i].at, want[i].seq)
		}
	}
	if k.seq <= keyMaxSeq || k.Now() <= keyMaxAt {
		t.Fatalf("seq %d and clock %d must both leave the packed-key range", k.seq, k.Now())
	}
}

// TestEventFitsSizeClass pins the Event layout: 64 bytes is a Go allocator
// size class, and one more word (for example next placed between the two
// bools) lands every At/After handle in the 80-byte class.
func TestEventFitsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got > 64 {
		t.Fatalf("sim.Event is %d bytes, want at most 64", got)
	}
}
