package sim

import (
	"testing"
	"testing/quick"
)

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.000us"},
		{1500 * Microsecond, "1.500ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("Duration(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(1000)
	if got := t0.Add(500); got != Time(1500) {
		t.Fatalf("Add: got %d want 1500", got)
	}
	if got := Time(1500).Sub(t0); got != Duration(500) {
		t.Fatalf("Sub: got %d want 500", got)
	}
	if s := Time(2 * Second).Seconds(); s != 2.0 {
		t.Fatalf("Seconds: got %v want 2", s)
	}
}

func TestDurationConversions(t *testing.T) {
	if d := DurationOfSeconds(0.5); d != 500*Millisecond {
		t.Fatalf("DurationOfSeconds(0.5) = %v", d)
	}
	if d := DurationOfMicros(2.5); d != 2500 {
		t.Fatalf("DurationOfMicros(2.5) = %v", d)
	}
	if got := (1500 * Microsecond).Micros(); got != 1500 {
		t.Fatalf("Micros: got %v", got)
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Fatalf("Seconds: got %v", got)
	}
}

func TestEventOrdering(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.At(30, func() { order = append(order, 3) })
	k.At(10, func() { order = append(order, 1) })
	k.At(20, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if k.Now() != 30 {
		t.Fatalf("final time = %d, want 30", k.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEventCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	e := k.At(10, func() { fired = true })
	e.Cancel()
	k.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if k.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", k.Pending())
	}
}

func TestSchedulingInPastClamps(t *testing.T) {
	k := NewKernel(1)
	var at Time
	k.At(100, func() {
		k.At(50, func() { at = k.Now() }) // in the past, should clamp to now
	})
	k.Run()
	if at != 100 {
		t.Fatalf("past event ran at %d, want 100", at)
	}
}

func TestAfterNegativeClamps(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.After(-5, func() { ran = true })
	k.Run()
	if !ran {
		t.Fatal("After(-5) never ran")
	}
	if k.Now() != 0 {
		t.Fatalf("now = %d, want 0", k.Now())
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	count := 0
	k.At(10, func() { count++ })
	k.At(200, func() { count++ })
	k.RunUntil(100)
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if k.Now() != 100 {
		t.Fatalf("now = %d, want 100", k.Now())
	}
	k.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestRunFor(t *testing.T) {
	k := NewKernel(1)
	k.RunFor(500)
	if k.Now() != 500 {
		t.Fatalf("now = %d, want 500", k.Now())
	}
	k.RunFor(500)
	if k.Now() != 1000 {
		t.Fatalf("now = %d, want 1000", k.Now())
	}
}

// TestShutdownBeforeFirstDispatch: Shutdown cancels every pending ring and
// heap event, counts them, and none fires — neither on a later Run nor when a
// spent At handle is cancelled again.
func TestShutdownBeforeFirstDispatch(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	k.PostAt(0, func() { fired++ })         // ring
	k.CallAt(0, func(any) { fired++ }, nil) // ring
	k.Post(10, func() { fired++ })          // heap, pooled
	h := k.At(20, func() { fired++ })       // heap, handle
	k.Call(30, func(any) { fired++ }, nil)  // heap, pooled
	k.Shutdown()
	if got := k.Stats().EventsCancelled; got != 5 {
		t.Fatalf("cancelled = %d, want 5", got)
	}
	if k.Pending() != 0 {
		t.Fatalf("pending after shutdown = %d, want 0", k.Pending())
	}
	h.Cancel()
	if end := k.Run(); end != 0 || fired != 0 {
		t.Fatalf("after shutdown: clock %d and %d events fired, want 0 and 0", end, fired)
	}
	st := k.Stats()
	if st.EventsFired != 0 || st.EventsCancelled != 5 {
		t.Fatalf("stats after shutdown = %+v, want 0 fired and 5 cancelled", st)
	}
	// The kernel stays usable: events posted after Shutdown run normally, on
	// pooled structs the cancellation returned to the free list.
	k.Post(5, func() { fired++ })
	k.Run()
	if fired != 1 || k.Stats().PoolReuses == 0 {
		t.Fatalf("post-shutdown event: fired = %d, pool reuses = %d; want 1 and > 0", fired, k.Stats().PoolReuses)
	}
}

func TestDeterministicRandStreams(t *testing.T) {
	a1 := NewKernel(42).NewRand("net")
	a2 := NewKernel(42).NewRand("net")
	b := NewKernel(42).NewRand("other")
	same, diff := true, false
	for i := 0; i < 32; i++ {
		x, y, z := a1.Int63(), a2.Int63(), b.Int63()
		if x != y {
			same = false
		}
		if x != z {
			diff = true
		}
	}
	if !same {
		t.Fatal("same (seed, name) produced different streams")
	}
	if !diff {
		t.Fatal("different names produced identical streams")
	}
}

func TestPendingCount(t *testing.T) {
	k := NewKernel(1)
	e1 := k.At(10, func() {})
	k.At(20, func() {})
	if k.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", k.Pending())
	}
	e1.Cancel()
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
}

// Property: for any set of event offsets, events fire in nondecreasing time
// order and the final clock equals the maximum offset.
func TestEventOrderProperty(t *testing.T) {
	prop := func(offsets []uint16) bool {
		if len(offsets) == 0 {
			return true
		}
		k := NewKernel(3)
		var fired []Time
		var max Time
		for _, o := range offsets {
			at := Time(o)
			if at > max {
				max = at
			}
			k.At(at, func() { fired = append(fired, k.Now()) })
		}
		k.Run()
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return k.Now() == max
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a chain of events, each posting the next after a step of the
// sequence, accumulates the steps exactly.
func TestSleepAccumulationProperty(t *testing.T) {
	prop := func(steps []uint16) bool {
		k := NewKernel(5)
		var total Time
		var end Time
		i := 0
		var next func()
		next = func() {
			if i == len(steps) {
				end = k.Now()
				return
			}
			s := steps[i]
			i++
			total += Time(s)
			k.Post(Duration(s), next)
		}
		k.PostAt(0, next)
		k.Run()
		return end == total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEventScheduling(b *testing.B) {
	k := NewKernel(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.At(Time(i), func() {})
		k.step(-1)
	}
}

// --- hot-path and shutdown regression tests ---------------------------------

func TestEventPoolDoesNotResurrectCancelledEvents(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	e := k.At(10, func() { fired++ })
	e.Cancel()
	k.Post(20, func() { fired += 10 })
	k.Run()
	if fired != 10 {
		t.Fatalf("fired = %d, want 10 (cancelled handle event must not fire)", fired)
	}
	// A late Cancel on the spent handle must stay a no-op even though the
	// kernel recycles event structs: handle-bearing events are never pooled.
	e.Cancel()
	k.Post(5, func() { fired += 100 })
	k.Run()
	if fired != 110 {
		t.Fatalf("fired = %d, want 110 (late Cancel corrupted a pooled event)", fired)
	}
}

func TestPooledEventsFireExactlyOnceAcrossReuse(t *testing.T) {
	k := NewKernel(1)
	count := 0
	for round := 0; round < 5; round++ {
		for i := 0; i < 50; i++ {
			k.Post(Duration(i), func() { count++ })
		}
		k.Run()
	}
	if count != 250 {
		t.Fatalf("count = %d, want 250", count)
	}
	if k.Stats().PoolReuses == 0 {
		t.Fatal("expected pooled event reuse across rounds")
	}
}

func TestSameTimeSchedulingPreservesFIFO(t *testing.T) {
	// Events created for the current instant take the FIFO ring; events for
	// the same timestamp created earlier sit in the heap.  The global
	// (time, seq) order must hold across both structures.
	k := NewKernel(1)
	var order []int
	k.At(5, func() { order = append(order, 1) })
	k.At(5, func() {
		order = append(order, 2)
		k.At(5, func() { order = append(order, 4) })
		k.PostAt(5, func() { order = append(order, 5) })
		k.Call(0, func(a any) { order = append(order, a.(int)) }, 6)
	})
	k.At(5, func() { order = append(order, 3) })
	k.Run()
	want := []int{1, 2, 3, 4, 5, 6}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if k.Stats().FastPathEvents < 3 {
		t.Fatalf("fast-path events = %d, want >= 3", k.Stats().FastPathEvents)
	}
}

func TestStatsCounters(t *testing.T) {
	k := NewKernel(1)
	e := k.At(10, func() {})
	e.Cancel()
	k.Post(5, func() {})
	// A two-step chain: a same-instant start event (ring) posting a follow-up
	// one tick later, which reuses the start event's recycled struct.
	k.PostAt(0, func() { k.Post(1, func() {}) })
	k.Run()
	want := Stats{EventsScheduled: 4, EventsFired: 3, EventsCancelled: 1, PoolReuses: 1, FastPathEvents: 1}
	if st := k.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

func BenchmarkPooledEventScheduling(b *testing.B) {
	k := NewKernel(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.PostAt(Time(i), fn)
		k.step(-1)
	}
}

// fakeLane is a minimal AuxQueue: deferred entries carrying real sequence
// numbers, executed through the kernel's drain hook.
type fakeLane struct {
	k       *Kernel
	entries []struct {
		at  Time
		seq uint64
		fn  func(at Time)
	}
	drained int
}

func (f *fakeLane) add(at Time, fn func(Time)) {
	f.entries = append(f.entries, struct {
		at  Time
		seq uint64
		fn  func(at Time)
	}{at, f.k.AllocSeq(), fn})
}

func (f *fakeLane) DrainBefore(at Time, seq uint64, deadline Time) bool {
	ran := false
	for {
		// Executing an entry may schedule a real kernel event ordered before
		// the remaining entries; tighten the limit like a real lane must.
		if kat, kseq, ok := f.k.NextEventKey(); ok && (kat < at || (kat == at && kseq < seq)) {
			at, seq = kat, kseq
		}
		best := -1
		for i, e := range f.entries {
			if e.at > deadline || !(e.at < at || (e.at == at && e.seq < seq)) {
				continue
			}
			if best < 0 || e.at < f.entries[best].at || (e.at == f.entries[best].at && e.seq < f.entries[best].seq) {
				best = i
			}
		}
		if best < 0 {
			return ran
		}
		e := f.entries[best]
		f.entries = append(f.entries[:best], f.entries[best+1:]...)
		f.k.LaneDispatch(e.at, e.seq)
		f.k.NoteElided(1)
		f.drained++
		ran = true
		if e.fn != nil {
			e.fn(e.at)
		}
	}
}

func TestAuxQueueDrainOrdering(t *testing.T) {
	k := NewKernel(1)
	lane := &fakeLane{k: k}
	if err := k.SetAux(lane); err != nil {
		t.Fatal(err)
	}
	var order []string
	k.At(10, func() { order = append(order, "evt10") })
	k.At(30, func() { order = append(order, "evt30") })
	// Lane entries interleaved between kernel events; one at 20 schedules a
	// real event at 25, which must run before the lane entry at 27.
	lane.add(5, func(at Time) {
		order = append(order, "lane5")
		if k.Now() != 5 {
			t.Errorf("lane entry at 5 saw clock %d", int64(k.Now()))
		}
	})
	lane.add(20, func(at Time) {
		order = append(order, "lane20")
		k.At(25, func() { order = append(order, "evt25") })
	})
	lane.add(27, func(at Time) { order = append(order, "lane27") })
	k.Run()
	want := "lane5,evt10,lane20,evt25,lane27,evt30"
	got := ""
	for i, s := range order {
		if i > 0 {
			got += ","
		}
		got += s
	}
	if got != want {
		t.Fatalf("drain order = %s, want %s", got, want)
	}
	if st := k.Stats(); st.EventsElided != 3 {
		t.Fatalf("EventsElided = %d, want 3", st.EventsElided)
	}
	if k.Now() != 30 {
		t.Fatalf("final clock %d, want 30", int64(k.Now()))
	}
}

func TestAuxQueueSameInstantTieBreak(t *testing.T) {
	k := NewKernel(1)
	lane := &fakeLane{k: k}
	if err := k.SetAux(lane); err != nil {
		t.Fatal(err)
	}
	var order []string
	// Allocation order fixes the tie-break at t=10: kernel event first (its
	// seq is allocated first), then the lane entry.
	k.At(10, func() { order = append(order, "evt") })
	lane.add(10, func(Time) { order = append(order, "lane") })
	k.Run()
	if len(order) != 2 || order[0] != "evt" || order[1] != "lane" {
		t.Fatalf("tie-break order = %v, want [evt lane]", order)
	}

	k2 := NewKernel(1)
	lane2 := &fakeLane{k: k2}
	if err := k2.SetAux(lane2); err != nil {
		t.Fatal(err)
	}
	order = nil
	lane2.add(10, func(Time) { order = append(order, "lane") })
	k2.At(10, func() { order = append(order, "evt") })
	k2.Run()
	if len(order) != 2 || order[0] != "lane" || order[1] != "evt" {
		t.Fatalf("tie-break order = %v, want [lane evt]", order)
	}
}

func TestAuxQueueRunUntilDeadline(t *testing.T) {
	k := NewKernel(1)
	lane := &fakeLane{k: k}
	if err := k.SetAux(lane); err != nil {
		t.Fatal(err)
	}
	var ran []int64
	lane.add(10, func(at Time) { ran = append(ran, int64(at)) })
	lane.add(50, func(at Time) { ran = append(ran, int64(at)) })
	lane.add(90, func(at Time) { ran = append(ran, int64(at)) })
	k.RunUntil(50)
	if len(ran) != 2 || ran[0] != 10 || ran[1] != 50 {
		t.Fatalf("in-deadline lane entries = %v, want [10 50]", ran)
	}
	if k.Now() != 50 {
		t.Fatalf("clock after RunUntil = %d, want 50", int64(k.Now()))
	}
	// A later drive picks up the remaining entry.
	k.RunUntil(100)
	if len(ran) != 3 || ran[2] != 90 {
		t.Fatalf("second window entries = %v, want trailing 90", ran)
	}
}

func TestSetAuxExclusive(t *testing.T) {
	k := NewKernel(1)
	a, b := &fakeLane{k: k}, &fakeLane{k: k}
	if err := k.SetAux(a); err != nil {
		t.Fatal(err)
	}
	if err := k.SetAux(b); err == nil {
		t.Fatal("second SetAux should fail while the first lane is attached")
	}
	if err := k.SetAux(nil); err != nil {
		t.Fatal(err)
	}
	if err := k.SetAux(b); err != nil {
		t.Fatalf("SetAux after detach: %v", err)
	}
}

func TestAllocSeqInterleavesWithEvents(t *testing.T) {
	k := NewKernel(1)
	s1 := k.AllocSeq()
	k.Post(5, func() {})
	s2 := k.AllocSeq()
	if !(s1 < s2) {
		t.Fatalf("AllocSeq not monotone: %d then %d", s1, s2)
	}
	at, seq, ok := k.NextEventKey()
	if !ok || at != 5 || !(seq > s1 && seq < s2) {
		t.Fatalf("NextEventKey = (%d, %d, %v), want event at 5 between %d and %d", int64(at), seq, ok, s1, s2)
	}
	if st := k.Stats(); st.EventsScheduled != 3 {
		t.Fatalf("EventsScheduled = %d, want 3 (two allocations + one post)", st.EventsScheduled)
	}
}

func TestPostGenChangesOnSchedule(t *testing.T) {
	k := NewKernel(1)
	g0 := k.PostGen()
	_ = k.AllocSeq() // lane-side allocation: no real event, gen unchanged
	if k.PostGen() != g0 {
		t.Fatal("AllocSeq must not bump PostGen")
	}
	k.Post(1, func() {})
	if k.PostGen() == g0 {
		t.Fatal("scheduling a real event must bump PostGen")
	}
}

func TestCurrentSeqTracksDispatch(t *testing.T) {
	k := NewKernel(1)
	var inside uint64
	k.At(3, func() { inside = k.CurrentSeq() })
	k.Run()
	if inside != 0 {
		// The first scheduled event has seq 0; CurrentSeq must report it.
		t.Fatalf("CurrentSeq inside first event = %d, want 0", inside)
	}
}
