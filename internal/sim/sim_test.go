package sim

import (
	"math/rand"
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
// calendar event, counts them, and none fires — neither on a later Run nor
// when a spent At handle is cancelled again.
func TestShutdownBeforeFirstDispatch(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	k.PostAt(0, func() { fired++ })         // ring
	k.CallAt(0, func(any) { fired++ }, nil) // ring
	k.Post(10, func() { fired++ })          // calendar, pooled
	h := k.At(20, func() { fired++ })       // calendar, handle
	k.Call(30, func(any) { fired++ }, nil)  // calendar, pooled
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
	// the same timestamp created earlier sit in the calendar.  The global
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

// kernelQueueMix is the horizon mix of the 8.38M timed events a serial cold
// Table 1 campaign at the ci preset schedules: per mille of events due in
// each [lo, hi) range of nanoseconds ahead (the far 1.4% reach 1 ms; here
// they stop at 131 µs).  Same-instant events take the ring and are not in it.
var kernelQueueMix = []struct {
	permille int
	lo, hi   Duration
}{
	{45, 1, 256},
	{80, 256, 512},
	{263, 512, 1024},
	{163, 1024, 2048},
	{343, 2048, 4096},
	{44, 4096, 8192},
	{1, 8192, 16384},
	{47, 16384, 32768},
	{14, 32768, 131072},
}

// BenchmarkKernelQueue prices one timed event at the queue depth and horizon
// mix of a cold Table 1 campaign: 192 concurrent Post chains, each drawing
// its next delay from kernelQueueMix.  One op is one event scheduled and
// fired.
func BenchmarkKernelQueue(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	delays := make([]Duration, 4096)
	for i := range delays {
		r := rng.Intn(1000)
		for _, m := range kernelQueueMix {
			if r < m.permille {
				delays[i] = m.lo + Duration(rng.Int63n(int64(m.hi-m.lo)))
				break
			}
			r -= m.permille
		}
	}
	k := NewKernel(1)
	left, next := b.N, 0
	var fire func()
	fire = func() {
		if left > 0 {
			left--
			next++
			k.Post(delays[next&(len(delays)-1)], fire)
		}
	}
	for i := 0; i < 192; i++ {
		k.Post(delays[i], fire)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// TestInstantIdle pins the guard behind every inline zero-length compute
// resume: it holds exactly when no event is ordered at the current instant.
// A cancelled event due now still counts (the answer is conservative).  The
// case names say heap for the calendar and far heap alike.
func TestInstantIdle(t *testing.T) {
	noop := func() {}
	cases := []struct {
		name string
		// setup schedules the scenario, including probe, which samples
		// InstantIdle when it fires.
		setup func(k *Kernel, probe func())
		want  bool
	}{
		{"nothing pending", func(k *Kernel, probe func()) { k.At(5, probe) }, true},
		{"future heap event", func(k *Kernel, probe func()) {
			k.At(5, probe)
			k.At(9, noop)
		}, true},
		{"cancelled future heap event", func(k *Kernel, probe func()) {
			k.At(5, probe)
			k.At(9, noop).Cancel()
		}, true},
		{"same-instant ring event", func(k *Kernel, probe func()) {
			k.At(5, func() {
				k.Post(0, noop)
				probe()
			})
		}, false},
		{"heap event due now", func(k *Kernel, probe func()) {
			k.At(5, probe)
			k.At(5, noop)
		}, false},
		{"cancelled heap event due now", func(k *Kernel, probe func()) {
			k.At(5, probe)
			k.At(5, noop).Cancel()
		}, false},
		{"same-instant events already fired", func(k *Kernel, probe func()) {
			k.At(5, noop)
			k.At(5, func() { k.Post(0, probe) })
			k.At(6, noop)
		}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := NewKernel(1)
			probed := 0
			var idle bool
			c.setup(k, func() {
				probed++
				idle = k.InstantIdle()
			})
			k.Run()
			if probed != 1 {
				t.Fatalf("probe ran %d times, want 1", probed)
			}
			if idle != c.want {
				t.Fatalf("InstantIdle = %v, want %v", idle, c.want)
			}
		})
	}
	// Outside any dispatch the same rules apply at the current clock.
	k := NewKernel(1)
	if !k.InstantIdle() {
		t.Fatal("fresh kernel is not idle")
	}
	k.Post(0, noop)
	if k.InstantIdle() {
		t.Fatal("kernel with a ring event at now reports idle")
	}
}
