package main

import (
	"sync"
	"syscall"
	"time"
)

// The speed probe is a fixed piece of the benchmark's own code, timed next
// to the campaign iterations.  On a shared machine the campaigns' speed
// drifts by tens of percent over minutes as other tenants load the CPUs, and
// their CPU time drifts with it, so neither is steady from run to run.  The
// probe slows down with them: a campaign time divided by the probe time just
// before it is what the end-to-end metrics report.  The probe belongs to the
// benchmark, not the program, so a change to the program moves only the
// campaign side of the ratio.  A change to the probe moves every ratio: it
// is a change to the benchmark, and needs a new baseline.

// probeEvents is how many events one probe fires on each goroutine, 40 to
// 55 ms on the shared 2-vCPU machine the benchmark was sized on.
const probeEvents = 300_000

// probeEvery is how often a run times the probe: before an iteration, once
// this long has passed since the last probe.  That is before every cold
// iteration, and about once a second in warm-replay.
const probeEvery = time.Second

// probeSink keeps the probe's work from being optimized away.
var probeSink uint64

// speedProbe runs probeLoop on procs goroutines at once and returns the wall
// and process CPU time it took.
func speedProbe(procs int) (wallS, cpuS float64) {
	results := make([]uint64, procs)
	cpu0 := processCPUSeconds()
	start := time.Now()
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = probeLoop()
		}()
	}
	wg.Wait()
	wallS = time.Since(start).Seconds()
	cpuS = processCPUSeconds() - cpu0
	for _, r := range results {
		probeSink += r
	}
	return wallS, cpuS
}

// probeLoop is a miniature discrete-event loop, the shape of the simulator's
// hot path: a binary heap of 4096 timed events, each of which bumps a
// counter in a map and schedules its successor a pseudo-random delay later.
// It allocates only before the loop.
func probeLoop() uint64 {
	const n = 4096
	type event struct{ at, seq uint64 }
	less := func(a, b event) bool { return a.at < b.at || (a.at == b.at && a.seq < b.seq) }
	lcg := func(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }
	h := make([]event, n)
	counts := make(map[uint64]uint32, n)
	x := uint64(1)
	for i := range h {
		x = lcg(x)
		h[i] = event{at: x >> 52, seq: uint64(i)}
		counts[uint64(i)] = 0
	}
	down := func(i int) {
		for {
			m := 2*i + 1
			if m >= n {
				return
			}
			if r := m + 1; r < n && less(h[r], h[m]) {
				m = r
			}
			if !less(h[m], h[i]) {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		down(i)
	}
	for seq := uint64(n); seq < n+probeEvents; seq++ {
		now := h[0].at
		counts[h[0].seq%n]++
		x = lcg(x)
		h[0] = event{at: now + 1 + x>>54, seq: seq}
		down(0)
	}
	return x + uint64(counts[x%n])
}

// processCPUSeconds returns the process's user plus system CPU time.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail for the calling process.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
