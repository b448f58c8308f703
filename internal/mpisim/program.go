package mpisim

import "github.com/hpcperf/switchprobe/internal/sim"

// This file holds the rank primitives and collectives a Program is written
// with.  Only the three leaf primitives (ComputeThen, WaitThen, WaitAllThen)
// suspend a rank: they store the continuation in resumeK and arrange the
// kernel event that resumes it, or — when the operation needs no wait — park
// the continuation in the trampoline slot.  Everything above them (SendThen,
// the collectives) is built from those three.

// Continue parks k as the rank's next trampoline step, running it after the
// caller returns with a flat stack.  Structural no-op branches of a Program
// (an empty exchange, a skipped phase) use it instead of invoking k directly,
// which would grow the stack by one frame per consecutive no-op.
func (r *Rank) Continue(k Cont) { r.next = k }

// ComputeThen occupies the rank's core for d of virtual time, then continues
// with k.  A zero-length compute with nothing else ordered at the current
// instant resumes inline (see sim.Kernel.InstantIdle).
func (r *Rank) ComputeThen(d sim.Duration, k Cont) {
	if d < 0 {
		d = 0
	}
	kern := r.w.m.Kernel()
	if d == 0 && kern.InstantIdle() {
		kern.NoteFastResume()
		r.next = k
		return
	}
	// One pooled kernel event at now+d resumes the rank.
	kern.PostAt(kern.Now().Add(d), r.stepFn)
	r.resumeK = k
}

// SleepThen idles the rank for d of virtual time, then continues with k
// (identical to ComputeThen in the model; the distinct name mirrors usleep
// calls in the paper's benchmarks).
func (r *Rank) SleepThen(d sim.Duration, k Cont) { r.ComputeThen(d, k) }

// ComputeCyclesThen occupies the rank's core for the given number of CPU
// cycles, then continues with k.
func (r *Rank) ComputeCyclesThen(cycles float64, k Cont) {
	r.ComputeThen(r.w.m.CyclesToDuration(cycles), k)
}

// WaitThen waits for req to complete, then continues with k.  It recycles
// the request, so a caller that needs a receive's Status reads it once Done
// reports true, before the wait.  A wait on an already-complete request
// continues inline without parking (counted in sim.Stats.ProcFastResumes).
func (r *Rank) WaitThen(req *Request, k Cont) {
	if req.done {
		r.w.m.Kernel().NoteFastResume()
		r.recycleRequest(req)
		r.next = k
		return
	}
	req.waiter = r
	r.waitReqs = append(r.waitReqs[:0], req)
	r.resumeK = k
}

// WaitAllThen waits for every request to complete — waking the rank once,
// when the last outstanding request finishes — then continues with k.  The
// requests are recycled before k runs.  A wait with zero pending requests
// continues inline without parking (counted in sim.Stats.ProcFastResumes).
func (r *Rank) WaitAllThen(k Cont, reqs ...*Request) {
	c := &r.wc
	c.remaining = 0
	c.rank = r
	for _, req := range reqs {
		if !req.done {
			c.remaining++
			req.counter = c
		}
	}
	if c.remaining == 0 {
		c.rank = nil
		r.w.m.Kernel().NoteFastResume()
		for _, req := range reqs {
			r.recycleRequest(req)
		}
		r.next = k
		return
	}
	// waitReqs copies the slice: callers may reuse their backing array (the
	// windowed alltoall does) before the wake fires.
	r.waitReqs = append(r.waitReqs[:0], reqs...)
	r.resumeK = k
}

// SendThen is a blocking send (Isend + wait), then k.
func (r *Rank) SendThen(dst, tag, size int, k Cont) { r.WaitThen(r.Isend(dst, tag, size), k) }

// RecvThen is a blocking receive (Irecv + wait), then k; the receive status
// is discarded.
func (r *Rank) RecvThen(src, tag int, k Cont) { r.WaitThen(r.Irecv(src, tag), k) }

// SendRecvThen exchanges messages with two peers — sends size bytes to dst
// and receives from src, overlapping both transfers — then continues with k.
func (r *Rank) SendRecvThen(dst, sendTag, size, src, recvTag int, k Cont) {
	sreq := r.Isend(dst, sendTag, size)
	rreq := r.Irecv(src, recvTag)
	// Receive first, then the send.
	r.WaitThen(rreq, func() { r.WaitThen(sreq, k) })
}

// --- Collectives -----------------------------------------------------------

// Tag space reserved for collective operations; application tags should stay
// below collTagBase.
const (
	collTagBase   = 1 << 24
	collTagStride = 1 << 12
)

// collTag derives the tag for step of the current collective invocation.
func (r *Rank) collTag(step int) int {
	return collTagBase + int(r.collSeq)*collTagStride + step
}

// beginCollective advances the collective sequence number (identical on every
// rank because collectives are called in the same order by all ranks).
func (r *Rank) beginCollective() {
	r.collSeq++
	r.w.collectives++
}

// BarrierThen synchronizes all ranks using the dissemination algorithm, then
// continues with k.
func (r *Rank) BarrierThen(k Cont) {
	r.beginCollective()
	n := r.Size()
	if n == 1 {
		r.next = k
		return
	}
	const token = 8
	step := 0
	dist := 1
	var loop Cont
	loop = func() {
		if dist >= n {
			r.next = k
			return
		}
		dst := (r.rank + dist) % n
		src := (r.rank - dist + n) % n
		sreq := r.Isend(dst, r.collTag(step), token)
		rreq := r.Irecv(src, r.collTag(step))
		step++
		dist *= 2
		r.WaitAllThen(loop, sreq, rreq)
	}
	r.next = loop
}

// BcastThen broadcasts size bytes from root to every rank along a binomial
// tree, then continues with k.
func (r *Rank) BcastThen(root, size int, k Cont) {
	r.beginCollective()
	r.bcastNoSeqThen(root, size, k)
}

func (r *Rank) bcastNoSeqThen(root, size int, k Cont) {
	n := r.Size()
	if n == 1 || size <= 0 {
		r.next = k
		return
	}
	rel := (r.rank - root + n) % n
	mask := 1
	// send walks the remaining masks downward, sending to each subtree child;
	// it is re-entered after every completed send.
	var send Cont
	send = func() {
		for mask > 0 {
			m := mask
			mask >>= 1
			if rel+m < n {
				dst := (rel + m + root) % n
				r.SendThen(dst, r.collTag(m), size, send)
				return
			}
		}
		r.next = k
	}
	for mask < n {
		if rel&mask != 0 {
			src := (rel - mask + root) % n
			tag := r.collTag(mask)
			r.RecvThen(src, tag, func() {
				mask >>= 1
				send()
			})
			return
		}
		mask <<= 1
	}
	mask >>= 1
	send()
}

// ReduceThen combines size bytes from every rank onto root along a binomial
// tree, then continues with k.
func (r *Rank) ReduceThen(root, size int, k Cont) {
	r.beginCollective()
	r.reduceNoSeqThen(root, size, k)
}

func (r *Rank) reduceNoSeqThen(root, size int, k Cont) {
	n := r.Size()
	if n == 1 || size <= 0 {
		r.next = k
		return
	}
	rel := (r.rank - root + n) % n
	mask := 1
	var loop Cont
	loop = func() {
		for mask < n {
			m := mask
			if rel&m == 0 {
				src := rel | m
				mask <<= 1
				if src < n {
					r.RecvThen((src+root)%n, r.collTag(m), loop)
					return
				}
				continue
			}
			dst := ((rel &^ m) + root) % n
			r.SendThen(dst, r.collTag(m), size, k)
			return
		}
		r.next = k
	}
	loop()
}

// AllreduceThen combines size bytes across all ranks and distributes the
// result (a reduce to rank 0 followed by a broadcast), then continues with k.
func (r *Rank) AllreduceThen(size int, k Cont) {
	r.beginCollective()
	r.reduceNoSeqThen(0, size, func() {
		r.collSeq++
		r.bcastNoSeqThen(0, size, k)
	})
}

// AllgatherThen gathers sizePerRank bytes from every rank on every rank
// using the ring algorithm (n-1 steps), then continues with k.
func (r *Rank) AllgatherThen(sizePerRank int, k Cont) {
	r.beginCollective()
	n := r.Size()
	if n == 1 || sizePerRank <= 0 {
		r.next = k
		return
	}
	right := (r.rank + 1) % n
	left := (r.rank - 1 + n) % n
	step := 0
	var loop Cont
	loop = func() {
		if step >= n-1 {
			r.next = k
			return
		}
		sreq := r.Isend(right, r.collTag(step), sizePerRank)
		rreq := r.Irecv(left, r.collTag(step))
		step++
		r.WaitAllThen(loop, sreq, rreq)
	}
	loop()
}

// AlltoallThen exchanges sizePerRank bytes between every pair of ranks using
// the windowed linear-shift pairwise algorithm with the default window of two
// outstanding exchanges, the behaviour of common MPI implementations for all
// but the shortest messages, then continues with k.  The limited window makes
// the collective sensitive to switch latency, which is the behaviour the
// paper observes for the FFT-based applications.
func (r *Rank) AlltoallThen(sizePerRank int, k Cont) { r.AlltoallWindowedThen(sizePerRank, 2, k) }

// AlltoallWindowedThen is AlltoallThen with an explicit bound on the number
// of outstanding pairwise exchanges: window 1 is the fully step-synchronous
// pairwise algorithm (most latency sensitive), window n-1 posts every
// exchange at once (purely bandwidth limited).
func (r *Rank) AlltoallWindowedThen(sizePerRank, window int, k Cont) {
	r.beginCollective()
	n := r.Size()
	if n == 1 || sizePerRank <= 0 {
		r.next = k
		return
	}
	if window < 1 {
		window = 1
	}
	var inFlight []*Request
	step := 1
	var loop Cont
	loop = func() {
		inFlight = inFlight[:0]
		for step < n {
			dst := (r.rank + step) % n
			src := (r.rank - step + n) % n
			inFlight = append(inFlight, r.Irecv(src, r.collTag(step)), r.Isend(dst, r.collTag(step), sizePerRank))
			step++
			if len(inFlight) >= 2*window {
				r.WaitAllThen(loop, inFlight...)
				return
			}
		}
		if len(inFlight) > 0 {
			r.WaitAllThen(k, inFlight...)
			return
		}
		r.next = k
	}
	loop()
}
