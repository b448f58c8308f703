package mpisim

import "github.com/hpcperf/switchprobe/internal/sim"

// This file holds the rank primitives and collectives a Program is written
// with.  Only the three leaf primitives (ComputeThen, WaitThen, WaitAllThen)
// suspend a rank: they store the continuation in resumeK and arrange the
// kernel event that resumes it, or — when the operation needs no wait — park
// the continuation in the trampoline slot.  Everything above them (SendThen,
// the collectives) is built from those three.  The rooted collectives and
// the alltoall keep their loop state in the rank's collFrame, so the
// collectives the campaigns run in every iteration allocate nothing.

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

// collFrame is the loop state of the binomial-tree and alltoall collectives.
// A rank runs one collective at a time, so one frame per rank, with its
// continuations bound once at launch (bind), serves every BcastThen,
// ReduceThen, AllreduceThen and AlltoallWindowedThen without allocating.
type collFrame struct {
	r *Rank
	// k is the running collective's continuation; allreduceK holds an
	// allreduce's continuation while its reduce half runs.
	k, allreduceK Cont
	// size is the payload size (per pair for the alltoall).
	size int
	// root, rel and mask are the binomial-tree state: the root, this rank's
	// position relative to it and the tree level being walked.
	root, rel, mask int
	// step, window and inFlight are the alltoall state: the next shift to
	// post, the bound on outstanding exchanges and the posted requests.
	step, window int
	inFlight     []*Request

	// The frame's continuations, bound once per rank.
	reduceFn, bcastRecvdFn, bcastSendFn, allreduceBcastFn, alltoallFn Cont
}

// bind points the frame at its rank and binds its continuations.
func (f *collFrame) bind(r *Rank) {
	f.r = r
	f.reduceFn = f.reduceStep
	f.bcastRecvdFn = f.bcastRecvd
	f.bcastSendFn = f.bcastSend
	f.allreduceBcastFn = f.allreduceBcast
	f.alltoallFn = f.alltoallStep
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
	f := &r.coll
	f.k, f.size, f.root = k, size, root
	f.rel = (r.rank - root + n) % n
	f.mask = 1
	for f.mask < n {
		if f.rel&f.mask != 0 {
			src := (f.rel - f.mask + root) % n
			r.RecvThen(src, r.collTag(f.mask), f.bcastRecvdFn)
			return
		}
		f.mask <<= 1
	}
	f.mask >>= 1
	f.bcastSend()
}

// bcastRecvd continues a broadcast once the parent's payload arrived.
func (f *collFrame) bcastRecvd() {
	f.mask >>= 1
	f.bcastSend()
}

// bcastSend walks the remaining masks downward, sending to each subtree
// child; it is re-entered after every completed send.
func (f *collFrame) bcastSend() {
	r := f.r
	n := r.Size()
	for f.mask > 0 {
		m := f.mask
		f.mask >>= 1
		if f.rel+m < n {
			dst := (f.rel + m + f.root) % n
			r.SendThen(dst, r.collTag(m), f.size, f.bcastSendFn)
			return
		}
	}
	r.next = f.k
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
	f := &r.coll
	f.k, f.size, f.root = k, size, root
	f.rel = (r.rank - root + n) % n
	f.mask = 1
	f.reduceStep()
}

// reduceStep receives from each child subtree in turn, then sends the
// combined payload to the parent; it is re-entered after every receive.
func (f *collFrame) reduceStep() {
	r := f.r
	n := r.Size()
	for f.mask < n {
		m := f.mask
		if f.rel&m == 0 {
			src := f.rel | m
			f.mask <<= 1
			if src < n {
				r.RecvThen((src+f.root)%n, r.collTag(m), f.reduceFn)
				return
			}
			continue
		}
		dst := ((f.rel &^ m) + f.root) % n
		r.SendThen(dst, r.collTag(m), f.size, f.k)
		return
	}
	r.next = f.k
}

// AllreduceThen combines size bytes across all ranks and distributes the
// result (a reduce to rank 0 followed by a broadcast), then continues with k.
func (r *Rank) AllreduceThen(size int, k Cont) {
	r.beginCollective()
	f := &r.coll
	// The broadcast half reads size from the frame, which a no-op reduce
	// (one rank, or nothing to send) leaves unset.
	f.size, f.allreduceK = size, k
	r.reduceNoSeqThen(0, size, f.allreduceBcastFn)
}

// allreduceBcast is an allreduce's second half, run once its reduce is done.
func (f *collFrame) allreduceBcast() {
	f.r.collSeq++
	f.r.bcastNoSeqThen(0, f.size, f.allreduceK)
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
	f := &r.coll
	f.k, f.size, f.window, f.step = k, sizePerRank, window, 1
	f.alltoallStep()
}

// alltoallStep posts shifts until the window is full and waits for them;
// it is re-entered after every completed window.  WaitAllThen copies the
// requests, so the next window reuses the inFlight buffer.
func (f *collFrame) alltoallStep() {
	r := f.r
	n := r.Size()
	f.inFlight = f.inFlight[:0]
	for f.step < n {
		dst := (r.rank + f.step) % n
		src := (r.rank - f.step + n) % n
		f.inFlight = append(f.inFlight, r.Irecv(src, r.collTag(f.step)), r.Isend(dst, r.collTag(f.step), f.size))
		f.step++
		if len(f.inFlight) >= 2*f.window {
			r.WaitAllThen(f.alltoallFn, f.inFlight...)
			return
		}
	}
	if len(f.inFlight) > 0 {
		r.WaitAllThen(f.k, f.inFlight...)
		return
	}
	r.next = f.k
}
