// Package mpisim is a message-passing runtime (an MPI work-alike) running on
// the simulated cluster.  It provides the primitives the paper's benchmarks
// and applications are written against: non-blocking point-to-point sends and
// receives with eager and rendezvous protocols, waits, and the common
// collectives (barrier, broadcast, reduce, allreduce, allgather, alltoall).
//
// Rank bodies are continuation-passing Programs (World.LaunchProgram) that
// run inline on the kernel goroutine as ordinary kernel events: an operation
// that must wait stores the rest of the program and a pooled kernel event
// resumes it, so ranks cost no goroutines and no channel handoffs.
// Inter-node messages travel through the netsim switch (and therefore contend
// with every other job on the machine), while intra-node messages use a
// shared-memory path that bypasses the switch.
package mpisim

import (
	"fmt"

	"github.com/hpcperf/switchprobe/internal/cluster"
	"github.com/hpcperf/switchprobe/internal/netsim"
	"github.com/hpcperf/switchprobe/internal/sim"
)

// AnySource matches a receive against any sender rank.
const AnySource = -1

// AnyTag matches a receive against any message tag.
const AnyTag = -2

// Config tunes the runtime's transfer protocols.
type Config struct {
	// EagerThreshold is the largest message size (bytes) sent eagerly;
	// larger messages use a rendezvous handshake.
	EagerThreshold int
	// ControlBytes is the wire size of RTS/CTS control messages.
	ControlBytes int
}

// DefaultConfig returns the production defaults (16 KiB eager threshold,
// 64-byte control messages).
func DefaultConfig() Config {
	return Config{EagerThreshold: 16 * 1024, ControlBytes: 64}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.EagerThreshold < 0 {
		return fmt.Errorf("mpisim: negative eager threshold %d", c.EagerThreshold)
	}
	if c.ControlBytes <= 0 {
		return fmt.Errorf("mpisim: non-positive control message size %d", c.ControlBytes)
	}
	return nil
}

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Size   int
}

// Request is the handle of a non-blocking operation.  Requests are pooled
// per rank: WaitThen and WaitAllThen recycle every request passed to them
// before their continuation runs, so a request must not be touched after it
// has been waited on (read Status once Done reports true, before the wait),
// and the same request must not be passed to a wait twice.
type Request struct {
	done    bool
	status  Status
	waiter  *Rank
	counter *waitCounter
	// src/tag are the matching pattern of a posted receive, embedded here so
	// posting a receive costs one allocation, not two.
	src, tag int
}

// waitCounter batches the completions of a whole set of requests into a
// single wake: WaitAllThen charges every still-pending request to the rank's
// counter, and only the completion that drops it to zero wakes the rank.
// A collective step waiting on 2·window exchanges therefore wakes the kernel
// once, not once per request.  Each rank owns one reusable counter (a rank
// can only wait on one batch at a time), so waiting allocates nothing.
type waitCounter struct {
	remaining int
	rank      *Rank
}

// Done reports whether the operation completed.
func (r *Request) Done() bool { return r.done }

// Status returns the receive status; meaningful only after completion of a
// receive request.
func (r *Request) Status() Status { return r.status }

func (r *Request) complete(st Status) {
	if r.done {
		return
	}
	r.done = true
	r.status = st
	if r.waiter != nil {
		r.waiter.wakeWait()
	}
	if c := r.counter; c != nil {
		r.counter = nil
		c.remaining--
		if c.remaining == 0 && c.rank != nil {
			c.rank.wakeWait()
		}
	}
}

// message kinds exchanged between ranks.
type msgKind int

const (
	kindEager msgKind = iota
	kindRTS
	kindCTS
)

// envelope carries the metadata of a point-to-point message.
type envelope struct {
	src, dst int // ranks
	tag      int
	size     int // application payload size
	kind     msgKind
	seq      int64 // sender-side id pairing RTS/CTS/data
}

// rendezvousState links the two requests of an in-flight rendezvous
// transfer.  Pooled per world.
type rendezvousState struct {
	env     envelope
	sendReq *Request
	recvReq *Request
}

// World is one message-passing job: a set of ranks placed on the machine.
type World struct {
	m    *cluster.Machine
	job  *cluster.Job
	cfg  Config
	name string

	nodeOf []int
	ranks  []*Rank

	seq        int64
	rendezvous map[int64]*rendezvousState

	// Free lists and pre-bound callbacks for the message hot path: every
	// network or intra-node completion is scheduled through one of these with
	// a pooled envelope (or rendezvous state) as argument, so the runtime's
	// steady-state messaging allocates neither closures nor envelopes.
	envFree      []*envelope
	rvFree       []*rendezvousState
	arriveNetFn  func(sim.Time, any)
	arriveKernFn func(any)
	rvDoneNetFn  func(sim.Time, any)
	rvDoneKernFn func(any)

	launched    bool
	finished    int
	completedAt sim.Time

	// Statistics.
	messagesSent int64
	bytesSent    int64
	collectives  int64
}

// NewWorld creates a message-passing world for job on machine m.
func NewWorld(m *cluster.Machine, job *cluster.Job, cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if job == nil || job.Size() == 0 {
		return nil, fmt.Errorf("mpisim: job is empty")
	}
	w := &World{
		m:          m,
		job:        job,
		cfg:        cfg,
		name:       job.Name,
		nodeOf:     job.NodeOf(),
		rendezvous: make(map[int64]*rendezvousState),
	}
	for i := 0; i < job.Size(); i++ {
		w.ranks = append(w.ranks, &Rank{w: w, rank: i})
	}
	w.arriveNetFn = func(_ sim.Time, a any) { w.arriveEnv(a.(*envelope)) }
	w.arriveKernFn = func(a any) { w.arriveEnv(a.(*envelope)) }
	w.rvDoneNetFn = func(_ sim.Time, a any) { w.rendezvousDone(a.(*rendezvousState)) }
	w.rvDoneKernFn = func(a any) { w.rendezvousDone(a.(*rendezvousState)) }
	return w, nil
}

// getEnv serves a pooled envelope holding env's contents.
func (w *World) getEnv(env envelope) *envelope {
	if l := len(w.envFree); l > 0 {
		e := w.envFree[l-1]
		w.envFree = w.envFree[:l-1]
		*e = env
		return e
	}
	e := new(envelope)
	*e = env
	return e
}

// arriveEnv delivers a pooled envelope and recycles it.
func (w *World) arriveEnv(e *envelope) {
	env := *e
	w.envFree = append(w.envFree, e)
	w.arrive(env)
}

// getRendezvous serves a pooled rendezvous state.
func (w *World) getRendezvous(env envelope, sendReq *Request) *rendezvousState {
	var st *rendezvousState
	if l := len(w.rvFree); l > 0 {
		st = w.rvFree[l-1]
		w.rvFree = w.rvFree[:l-1]
	} else {
		st = new(rendezvousState)
	}
	st.env = env
	st.sendReq = sendReq
	st.recvReq = nil
	return st
}

// MustNewWorld is NewWorld that panics on error.
func MustNewWorld(m *cluster.Machine, job *cluster.Job, cfg Config) *World {
	w, err := NewWorld(m, job, cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Name returns the job name (used as the traffic class on the network).
func (w *World) Name() string { return w.name }

// Job returns the placement the world was built from.
func (w *World) Job() *cluster.Job { return w.job }

// Cont is a continuation: the rest of a rank program.
type Cont func()

// Program is a rank body in continuation-passing style.  It must perform all
// simulated-time operations through the *Then primitives (ComputeThen,
// WaitThen, WaitAllThen, the *Then collectives, …), passing each the
// continuation to run once the operation completes, and invoke done when the
// rank is finished.  A primitive that must wait suspends the program by
// storing its continuation; a pooled kernel event resumes it.  A Program may
// keep per-rank state in closure variables.
type Program func(r *Rank, done Cont)

// LaunchProgram launches one copy of the program per rank.  It may be called
// only once.  Each rank starts from one pooled kernel event posted at the
// current instant.
func (w *World) LaunchProgram(p Program) {
	if w.launched {
		panic("mpisim: World.LaunchProgram called twice")
	}
	w.launched = true
	k := w.m.Kernel()
	for _, r := range w.ranks {
		r := r
		r.stepFn = r.step
		r.coll.bind(r)
		r.resumeK = func() { p(r, r.finish) }
		k.PostAt(k.Now(), r.stepFn)
	}
}

// step resumes a suspended rank.  It runs as a pooled kernel event: the
// launch event, the expiry of a ComputeThen timer, or the completion wake
// posted by wakeWait.
func (r *Rank) step() {
	k := r.resumeK
	r.resumeK = nil
	// Recycle the requests of the wait the rank was suspended on.
	if len(r.waitReqs) > 0 {
		for i, req := range r.waitReqs {
			r.recycleRequest(req)
			r.waitReqs[i] = nil
		}
		r.waitReqs = r.waitReqs[:0]
	}
	r.run(k)
}

// run drives the trampoline from k until the rank suspends again (a
// primitive stored resumeK and arranged a wake) or its program finishes.
func (r *Rank) run(k Cont) {
	for k != nil {
		k()
		k = r.next
		r.next = nil
	}
}

// wakeWait resumes the rank after a wait completed by posting its step event
// at the current instant.  Completions only fire from kernel or lane event
// context, while the rank is suspended, so posting unconditionally is safe.
func (r *Rank) wakeWait() {
	k := r.w.m.Kernel()
	k.PostAt(k.Now(), r.stepFn)
}

// finish is the done continuation of every rank's Program: the last rank to
// finish stamps the world's completion time.
func (r *Rank) finish() {
	w := r.w
	w.finished++
	if w.finished == len(w.ranks) {
		w.completedAt = w.m.Kernel().Now()
	}
}

// Done reports whether every rank's body returned.
func (w *World) Done() bool { return w.launched && w.finished == len(w.ranks) }

// CompletionTime returns the virtual time at which the last rank finished.
func (w *World) CompletionTime() (sim.Time, bool) {
	if !w.Done() {
		return 0, false
	}
	return w.completedAt, true
}

// Stats summarizes the world's communication activity.
type Stats struct {
	MessagesSent int64
	BytesSent    int64
	Collectives  int64
}

// Stats returns a snapshot of the world's counters.
func (w *World) Stats() Stats {
	return Stats{MessagesSent: w.messagesSent, BytesSent: w.bytesSent, Collectives: w.collectives}
}

// Rank is the per-process handle used by application code.
type Rank struct {
	w    *World
	rank int

	unexpected []envelope
	// posted holds receives posted before their message arrived.  The
	// matching pattern is duplicated inline so the arrival scan walks a
	// contiguous slice instead of dereferencing every Request.
	posted []postedRecv

	// wc is the rank's reusable completion-batch counter (see waitCounter).
	wc waitCounter
	// reqFree is the rank's request free list; the waits feed it.
	reqFree []*Request

	collSeq int64

	// Program state (see LaunchProgram).  The body runs inline on the kernel
	// goroutine, suspended by storing the rest of the program in resumeK and
	// resumed by a pooled kernel event running stepFn.  next is the
	// trampoline slot: a primitive that completes without suspending parks
	// its continuation here and run invokes it with a flat stack.  waitReqs
	// holds the requests of the wait the rank is suspended on, so step can
	// recycle them when it resumes.
	stepFn   func()
	next     Cont
	resumeK  Cont
	waitReqs []*Request
	// coll is the loop state of the collective the rank is running.
	coll collFrame
}

// newRequest serves a request, preferring the rank's free list.
func (r *Rank) newRequest(src, tag int) *Request {
	if l := len(r.reqFree); l > 0 {
		req := r.reqFree[l-1]
		r.reqFree = r.reqFree[:l-1]
		*req = Request{src: src, tag: tag}
		return req
	}
	return &Request{src: src, tag: tag}
}

// recycleRequest returns a finished request to the rank's free list.
func (r *Rank) recycleRequest(req *Request) { r.reqFree = append(r.reqFree, req) }

// Rank returns the rank index within the world.
func (r *Rank) Rank() int { return r.rank }

// Size returns the world size.
func (r *Rank) Size() int { return len(r.w.ranks) }

// Node returns the node the rank is placed on.
func (r *Rank) Node() int { return r.w.nodeOf[r.rank] }

// World returns the world the rank belongs to.
func (r *Rank) World() *World { return r.w }

// Now returns the current virtual time.
func (r *Rank) Now() sim.Time { return r.w.m.Kernel().Now() }

// checkRank validates a peer rank index.
func (r *Rank) checkRank(peer int) {
	if peer < 0 || peer >= len(r.w.ranks) {
		panic(fmt.Sprintf("mpisim: rank %d out of range [0,%d)", peer, len(r.w.ranks)))
	}
}

// Isend starts a non-blocking send of size bytes to rank dst with the given
// tag and returns its request.
func (r *Rank) Isend(dst, tag, size int) *Request {
	r.checkRank(dst)
	if size <= 0 {
		panic(fmt.Sprintf("mpisim: non-positive message size %d", size))
	}
	w := r.w
	w.messagesSent++
	w.bytesSent += int64(size)
	w.seq++
	env := envelope{src: r.rank, dst: dst, tag: tag, size: size, seq: w.seq}
	req := r.newRequest(0, 0)

	srcNode, dstNode := w.nodeOf[r.rank], w.nodeOf[dst]
	if srcNode == dstNode {
		// Shared-memory path: the sender buffers the message immediately and
		// the payload appears at the receiver after the copy latency.
		env.kind = kindEager
		w.m.Kernel().Call(w.intraNodeDelay(size), w.arriveKernFn, w.getEnv(env))
		req.complete(Status{Source: r.rank, Tag: tag, Size: size})
		return req
	}

	flow := netsim.Flow{Class: w.name, ID: r.rank}
	if size <= w.cfg.EagerThreshold {
		env.kind = kindEager
		if err := w.m.Network().SendMessageCall(srcNode, dstNode, size, flow, w.arriveNetFn, w.getEnv(env)); err != nil {
			panic(fmt.Sprintf("mpisim: eager send failed: %v", err))
		}
		// Eager sends complete locally as soon as the payload is buffered.
		req.complete(Status{Source: r.rank, Tag: tag, Size: size})
		return req
	}

	// Rendezvous: request-to-send first, payload only after clear-to-send.
	env.kind = kindRTS
	w.rendezvous[env.seq] = w.getRendezvous(env, req)
	if err := w.m.Network().SendMessageCall(srcNode, dstNode, w.cfg.ControlBytes, flow, w.arriveNetFn, w.getEnv(env)); err != nil {
		panic(fmt.Sprintf("mpisim: RTS send failed: %v", err))
	}
	return req
}

// Irecv posts a non-blocking receive matching messages from src (or
// AnySource) with the given tag (or AnyTag) and returns its request.
func (r *Rank) Irecv(src, tag int) *Request {
	if src != AnySource {
		r.checkRank(src)
	}
	req := r.newRequest(src, tag)
	// Try to match an already-arrived message first.
	for i, env := range r.unexpected {
		if matches(src, tag, env) {
			r.unexpected = append(r.unexpected[:i], r.unexpected[i+1:]...)
			r.acceptMatched(env, req)
			return req
		}
	}
	r.posted = append(r.posted, postedRecv{src: src, tag: tag, req: req})
	return req
}

// postedRecv is one pending posted receive: its matching pattern inline plus
// the request it completes.
type postedRecv struct {
	src, tag int
	req      *Request
}

// matches reports whether a posted (src, tag) pair matches an envelope.
func matches(src, tag int, env envelope) bool {
	if src != AnySource && src != env.src {
		return false
	}
	if tag != AnyTag && tag != env.tag {
		return false
	}
	return true
}

// acceptMatched processes a matched envelope for the given receive request.
func (r *Rank) acceptMatched(env envelope, req *Request) {
	w := r.w
	switch env.kind {
	case kindEager:
		req.complete(Status{Source: env.src, Tag: env.tag, Size: env.size})
	case kindRTS:
		// Answer with clear-to-send; the payload is transferred when the CTS
		// reaches the sender.
		st := w.rendezvous[env.seq]
		if st == nil {
			st = w.getRendezvous(env, nil)
			w.rendezvous[env.seq] = st
		}
		st.recvReq = req
		cts := envelope{src: env.dst, dst: env.src, tag: env.tag, size: env.size, kind: kindCTS, seq: env.seq}
		srcNode, dstNode := w.nodeOf[cts.src], w.nodeOf[cts.dst]
		flow := netsim.Flow{Class: w.name, ID: cts.src}
		if srcNode == dstNode {
			w.m.Kernel().Call(w.intraNodeDelay(w.cfg.ControlBytes), w.arriveKernFn, w.getEnv(cts))
			return
		}
		if err := w.m.Network().SendMessageCall(srcNode, dstNode, w.cfg.ControlBytes, flow, w.arriveNetFn, w.getEnv(cts)); err != nil {
			panic(fmt.Sprintf("mpisim: CTS send failed: %v", err))
		}
	default:
		panic("mpisim: unexpected envelope kind in acceptMatched")
	}
}

// arrive delivers an envelope at its destination rank (kernel event context).
func (w *World) arrive(env envelope) {
	switch env.kind {
	case kindEager, kindRTS:
		dst := w.ranks[env.dst]
		for i, pr := range dst.posted {
			if matches(pr.src, pr.tag, env) {
				dst.posted = append(dst.posted[:i], dst.posted[i+1:]...)
				dst.acceptMatched(env, pr.req)
				return
			}
		}
		dst.unexpected = append(dst.unexpected, env)
	case kindCTS:
		// The CTS arrives back at the original sender: stream the payload.
		st := w.rendezvous[env.seq]
		if st == nil {
			panic("mpisim: CTS for unknown rendezvous transfer")
		}
		data := st.env
		srcNode, dstNode := w.nodeOf[data.src], w.nodeOf[data.dst]
		flow := netsim.Flow{Class: w.name, ID: data.src}
		if srcNode == dstNode {
			w.m.Kernel().Call(w.intraNodeDelay(data.size), w.rvDoneKernFn, st)
			return
		}
		if err := w.m.Network().SendMessageCall(srcNode, dstNode, data.size, flow, w.rvDoneNetFn, st); err != nil {
			panic(fmt.Sprintf("mpisim: rendezvous data send failed: %v", err))
		}
	}
}

// rendezvousDone finishes a rendezvous transfer once its payload has been
// delivered: both sides' requests complete and the state is recycled.
func (w *World) rendezvousDone(st *rendezvousState) {
	data := st.env
	delete(w.rendezvous, data.seq)
	sendReq, recvReq := st.sendReq, st.recvReq
	st.sendReq, st.recvReq = nil, nil
	w.rvFree = append(w.rvFree, st)
	status := Status{Source: data.src, Tag: data.tag, Size: data.size}
	if sendReq != nil {
		sendReq.complete(status)
	}
	if recvReq != nil {
		recvReq.complete(status)
	}
}

// intraNodeDelay models a shared-memory transfer of size bytes.
func (w *World) intraNodeDelay(size int) sim.Duration {
	cfg := w.m.Config()
	return cfg.IntraNodeLatency + sim.Duration(float64(size)/cfg.IntraNodeBandwidth*float64(sim.Second))
}
