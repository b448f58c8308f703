package mpisim

import (
	"testing"

	"github.com/hpcperf/switchprobe/internal/cluster"
	"github.com/hpcperf/switchprobe/internal/sim"
)

// exerciseProgram is a Program touching every continuation-passing primitive
// and collective: compute (including the zero-length fast path), eager and
// rendezvous point-to-point transfers, intra-node transfers, send/recv
// exchange, waits on already-done requests, zero-pending batch waits and the
// full collective set.
func exerciseProgram(r *Rank, done Cont) {
	n := r.Size()
	far := (r.Rank() + n/2) % n // cross-node peer (node-major placement)
	near := r.Rank() ^ 1        // same-node peer
	r.ComputeThen(5*sim.Microsecond, func() {
		r.BarrierThen(func() {
			// Rendezvous-sized exchange with the cross-node peer.
			sreq := r.Isend(far, 7, 64*1024)
			rreq := r.Irecv(far, 7)
			r.WaitAllThen(func() {
				// Intra-node eager send: completes at Isend, so the wait
				// takes the already-done fast path.
				r.SendThen(near, 8, 512, func() {
					r.RecvThen(near, 8, func() {
						r.SendRecvThen(far, 9, 1024, far, 9, func() {
							r.AlltoallThen(512, func() {
								r.AllreduceThen(256, func() {
									r.AllgatherThen(128, func() {
										r.BcastThen(0, 2048, func() {
											r.ReduceThen(0, 2048, func() {
												// Zero-length compute and an
												// empty batch wait: both
												// non-parking fast paths.
												r.ComputeThen(0, func() {
													r.WaitAllThen(done)
												})
											})
										})
									})
								})
							})
						})
					})
				})
			}, sreq, rreq)
		})
	})
}

type campaignResult struct {
	completedAt sim.Time
	world       Stats
	kernel      sim.Stats
}

// runExerciseCampaign runs exerciseProgram on a fresh 4-node machine.
func runExerciseCampaign(t *testing.T) campaignResult {
	t.Helper()
	return runProgramCampaign(t, 4, exerciseProgram)
}

// runProgramCampaign runs p on a fresh machine of the given node count with
// two ranks per node (one per socket, node-major).
func runProgramCampaign(t *testing.T, nodes int, p Program) campaignResult {
	t.Helper()
	k := sim.NewKernel(42)
	cfg := cluster.CabConfig()
	cfg.Net.Nodes = nodes
	m := cluster.MustNew(k, cfg)
	job, err := m.AllocateSpread("prog", 1, nodes)
	if err != nil {
		t.Fatal(err)
	}
	w := MustNewWorld(m, job, DefaultConfig())
	w.LaunchProgram(p)
	k.Run()
	if !w.Done() {
		t.Fatal("world did not complete")
	}
	at, _ := w.CompletionTime()
	return campaignResult{completedAt: at, world: w.Stats(), kernel: k.Stats()}
}

// TestExerciseProgramGolden pins the schedule of exerciseProgram: completion
// time, world counters and every kernel counter.  The constants were captured
// when the same program also ran on goroutine-backed ranks and as a blocking
// World.Launch body; all three runs agreed on every value (the goroutine
// runs additionally counted 159 process switches), so this test carries that
// equivalence forward.  Since the network's private event lane was retired,
// its events are kernel events: EventsFired counts them (the lane-era fired
// plus elided), and PoolReuses and FastPathEvents were recaptured from a
// lane-detached run, which matched the lane on every other value.
func TestExerciseProgramGolden(t *testing.T) {
	got := runExerciseCampaign(t)
	want := campaignResult{
		completedAt: 61107,
		world:       Stats{MessagesSent: 188, BytesSent: 604864, Collectives: 48},
		kernel: sim.Stats{
			EventsScheduled: 472,
			EventsFired:     472,
			PoolReuses:      456,
			FastPathEvents:  243,
			ProcFastResumes: 81,
		},
	}
	if got != want {
		t.Fatalf("exercise schedule moved:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestProgramFastResumeCounting pins that each non-parking fast path counts
// exactly once in sim.Stats.ProcFastResumes.
func TestProgramFastResumeCounting(t *testing.T) {
	k := sim.NewKernel(7)
	cfg := cluster.CabConfig()
	cfg.Net.Nodes = 2
	m := cluster.MustNew(k, cfg)
	job, err := m.AllocateSpread("fast", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := MustNewWorld(m, job, DefaultConfig())
	w.LaunchProgram(func(r *Rank, done Cont) {
		if r.Rank() != 0 {
			done()
			return
		}
		near := 1 // same node (node-major placement)
		// Step past t=0 first, so the other ranks' start events are gone
		// and the zero-length compute below sees an idle instant.
		r.ComputeThen(10*sim.Microsecond, func() {
			// Intra-node eager send completes at Isend: wait is a fast
			// resume.
			req := r.Isend(near, 1, 64)
			r.WaitThen(req, func() {
				// Empty batch wait: a fast resume.
				r.WaitAllThen(func() {
					// Zero-length compute with an idle instant: a fast
					// resume.
					r.ComputeThen(0, done)
				})
			})
		})
	})
	k.Run()
	if !w.Done() {
		t.Fatal("world did not complete")
	}
	// Rank 1 never posts the matching receive; the eager payload sits in
	// its unexpected queue, which is fine for this test.
	if got := k.Stats().ProcFastResumes; got != 3 {
		t.Errorf("ProcFastResumes = %d, want 3", got)
	}
}

// TestShutdownSuspendedRanks ends a window in which ranks are suspended
// mid-program — an endless exchange loop and a rank waiting on a receive
// that never arrives: Shutdown must cancel every pending kernel event
// without completing either world.
func TestShutdownSuspendedRanks(t *testing.T) {
	k := sim.NewKernel(11)
	cfg := cluster.CabConfig()
	cfg.Net.Nodes = 4
	m := cluster.MustNew(k, cfg)

	jobA, err := m.AllocateSpread("endless", 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	wA := MustNewWorld(m, jobA, DefaultConfig())
	wA.LaunchProgram(func(r *Rank, _ Cont) {
		// A ring shift: every rank sends right and receives from the left.
		right := (r.Rank() + 1) % r.Size()
		left := (r.Rank() - 1 + r.Size()) % r.Size()
		var loop Cont
		loop = func() {
			r.ComputeThen(3*sim.Microsecond, func() {
				r.SendRecvThen(right, 5, 4096, left, 5, loop)
			})
		}
		loop()
	})

	jobB, err := m.AllocateSpread("stuck", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	wB := MustNewWorld(m, jobB, DefaultConfig())
	wB.LaunchProgram(func(r *Rank, done Cont) {
		if r.Rank() == 0 {
			r.RecvThen(1, 99, done)
			return
		}
		done()
	})

	k.RunUntil(sim.Time(2 * sim.Millisecond))
	k.Shutdown()

	if wA.Done() || wB.Done() {
		t.Fatal("the endless and the stuck world should not report Done")
	}
	// 8 ranks, one message per rank every round of at most a few µs: a
	// world still looping at the deadline has sent far more than one round.
	if sent := wA.Stats().MessagesSent; sent < 100*int64(wA.Size()) {
		t.Fatalf("the endless world sent %d messages before shutdown; it stopped looping", sent)
	}
	if k.Pending() != 0 {
		t.Fatalf("%d kernel events still pending after Shutdown", k.Pending())
	}
	if k.Stats().EventsCancelled == 0 {
		t.Fatal("Shutdown cancelled no events although ranks were suspended on timers")
	}
}

// rootedProgram runs the rooted and windowed collectives on a world of any
// size: a broadcast then a reduce from every root in turn (alternating an
// eager and a rendezvous payload), the alltoall at window 1 and at window
// n-1, and an allreduce.
func rootedProgram(r *Rank, done Cont) {
	n := r.Size()
	root := 0
	var roots Cont
	roots = func() {
		if root == n {
			r.AlltoallWindowedThen(512, 1, func() {
				r.AlltoallWindowedThen(24*1024, n-1, func() {
					r.AllreduceThen(256, done)
				})
			})
			return
		}
		size := 2048
		if root%2 == 1 {
			size = 32 * 1024
		}
		at := root
		root++
		r.BcastThen(at, size, func() { r.ReduceThen(at, size, roots) })
	}
	roots()
}

// TestRootedCollectivesGolden pins rootedProgram on six ranks over three
// nodes — a non-power-of-two world, so the binomial trees are ragged and the
// alltoall shift wraps unevenly — with the same counters as
// TestExerciseProgramGolden.  The constants were captured while every
// collective call still built its own loop closures; the per-rank frames
// must reproduce them exactly.  The kernel counters count network events as
// kernel events, as in TestExerciseProgramGolden.
func TestRootedCollectivesGolden(t *testing.T) {
	got := runProgramCampaign(t, 3, rootedProgram)
	want := campaignResult{
		completedAt: 245710,
		world:       Stats{MessagesSent: 130, BytesSent: 1799680, Collectives: 90},
		kernel: sim.Stats{
			EventsScheduled: 695,
			EventsFired:     695,
			PoolReuses:      665,
			FastPathEvents:  261,
			ProcFastResumes: 57,
		},
	}
	if got != want {
		t.Fatalf("rooted collective schedule moved:\ngot  %+v\nwant %+v", got, want)
	}
}
