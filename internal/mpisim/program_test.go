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
	k := sim.NewKernel(42)
	cfg := cluster.CabConfig()
	cfg.Net.Nodes = 4
	m := cluster.MustNew(k, cfg)
	job, err := m.AllocateSpread("prog", 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	w := MustNewWorld(m, job, DefaultConfig())
	w.LaunchProgram(exerciseProgram)
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
// equivalence forward.
func TestExerciseProgramGolden(t *testing.T) {
	got := runExerciseCampaign(t)
	want := campaignResult{
		completedAt: 61107,
		world:       Stats{MessagesSent: 188, BytesSent: 604864, Collectives: 48},
		kernel: sim.Stats{
			EventsScheduled: 472,
			EventsFired:     223,
			PoolReuses:      215,
			FastPathEvents:  151,
			EventsElided:    249,
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
// that never arrives — with leaf-parallel workers enabled in the network:
// Shutdown must cancel every pending kernel event without completing either
// world.
func TestShutdownSuspendedRanks(t *testing.T) {
	k := sim.NewKernel(11)
	cfg := cluster.CabConfig()
	cfg.Net.Nodes = 4
	cfg.Net.Workers = 2
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
