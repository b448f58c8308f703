package mpisim

import (
	"testing"
	"testing/quick"

	"github.com/hpcperf/switchprobe/internal/cluster"
	"github.com/hpcperf/switchprobe/internal/sim"
)

// testWorld builds a machine with the given node count and a job with
// ranksPerSocket ranks per socket across all nodes.
func testWorld(t testing.TB, seed int64, nodes, ranksPerSocket int) (*cluster.Machine, *World) {
	t.Helper()
	k := sim.NewKernel(seed)
	cfg := cluster.CabConfig()
	cfg.Net.Nodes = nodes
	m := cluster.MustNew(k, cfg)
	job, err := m.AllocateSpread("test", ranksPerSocket, nodes)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(m, job, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m, w
}

// recvStatusThen is RecvThen that continues with the receive's Status.  The
// wait recycles the request just before the continuation runs, and recycling
// only returns the struct to the rank's free list, so the continuation reads
// the completed status before any later Irecv or Isend can reuse it.
func recvStatusThen(r *Rank, src, tag int, k func(Status)) {
	req := r.Irecv(src, tag)
	r.WaitAllThen(func() { k(req.status) }, req)
}

// repeatThen runs body n times in sequence, handing each run its index and
// the continuation that starts the next one, then continues with k.
func repeatThen(r *Rank, n int, body func(i int, next Cont), k Cont) {
	i := 0
	var loop Cont
	loop = func() {
		if i == n {
			r.Continue(k)
			return
		}
		i++
		body(i-1, loop)
	}
	loop()
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{EagerThreshold: -1, ControlBytes: 64}).Validate(); err == nil {
		t.Fatal("expected error for negative eager threshold")
	}
	if err := (Config{EagerThreshold: 0, ControlBytes: 0}).Validate(); err == nil {
		t.Fatal("expected error for zero control bytes")
	}
}

func TestNewWorldErrors(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := cluster.CabConfig()
	cfg.Net.Nodes = 2
	m := cluster.MustNew(k, cfg)
	if _, err := NewWorld(m, nil, DefaultConfig()); err == nil {
		t.Fatal("expected error for nil job")
	}
	job, _ := m.AllocateSpread("x", 1, 2)
	if _, err := NewWorld(m, job, Config{EagerThreshold: -1, ControlBytes: 1}); err == nil {
		t.Fatal("expected error for bad config")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewWorld should panic")
		}
	}()
	MustNewWorld(m, nil, DefaultConfig())
}

func TestPingPongInterNode(t *testing.T) {
	m, w := testWorld(t, 1, 2, 1) // 2 nodes, 2 ranks/node = 4 ranks
	var rtt sim.Duration
	w.LaunchProgram(func(r *Rank, done Cont) {
		const tag = 1
		switch r.Rank() {
		case 0:
			// Rank 0 is on node 0, rank 2 on node 1 (node-major placement).
			start := r.Now()
			r.SendThen(2, tag, 1024, func() {
				r.RecvThen(2, tag, func() {
					rtt = r.Now().Sub(start)
					done()
				})
			})
		case 2:
			r.RecvThen(0, tag, func() { r.SendThen(0, tag, 1024, done) })
		default:
			done()
		}
	})
	m.Kernel().Run()
	if !w.Done() {
		t.Fatal("world did not finish")
	}
	if rtt <= 0 {
		t.Fatal("rtt not measured")
	}
	oneWay := rtt / 2
	// The Cab-like idle one-way latency for 1 KB is ~1-2 µs.
	if oneWay < 800*sim.Nanosecond || oneWay > 4*sim.Microsecond {
		t.Fatalf("one-way latency %v outside expected idle range", oneWay)
	}
}

func TestIntraNodeMessageBypassesSwitch(t *testing.T) {
	m, w := testWorld(t, 1, 2, 2) // ranks 0..3 on node 0
	received := false
	w.LaunchProgram(func(r *Rank, done Cont) {
		switch r.Rank() {
		case 0:
			r.SendThen(1, 7, 4096, done)
		case 1:
			recvStatusThen(r, 0, 7, func(st Status) {
				received = true
				if st.Source != 0 || st.Tag != 7 || st.Size != 4096 {
					t.Errorf("bad status %+v", st)
				}
				done()
			})
		default:
			done()
		}
	})
	m.Kernel().Run()
	if !w.Done() || !received {
		t.Fatal("world did not finish")
	}
	if m.Network().Stats().PacketsDelivered != 0 {
		t.Fatal("intra-node message crossed the switch")
	}
}

func TestRendezvousLargeMessage(t *testing.T) {
	m, w := testWorld(t, 1, 2, 1)
	const size = 40 * 1024 // CompressionB's message size: above eager threshold
	var recvAt, sendDoneAt sim.Time
	w.LaunchProgram(func(r *Rank, done Cont) {
		switch r.Rank() {
		case 0:
			req := r.Isend(2, 3, size)
			r.WaitAllThen(func() {
				sendDoneAt = r.Now()
				done()
			}, req)
		case 2:
			recvStatusThen(r, 0, 3, func(st Status) {
				recvAt = r.Now()
				if st.Size != size {
					t.Errorf("recv size = %d", st.Size)
				}
				done()
			})
		default:
			done()
		}
	})
	m.Kernel().Run()
	if !w.Done() {
		t.Fatal("world did not finish")
	}
	if recvAt == 0 || sendDoneAt == 0 {
		t.Fatal("timestamps not recorded")
	}
	// With rendezvous the sender completes no earlier than the data delivery.
	if sendDoneAt < recvAt {
		t.Fatalf("rendezvous send completed (%v) before data delivery (%v)", sendDoneAt, recvAt)
	}
	// The switch must have carried control plus payload bytes.
	st := m.Network().Stats()
	if st.BytesDelivered < int64(size) {
		t.Fatalf("network carried %d bytes, want >= %d", st.BytesDelivered, size)
	}
}

func TestEagerSendCompletesImmediately(t *testing.T) {
	m, w := testWorld(t, 1, 2, 1)
	w.LaunchProgram(func(r *Rank, done Cont) {
		switch r.Rank() {
		case 0:
			req := r.Isend(2, 1, 512)
			if !req.Done() {
				t.Error("eager Isend should complete locally at once")
			}
			r.WaitAllThen(done, req)
		case 2:
			r.RecvThen(0, 1, done)
		default:
			done()
		}
	})
	m.Kernel().Run()
	if !w.Done() {
		t.Fatal("world did not finish")
	}
}

func TestUnexpectedMessageQueue(t *testing.T) {
	// The send arrives before the receive is posted; the message must be
	// buffered and matched later.
	m, w := testWorld(t, 1, 2, 1)
	var st Status
	w.LaunchProgram(func(r *Rank, done Cont) {
		switch r.Rank() {
		case 0:
			r.SendThen(2, 9, 2048, done)
		case 2:
			// Ensure the message is already there.
			r.ComputeThen(200*sim.Microsecond, func() {
				req := r.Irecv(0, 9)
				if !req.Done() {
					t.Error("receive posted after arrival should match the unexpected message at once")
				}
				st = req.Status()
				r.WaitAllThen(done, req)
			})
		default:
			done()
		}
	})
	m.Kernel().Run()
	if !w.Done() {
		t.Fatal("world did not finish")
	}
	if st.Source != 0 || st.Size != 2048 {
		t.Fatalf("status = %+v", st)
	}
}

func TestAnySourceAndAnyTag(t *testing.T) {
	m, w := testWorld(t, 1, 2, 1)
	got := 0
	w.LaunchProgram(func(r *Rank, done Cont) {
		switch r.Rank() {
		case 1, 2, 3:
			r.SendThen(0, 40+r.Rank(), 256, done)
		case 0:
			repeatThen(r, 3, func(_ int, next Cont) {
				recvStatusThen(r, AnySource, AnyTag, func(st Status) {
					got += st.Source
					next()
				})
			}, done)
		}
	})
	m.Kernel().Run()
	if !w.Done() {
		t.Fatal("world did not finish")
	}
	if got != 1+2+3 {
		t.Fatalf("sum of sources = %d, want 6", got)
	}
}

// TestReceiveMatchingOrder pins MPI's two matching rules, which the linear
// scans in arrive and Irecv implement: an arriving message completes the
// earliest-posted receive it matches, wildcard or not, and a receive takes
// the earliest-arrived unexpected message it matches.
func TestReceiveMatchingOrder(t *testing.T) {
	t.Run("earliest posted receive", func(t *testing.T) {
		m, w := testWorld(t, 1, 2, 1)
		var wild, specific Status
		w.LaunchProgram(func(r *Rank, done Cont) {
			switch r.Rank() {
			case 0:
				a := r.Irecv(AnySource, AnyTag)
				b := r.Irecv(1, 7)
				r.WaitAllThen(func() {
					wild, specific = a.status, b.status
					done()
				}, a, b)
			case 1:
				// Both messages match both receives; the first must
				// complete the wildcard receive, posted first.
				r.ComputeThen(50*sim.Microsecond, func() {
					r.SendThen(0, 7, 100, func() { r.SendThen(0, 7, 200, done) })
				})
			default:
				done()
			}
		})
		m.Kernel().Run()
		if !w.Done() {
			t.Fatal("world did not finish")
		}
		if wild != (Status{Source: 1, Tag: 7, Size: 100}) || specific != (Status{Source: 1, Tag: 7, Size: 200}) {
			t.Fatalf("wildcard receive got %+v and specific %+v; want sizes 100 then 200", wild, specific)
		}
	})
	t.Run("earliest arrived unexpected message", func(t *testing.T) {
		m, w := testWorld(t, 1, 2, 1)
		var got []Status
		w.LaunchProgram(func(r *Rank, done Cont) {
			// Arrival order is rank 3 (tag 9), rank 1 (tag 5), rank 2
			// (tag 5): neither the lowest source nor the lowest tag first.
			send := func(delay sim.Duration, tag, size int) {
				r.ComputeThen(delay, func() { r.SendThen(0, tag, size, done) })
			}
			switch r.Rank() {
			case 0:
				r.ComputeThen(500*sim.Microsecond, func() {
					next := func(st Status) { got = append(got, st) }
					recvStatusThen(r, AnySource, AnyTag, func(st Status) {
						next(st)
						recvStatusThen(r, AnySource, 5, func(st Status) {
							next(st)
							recvStatusThen(r, AnySource, AnyTag, func(st Status) {
								next(st)
								done()
							})
						})
					})
				})
			case 3:
				send(0, 9, 300)
			case 1:
				send(100*sim.Microsecond, 5, 100)
			case 2:
				send(200*sim.Microsecond, 5, 200)
			}
		})
		m.Kernel().Run()
		if !w.Done() {
			t.Fatal("world did not finish")
		}
		want := []Status{{Source: 3, Tag: 9, Size: 300}, {Source: 1, Tag: 5, Size: 100}, {Source: 2, Tag: 5, Size: 200}}
		if len(got) != len(want) {
			t.Fatalf("received %+v, want %+v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("received %+v, want %+v", got, want)
			}
		}
	})
}

func TestTagMatchingSelectsRightMessage(t *testing.T) {
	m, w := testWorld(t, 1, 2, 1)
	var first, second Status
	w.LaunchProgram(func(r *Rank, done Cont) {
		switch r.Rank() {
		case 0:
			r.SendThen(2, 1, 100, func() { r.SendThen(2, 2, 200, done) })
		case 2:
			r.ComputeThen(300*sim.Microsecond, func() {
				// Receive tag 2 first even though tag 1 arrived earlier.
				recvStatusThen(r, 0, 2, func(st Status) {
					first = st
					recvStatusThen(r, 0, 1, func(st Status) {
						second = st
						done()
					})
				})
			})
		default:
			done()
		}
	})
	m.Kernel().Run()
	if first.Size != 200 || second.Size != 100 {
		t.Fatalf("tag matching wrong: first=%+v second=%+v", first, second)
	}
}

func TestSendRecvExchange(t *testing.T) {
	m, w := testWorld(t, 1, 2, 1)
	ok := 0
	w.LaunchProgram(func(r *Rank, done Cont) {
		if r.Rank() != 0 && r.Rank() != 2 {
			done()
			return
		}
		peer := 2 - r.Rank()
		// SendRecvThen's operations with the receive's status kept.
		sreq := r.Isend(peer, 5, 1024)
		recvStatusThen(r, peer, 5, func(st Status) {
			if st.Size == 1024 {
				ok++
			}
			r.WaitAllThen(done, sreq)
		})
	})
	m.Kernel().Run()
	if ok != 2 {
		t.Fatalf("both sides should complete the exchange, ok=%d", ok)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	m, w := testWorld(t, 2, 3, 2) // 12 ranks
	var minAfter sim.Time = 1 << 62
	var maxBefore sim.Time
	w.LaunchProgram(func(r *Rank, done Cont) {
		// Stagger arrival into the barrier.
		r.ComputeThen(sim.Duration(r.Rank())*50*sim.Microsecond, func() {
			if before := r.Now(); before > maxBefore {
				maxBefore = before
			}
			r.BarrierThen(func() {
				if after := r.Now(); after < minAfter {
					minAfter = after
				}
				done()
			})
		})
	})
	m.Kernel().Run()
	if !w.Done() {
		t.Fatal("world did not finish")
	}
	if minAfter < maxBefore {
		t.Fatalf("a rank left the barrier (%v) before the slowest entered (%v)", minAfter, maxBefore)
	}
}

func TestBcastReachesAllRanks(t *testing.T) {
	for _, nodes := range []int{2, 3} {
		m, w := testWorld(t, 3, nodes, 2)
		count := 0
		w.LaunchProgram(func(r *Rank, done Cont) {
			r.BcastThen(1, 8192, func() {
				count++
				done()
			})
		})
		m.Kernel().Run()
		if !w.Done() {
			t.Fatalf("nodes=%d: bcast deadlocked", nodes)
		}
		if count != w.Size() {
			t.Fatalf("nodes=%d: count=%d want %d", nodes, count, w.Size())
		}
	}
}

func TestReduceAndAllreduceComplete(t *testing.T) {
	m, w := testWorld(t, 4, 3, 2)
	w.LaunchProgram(func(r *Rank, done Cont) {
		r.ReduceThen(0, 4096, func() {
			r.AllreduceThen(64, func() { r.AllreduceThen(1024, done) })
		})
	})
	m.Kernel().Run()
	if !w.Done() {
		t.Fatal("reduce/allreduce deadlocked")
	}
	if w.Stats().Collectives == 0 {
		t.Fatal("collectives not counted")
	}
}

func TestAllgatherAndAlltoallComplete(t *testing.T) {
	m, w := testWorld(t, 5, 3, 1) // 6 ranks
	w.LaunchProgram(func(r *Rank, done Cont) {
		r.AllgatherThen(2048, func() { r.AlltoallThen(1024, done) })
	})
	m.Kernel().Run()
	if !w.Done() {
		t.Fatal("allgather/alltoall deadlocked")
	}
}

func TestAlltoallWindowedVariants(t *testing.T) {
	// Every window size must complete and move the same volume; smaller
	// windows serialize more and therefore cannot be faster than posting
	// everything at once.
	type result struct {
		bytes int64
		at    sim.Time
	}
	runWith := func(window int) result {
		m, w := testWorld(t, 8, 3, 2) // 12 ranks over 3 nodes
		const per = 2048
		w.LaunchProgram(func(r *Rank, done Cont) { r.AlltoallWindowedThen(per, window, done) })
		m.Kernel().Run()
		if !w.Done() {
			t.Fatalf("window %d: alltoall did not finish", window)
		}
		at, _ := w.CompletionTime()
		return result{bytes: w.Stats().BytesSent, at: at}
	}
	sync1 := runWith(1)
	sync2 := runWith(2)
	all := runWith(1000)
	if sync1.bytes != sync2.bytes || sync2.bytes != all.bytes {
		t.Fatalf("windowed variants moved different volumes: %d/%d/%d", sync1.bytes, sync2.bytes, all.bytes)
	}
	if sync1.at < all.at {
		t.Fatalf("fully synchronous alltoall (%v) finished before the fully concurrent one (%v)", sync1.at, all.at)
	}
	// Zero/negative window is clamped to 1.
	m, w := testWorld(t, 9, 2, 1)
	w.LaunchProgram(func(r *Rank, done Cont) { r.AlltoallWindowedThen(512, 0, done) })
	m.Kernel().Run()
	if !w.Done() {
		t.Fatal("clamped window did not finish")
	}
}

func TestAlltoallMovesExpectedVolume(t *testing.T) {
	m, w := testWorld(t, 6, 2, 2) // 8 ranks over 2 nodes
	const per = 4096
	w.LaunchProgram(func(r *Rank, done Cont) { r.AlltoallThen(per, done) })
	m.Kernel().Run()
	if !w.Done() {
		t.Fatal("alltoall did not finish")
	}
	n := int64(w.Size())
	wantTotal := n * (n - 1) * per
	if got := w.Stats().BytesSent; got != wantTotal {
		t.Fatalf("bytes sent = %d, want %d", got, wantTotal)
	}
	// Only the inter-node portion crosses the switch: ranks 0-3 on node 0,
	// 4-7 on node 1, so 2*4*4 ordered pairs cross.
	crossPairs := int64(2 * 4 * 4)
	netBytes := m.Network().Stats().BytesDelivered
	if netBytes < crossPairs*per {
		t.Fatalf("network carried %d bytes, want >= %d", netBytes, crossPairs*per)
	}
}

func TestSingleRankCollectivesNoop(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := cluster.CabConfig()
	cfg.Net.Nodes = 2
	m := cluster.MustNew(k, cfg)
	job, err := m.AllocateSpread("solo", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Trim to a single rank.
	job.Placements = job.Placements[:1]
	w := MustNewWorld(m, job, DefaultConfig())
	w.LaunchProgram(func(r *Rank, done Cont) {
		r.BarrierThen(func() {
			r.BcastThen(0, 100, func() {
				r.ReduceThen(0, 100, func() {
					r.AllreduceThen(100, func() {
						r.AllgatherThen(100, func() { r.AlltoallThen(100, done) })
					})
				})
			})
		})
	})
	k.Run()
	if !w.Done() {
		t.Fatal("single-rank collectives deadlocked")
	}
}

func TestLaunchTwicePanics(t *testing.T) {
	m, w := testWorld(t, 1, 2, 1)
	w.LaunchProgram(func(r *Rank, done Cont) { done() })
	m.Kernel().Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on second LaunchProgram")
		}
	}()
	w.LaunchProgram(func(r *Rank, done Cont) { done() })
}

func TestInvalidRankPanics(t *testing.T) {
	m, w := testWorld(t, 1, 2, 1)
	w.LaunchProgram(func(r *Rank, done Cont) {
		if r.Rank() != 0 {
			done()
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic for out-of-range destination")
			}
			// Finish normally so the world can complete.
			done()
		}()
		r.Isend(99, 0, 10)
	})
	m.Kernel().Run()
	if !w.Done() {
		t.Fatal("world did not finish after the recovered panic")
	}
}

func TestCompletionTime(t *testing.T) {
	m, w := testWorld(t, 1, 2, 1)
	if _, ok := w.CompletionTime(); ok {
		t.Fatal("completion time available before launch")
	}
	w.LaunchProgram(func(r *Rank, done Cont) {
		r.ComputeThen(sim.Duration(r.Rank()+1)*sim.Millisecond, done)
	})
	m.Kernel().Run()
	at, ok := w.CompletionTime()
	if !ok {
		t.Fatal("completion time missing")
	}
	if at != sim.Time(4*sim.Millisecond) {
		t.Fatalf("completion at %v, want 4ms", at)
	}
}

func TestTwoWorldsShareTheSwitch(t *testing.T) {
	// Two jobs placed on disjoint cores of the same nodes communicate
	// concurrently; both must finish and both contribute traffic.
	k := sim.NewKernel(9)
	cfg := cluster.CabConfig()
	cfg.Net.Nodes = 4
	m := cluster.MustNew(k, cfg)
	jobA, err := m.AllocateSpread("A", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := m.AllocateSpread("B", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	wa := MustNewWorld(m, jobA, DefaultConfig())
	wb := MustNewWorld(m, jobB, DefaultConfig())
	body := func(r *Rank, done Cont) {
		repeatThen(r, 3, func(_ int, next Cont) {
			r.AlltoallThen(2048, func() { r.ComputeThen(10*sim.Microsecond, next) })
		}, done)
	}
	wa.LaunchProgram(body)
	wb.LaunchProgram(body)
	k.Run()
	if !wa.Done() || !wb.Done() {
		t.Fatal("co-running worlds did not finish")
	}
	st := m.Network().Stats()
	if st.BytesByClass["A"] == 0 || st.BytesByClass["B"] == 0 {
		t.Fatalf("both classes should appear in switch traffic: %v", st.BytesByClass)
	}
}

func TestDeterministicCompletion(t *testing.T) {
	run := func() sim.Time {
		m, w := testWorld(t, 77, 3, 2)
		w.LaunchProgram(func(r *Rank, done Cont) {
			repeatThen(r, 5, func(_ int, next Cont) {
				r.AlltoallThen(1500, func() { r.AllreduceThen(64, next) })
			}, done)
		})
		m.Kernel().Run()
		at, _ := w.CompletionTime()
		return at
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic completion: %v vs %v", a, b)
	}
}

// Property: for any mix of eager and rendezvous message sizes sent from rank
// 0 to rank (size/2), every receive completes with the matching size.
func TestPointToPointSizesProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		sizes := make([]int, len(raw))
		for i, r := range raw {
			sizes[i] = int(r)%60000 + 1 // spans eager and rendezvous
		}
		m, w := testWorld(t, 21, 2, 1)
		okAll := true
		w.LaunchProgram(func(r *Rank, done Cont) {
			switch r.Rank() {
			case 0:
				repeatThen(r, len(sizes), func(i int, next Cont) {
					r.SendThen(2, 100+i, sizes[i], next)
				}, done)
			case 2:
				repeatThen(r, len(sizes), func(i int, next Cont) {
					recvStatusThen(r, 0, 100+i, func(st Status) {
						if st.Size != sizes[i] {
							okAll = false
						}
						next()
					})
				}, done)
			default:
				done()
			}
		})
		m.Kernel().Run()
		return okAll && w.Done()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAlltoall16Ranks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(1)
		cfg := cluster.CabConfig()
		cfg.Net.Nodes = 4
		m := cluster.MustNew(k, cfg)
		job, err := m.AllocateSpread("bench", 2, 4)
		if err != nil {
			b.Fatal(err)
		}
		w := MustNewWorld(m, job, DefaultConfig())
		w.LaunchProgram(func(r *Rank, done Cont) { r.AlltoallThen(4096, done) })
		k.Run()
		if !w.Done() {
			b.Fatal("alltoall did not finish")
		}
	}
}
