package workload

import (
	"testing"

	"github.com/hpcperf/switchprobe/internal/mpisim"
	"github.com/hpcperf/switchprobe/internal/sim"
)

// TestWorkloadScheduleGolden pins the schedule of every application model
// over four iterations (so MCB's census and AMG's dense phase fire once):
// the completion time, the world's message counters and every kernel
// counter.  One machine runs 4 nodes at a tenth of the paper's volumes
// (every message eager), the other 6 nodes at full scale (the transposes
// and Lulesh's halos go rendezvous).  The constants were captured while the
// models still rebuilt their continuations every iteration; the per-rank
// Loop bindings must reproduce them exactly.  The kernel counters count
// network events as kernel events: EventsFired is the lane-era fired plus
// elided, and PoolReuses and FastPathEvents were recaptured from a run with
// the network's former private event lane detached.
func TestWorkloadScheduleGolden(t *testing.T) {
	cases := []struct {
		nodes int
		scale Scale
		want  map[string]appResult
	}{
		{nodes: 4, scale: Reduced(0.1), want: map[string]appResult{
			"FFTW": {elapsed: 2346321,
				world:  mpisim.Stats{MessagesSent: 7936, BytesSent: 49600000, Collectives: 256},
				kernel: sim.Stats{EventsScheduled: 20243, EventsFired: 20243, PoolReuses: 20179, FastPathEvents: 4729, ProcFastResumes: 554}},
			"Lulesh": {elapsed: 2310050,
				world:  mpisim.Stats{MessagesSent: 440, BytesSent: 629440, Collectives: 32},
				kernel: sim.Stats{EventsScheduled: 689, EventsFired: 689, PoolReuses: 640, FastPathEvents: 184, ProcFastResumes: 56}},
			"MCB": {elapsed: 4459774,
				world:  mpisim.Stats{MessagesSent: 446, BytesSent: 897332, Collectives: 32},
				kernel: sim.Stats{EventsScheduled: 919, EventsFired: 919, PoolReuses: 842, FastPathEvents: 275, ProcFastResumes: 75}},
			"MILC": {elapsed: 217169,
				world:  mpisim.Stats{MessagesSent: 2296, BytesSent: 1693184, Collectives: 128},
				kernel: sim.Stats{EventsScheduled: 3252, EventsFired: 3252, PoolReuses: 3051, FastPathEvents: 681, ProcFastResumes: 264}},
			"VPFFT": {elapsed: 5486937,
				world:  mpisim.Stats{MessagesSent: 8184, BytesSent: 99263488, Collectives: 384},
				kernel: sim.Stats{EventsScheduled: 24591, EventsFired: 24591, PoolReuses: 24535, FastPathEvents: 4799, ProcFastResumes: 694}},
			"AMG": {elapsed: 2351742,
				world:  mpisim.Stats{MessagesSent: 1784, BytesSent: 416768, Collectives: 128},
				kernel: sim.Stats{EventsScheduled: 3140, EventsFired: 3140, PoolReuses: 2948, FastPathEvents: 684, ProcFastResumes: 287}},
		}},
		{nodes: 6, scale: FullScale, want: map[string]appResult{
			"FFTW": {elapsed: 16722502,
				world:  mpisim.Stats{MessagesSent: 18048, BytesSent: 501319296, Collectives: 384},
				kernel: sim.Stats{EventsScheduled: 133002, EventsFired: 133002, PoolReuses: 132906, FastPathEvents: 19906, ProcFastResumes: 190}},
			"Lulesh": {elapsed: 7724606,
				world:  mpisim.Stats{MessagesSent: 888, BytesSent: 12583872, Collectives: 64},
				kernel: sim.Stats{EventsScheduled: 3305, EventsFired: 3305, PoolReuses: 3209, FastPathEvents: 550, ProcFastResumes: 136}},
			"MCB": {elapsed: 14310823,
				world:  mpisim.Stats{MessagesSent: 670, BytesSent: 13465600, Collectives: 48},
				kernel: sim.Stats{EventsScheduled: 2649, EventsFired: 2649, PoolReuses: 2512, FastPathEvents: 532, ProcFastResumes: 126}},
			"MILC": {elapsed: 1156486,
				world:  mpisim.Stats{MessagesSent: 3448, BytesSent: 25189888, Collectives: 192},
				kernel: sim.Stats{EventsScheduled: 7041, EventsFired: 7041, PoolReuses: 6907, FastPathEvents: 933, ProcFastResumes: 400}},
			"VPFFT": {elapsed: 35021384,
				world:  mpisim.Stats{MessagesSent: 18424, BytesSent: 1002752896, Collectives: 576},
				kernel: sim.Stats{EventsScheduled: 178270, EventsFired: 178270, PoolReuses: 178174, FastPathEvents: 17907, ProcFastResumes: 636}},
			"AMG": {elapsed: 7379881,
				world:  mpisim.Stats{MessagesSent: 2680, BytesSent: 5404672, Collectives: 192},
				kernel: sim.Stats{EventsScheduled: 5063, EventsFired: 5063, PoolReuses: 4870, FastPathEvents: 1063, ProcFastResumes: 401}},
		}},
	}
	for _, c := range cases {
		for _, app := range Registry(c.scale) {
			got := runApp(t, app, c.nodes, 4)
			got.bytes = 0 // covered by world.BytesSent
			if want := c.want[app.Name()]; got != want {
				t.Errorf("%d nodes, %s: schedule moved:\ngot  %+v\nwant %+v", c.nodes, app.Name(), got, want)
			}
		}
	}
}
