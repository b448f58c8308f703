package workload

import (
	"github.com/hpcperf/switchprobe/internal/mpisim"
	"github.com/hpcperf/switchprobe/internal/sim"
)

// MCB models the Monte Carlo Burnup transport code with 3,000,000 particles:
// long particle-tracking computation phases with occasional, bursty particle
// migrations to neighboring domains and a periodic census/rebalance step.  It
// uses little of the switch on average (and is therefore insensitive to
// reduced switch capability) but its bursts are visible to probe packets.
type MCB struct {
	// TrackingCompute is the per-iteration particle tracking time.
	TrackingCompute sim.Duration
	// MigrationBytes is the size of the per-iteration particle migration
	// message to each of two neighbors.
	MigrationBytes int
	// CensusInterval is how many iterations separate census/rebalance bursts.
	CensusInterval int
	// CensusBytes is the size of the burst messages exchanged with each
	// neighbor during a census.
	CensusBytes int
	// CensusReduceBytes is the size of the census tally reduction.
	CensusReduceBytes int
}

// NewMCB returns the MCB model at the given scale.
func NewMCB(s Scale) *MCB {
	s = s.valid()
	return &MCB{
		TrackingCompute:   s.compute(3500),
		MigrationBytes:    s.bytes(2 * 1024),
		CensusInterval:    4,
		CensusBytes:       s.bytes(64 * 1024),
		CensusReduceBytes: s.bytes(1024),
	}
}

// Name implements App.
func (m *MCB) Name() string { return "MCB" }

// Placement implements App: 4 ranks per socket on every node.
func (m *MCB) Placement(nodes int) (int, int) { return 4, nodes }

// IterateThen implements App.
func (m *MCB) IterateThen(r *mpisim.Rank, iter int, k mpisim.Cont) {
	n := r.Size()
	// Periodic census: a burst of larger exchanges plus a tally reduction.
	census := func() {
		if m.CensusInterval > 0 && (iter+1)%m.CensusInterval == 0 && n > 1 {
			burst := gridNeighbors(r.Rank(), n, 2)
			haloExchangeThen(r, burst, m.CensusBytes, 600, func() {
				r.AllreduceThen(m.CensusReduceBytes, k)
			})
			return
		}
		r.Continue(k)
	}
	// Long tracking phase, then particle migration with the two ring
	// neighbors.
	r.ComputeThen(m.TrackingCompute, func() {
		if n > 1 {
			neighbors := []int{(r.Rank() + 1) % n, (r.Rank() - 1 + n) % n}
			haloExchangeThen(r, neighbors, m.MigrationBytes, 500, census)
			return
		}
		census()
	})
}

// AMG models the algebraic multigrid solver from hypre: every iteration is a
// V-cycle descending through coarser levels (smaller halos, less compute) and
// back up, with a small all-reduce on the coarsest level; every few
// iterations the solver runs a long, communication-free dense phase (the
// setup/dense-representation behaviour the paper highlights as making AMG's
// network usage phase-dependent).
type AMG struct {
	// Levels is the number of multigrid levels visited on the way down.
	Levels int
	// FineHaloBytes is the halo size on the finest level; each coarser level
	// halves it.
	FineHaloBytes int
	// FineCompute is the smoother time on the finest level; each coarser
	// level halves it.
	FineCompute sim.Duration
	// CoarseReduceBytes is the coarsest-level solve reduction size.
	CoarseReduceBytes int
	// DensePhaseInterval is how many V-cycles separate the dense
	// (communication-free) phases; 0 disables them.
	DensePhaseInterval int
	// DensePhaseCompute is the duration of a dense phase.
	DensePhaseCompute sim.Duration
}

// NewAMG returns the AMG model at the given scale.
func NewAMG(s Scale) *AMG {
	s = s.valid()
	return &AMG{
		Levels:             2,
		FineHaloBytes:      s.bytes(3 * 1024),
		FineCompute:        s.compute(420),
		CoarseReduceBytes:  256,
		DensePhaseInterval: 4,
		DensePhaseCompute:  s.compute(1800),
	}
}

// Name implements App.
func (a *AMG) Name() string { return "AMG" }

// Placement implements App: 4 ranks per socket on every node.
func (a *AMG) Placement(nodes int) (int, int) { return 4, nodes }

// IterateThen implements App: one V-cycle, occasionally followed by a dense
// phase.
func (a *AMG) IterateThen(r *mpisim.Rank, iter int, k mpisim.Cont) {
	neighbors := gridNeighbors(r.Rank(), r.Size(), 3)
	halo := a.FineHaloBytes
	compute := a.FineCompute
	level := 0
	upLevel := 0
	var down, exchanged, coarse, up mpisim.Cont
	// Down-sweep: smoother compute plus a halo exchange per level.
	down = func() {
		if level >= a.Levels {
			coarse()
			return
		}
		r.ComputeThen(compute, exchanged)
	}
	exchanged = func() {
		haloExchangeThen(r, neighbors, maxInt(halo, 1), 700+level, func() {
			halo /= 2
			compute /= 2
			level++
			down()
		})
	}
	// Coarsest solve.
	coarse = func() {
		r.ComputeThen(compute, func() {
			r.AllreduceThen(a.CoarseReduceBytes, func() {
				upLevel = a.Levels - 1
				up()
			})
		})
	}
	// Up-sweep: the interpolation transfers overlap with the smoother, so the
	// up-sweep contributes computation but no blocking halo exchanges; then
	// the occasional dense, communication-free phase.
	up = func() {
		if upLevel < 0 {
			if a.DensePhaseInterval > 0 && (iter+1)%a.DensePhaseInterval == 0 {
				r.ComputeThen(a.DensePhaseCompute, k)
				return
			}
			r.Continue(k)
			return
		}
		compute *= 2
		upLevel--
		r.ComputeThen(compute, up)
	}
	down()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
