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

// Rank implements App: a long tracking phase, particle migration with the
// two ring neighbors, and every CensusInterval iterations a census burst with
// the 2-D grid neighbors plus a tally reduction.
func (m *MCB) Rank(r *mpisim.Rank) Loop {
	n := r.Size()
	ring := newHalo(r, []int{(r.Rank() + 1) % n, (r.Rank() - 1 + n) % n})
	burst := newHalo(r, gridNeighbors(r.Rank(), n, 2))
	var (
		k    mpisim.Cont
		iter int
	)
	tally := func() { r.AllreduceThen(m.CensusReduceBytes, k) }
	census := func() {
		if m.CensusInterval > 0 && (iter+1)%m.CensusInterval == 0 && n > 1 {
			burst.exchangeThen(m.CensusBytes, 600, tally)
			return
		}
		r.Continue(k)
	}
	migrate := func() {
		if n > 1 {
			ring.exchangeThen(m.MigrationBytes, 500, census)
			return
		}
		census()
	}
	return func(i int, next mpisim.Cont) {
		iter, k = i, next
		r.ComputeThen(m.TrackingCompute, migrate)
	}
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

// Rank implements App: one V-cycle, occasionally followed by a dense phase.
func (a *AMG) Rank(r *mpisim.Rank) Loop {
	h := newHalo(r, gridNeighbors(r.Rank(), r.Size(), 3))
	var (
		k                        mpisim.Cont
		iter, level, upLevel     int
		halo                     int
		compute                  sim.Duration
		down, exchange, smoothed mpisim.Cont
		coarse, solved, up       mpisim.Cont
	)
	// Down-sweep: smoother compute plus a halo exchange per level, then the
	// coarsest level's compute.
	down = func() {
		if level >= a.Levels {
			r.ComputeThen(compute, coarse)
			return
		}
		r.ComputeThen(compute, exchange)
	}
	exchange = func() { h.exchangeThen(maxInt(halo, 1), 700+level, smoothed) }
	smoothed = func() {
		halo /= 2
		compute /= 2
		level++
		down()
	}
	// Coarsest solve: a small all-reduce, then the up-sweep.
	coarse = func() { r.AllreduceThen(a.CoarseReduceBytes, solved) }
	solved = func() {
		upLevel = a.Levels - 1
		up()
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
	return func(i int, next mpisim.Cont) {
		iter, k = i, next
		halo, compute = a.FineHaloBytes, a.FineCompute
		level, upLevel = 0, 0
		down()
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
