package workload

import (
	"github.com/hpcperf/switchprobe/internal/mpisim"
	"github.com/hpcperf/switchprobe/internal/sim"
)

// Lulesh models the Livermore Unstructured Lagrangian Explicit Shock
// Hydrodynamics proxy application on a 22x22x22 cube per domain: a 3-D
// stencil with face halo exchanges interleaved with heavy element-update
// computation, plus the global time-step reduction at the end of every
// iteration.  It requires a cubic number of ranks in the real code, which the
// paper accommodates by running 64 ranks (2 per socket on 16 nodes).
type Lulesh struct {
	// HaloBytes is the size of one face exchange message.
	HaloBytes int
	// ForceHaloBytes is the size of the second (nodal force) exchange.
	ForceHaloBytes int
	// ComputePerPhase is the element/nodal update time per half-iteration.
	ComputePerPhase sim.Duration
	// ReduceBytes is the size of the dt allreduce.
	ReduceBytes int
}

// NewLulesh returns the Lulesh model at the given scale.
func NewLulesh(s Scale) *Lulesh {
	s = s.valid()
	return &Lulesh{
		HaloBytes:       s.bytes(20 * 1024),
		ForceHaloBytes:  s.bytes(12 * 1024),
		ComputePerPhase: s.compute(900),
		ReduceBytes:     8,
	}
}

// Name implements App.
func (l *Lulesh) Name() string { return "Lulesh" }

// Placement implements App: 2 ranks per socket on all but two nodes, the
// paper's layout for the cubic rank-count requirement (64 ranks on 16 of the
// 18 nodes).
func (l *Lulesh) Placement(nodes int) (int, int) {
	use := nodes - 2
	if use < 1 {
		use = nodes
	}
	return 2, use
}

// IterateThen implements App.
func (l *Lulesh) IterateThen(r *mpisim.Rank, iter int, k mpisim.Cont) {
	neighbors := gridNeighbors(r.Rank(), r.Size(), 3)
	haloExchangeThen(r, neighbors, l.HaloBytes, 100, func() {
		r.ComputeThen(l.ComputePerPhase, func() {
			haloExchangeThen(r, neighbors, l.ForceHaloBytes, 200, func() {
				r.ComputeThen(l.ComputePerPhase, func() {
					r.AllreduceThen(l.ReduceBytes, k)
				})
			})
		})
	})
}

// MILC models the MIMD Lattice Computation conjugate-gradient solver
// (su3_rmd): every iteration applies the Dslash operator, which exchanges
// small halo surfaces with the neighbors of a 4-D lattice decomposition, with
// little computation in between, and finishes with a global reduction for the
// CG dot products.  Its many small, frequent messages make it sensitive to
// switch latency.
type MILC struct {
	// HaloBytes is the surface exchanged with each of the 8 lattice
	// neighbors per Dslash application.
	HaloBytes int
	// ComputePerPhase is the local su3 matrix-vector time per Dslash.
	ComputePerPhase sim.Duration
	// ReduceBytes is the CG dot-product allreduce size.
	ReduceBytes int
}

// NewMILC returns the MILC model at the given scale (lattice 16x32x32x36).
func NewMILC(s Scale) *MILC {
	s = s.valid()
	return &MILC{
		HaloBytes:       s.bytes(8 * 1024),
		ComputePerPhase: s.compute(60),
		ReduceBytes:     64,
	}
}

// Name implements App.
func (m *MILC) Name() string { return "MILC" }

// Placement implements App: 4 ranks per socket on every node.
func (m *MILC) Placement(nodes int) (int, int) { return 4, nodes }

// IterateThen implements App: two Dslash halo exchanges plus the CG
// reduction.
func (m *MILC) IterateThen(r *mpisim.Rank, iter int, k mpisim.Cont) {
	neighbors := gridNeighbors(r.Rank(), r.Size(), 4)
	haloExchangeThen(r, neighbors, m.HaloBytes, 300, func() {
		r.ComputeThen(m.ComputePerPhase, func() {
			haloExchangeThen(r, neighbors, m.HaloBytes, 400, func() {
				r.ComputeThen(m.ComputePerPhase, func() {
					r.AllreduceThen(m.ReduceBytes, k)
				})
			})
		})
	})
}
