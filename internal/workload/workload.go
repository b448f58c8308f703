// Package workload provides communication-skeleton models of the six HPC
// applications the paper evaluates (AMG, FFTW, Lulesh, MCB, MILC, VPFFT).
//
// The paper's methodology does not depend on what the applications compute,
// only on how they use the switch: message sizes, communication patterns
// (alltoall, halo exchange, collectives), how much computation separates the
// communication phases, and how this structure repeats over iterations.  Each
// model reproduces the character described in Section II of the paper:
//
//   - FFTW — alltoall-dominated 2-D FFT transposes with very little compute
//     between them (most network-sensitive).
//   - VPFFT — the same alltoall structure with expensive computation between
//     communication phases (sensitive, with more variance).
//   - MILC — conjugate-gradient iterations with frequent small neighbor
//     exchanges and a global reduction every iteration (latency-sensitive).
//   - Lulesh — 3-D stencil halo exchanges interleaved with heavy compute
//     (mildly sensitive).
//   - MCB — Monte Carlo transport: almost entirely compute with rare,
//     bursty particle migrations (insensitive, but visible to probes).
//   - AMG — multigrid V-cycles alternating compute-heavy dense phases with
//     sparse phases that send many small messages (insensitive overall).
//
// All data volumes and compute grains can be scaled down so the same models
// drive both paper-scale benchmarks and fast CI tests.
package workload

import (
	"fmt"
	"math"
	"sort"

	"github.com/hpcperf/switchprobe/internal/mpisim"
	"github.com/hpcperf/switchprobe/internal/sim"
)

// App is one application model.  One outer iteration is executed by every
// rank in a loop; the measurement harness times iterations to obtain the
// application's performance under different network conditions.
type App interface {
	// Name is the application's short name (e.g. "FFTW").
	Name() string
	// Placement returns the process layout the paper uses for this
	// application given the number of nodes attached to the switch:
	// ranks-per-socket and how many of the nodes to use.
	Placement(nodes int) (ranksPerSocket, useNodes int)
	// IterateThen runs one outer iteration of the application on rank r in
	// continuation-passing style, continuing with k when the iteration
	// completes.  iter is the iteration index (some applications change
	// behaviour across iterations, e.g. AMG's phases).
	IterateThen(r *mpisim.Rank, iter int, k mpisim.Cont)
}

// Scale adjusts problem sizes so the models can run at paper scale or at a
// reduced test scale.
type Scale struct {
	// Volume scales communication data volumes (1 = paper-like sizes).
	Volume float64
	// Compute scales per-iteration computation times (1 = paper-like).
	Compute float64
}

// FullScale is the paper-like problem size.
var FullScale = Scale{Volume: 1, Compute: 1}

// Reduced returns a reduced scale for fast tests and exploration.  Data
// volumes shrink by f while compute shrinks only by sqrt(f): communication
// cost has a fixed latency component that does not shrink with message size,
// so scaling compute more gently keeps each application's
// communication-to-computation character close to its full-scale behaviour.
func Reduced(f float64) Scale {
	if f <= 0 {
		return FullScale
	}
	if f > 1 {
		f = 1
	}
	return Scale{Volume: f, Compute: math.Sqrt(f)}
}

// valid clamps nonsensical scale factors to something usable.
func (s Scale) valid() Scale {
	if s.Volume <= 0 {
		s.Volume = 1
	}
	if s.Compute <= 0 {
		s.Compute = 1
	}
	return s
}

// bytes scales a byte count, keeping at least one byte.
func (s Scale) bytes(b float64) int {
	v := int(b * s.Volume)
	if v < 1 {
		v = 1
	}
	return v
}

// compute scales a duration expressed in microseconds.
func (s Scale) compute(us float64) sim.Duration {
	return sim.DurationOfMicros(us * s.Compute)
}

// Registry returns the six applications of the paper's evaluation at the
// given scale, in the order used throughout the paper's tables and figures.
func Registry(s Scale) []App {
	s = s.valid()
	return []App{
		NewFFTW(s),
		NewLulesh(s),
		NewMCB(s),
		NewMILC(s),
		NewVPFFT(s),
		NewAMG(s),
	}
}

// Names returns the application names in registry order.
func Names() []string {
	return []string{"FFTW", "Lulesh", "MCB", "MILC", "VPFFT", "AMG"}
}

// ByName returns the named application at the given scale.
func ByName(name string, s Scale) (App, error) {
	for _, a := range Registry(s) {
		if a.Name() == name {
			return a, nil
		}
	}
	valid := Names()
	sort.Strings(valid)
	return nil, fmt.Errorf("workload: unknown application %q (valid: %v)", name, valid)
}

// --- shared communication building blocks ----------------------------------

// haloExchangeThen posts non-blocking sends and receives of size bytes with
// every neighbor and waits for all of them, then continues with k — the
// standard stencil boundary exchange.  All messages of one exchange share the
// same tag and are disambiguated by their source rank, so the two sides of
// each pair need not enumerate their neighbors in the same order.
func haloExchangeThen(r *mpisim.Rank, neighbors []int, size, tag int, k mpisim.Cont) {
	reqs := make([]*mpisim.Request, 0, 2*len(neighbors))
	for _, nb := range neighbors {
		reqs = append(reqs, r.Irecv(nb, tag))
		reqs = append(reqs, r.Isend(nb, tag, size))
	}
	r.WaitAllThen(k, reqs...)
}

// gridNeighbors returns the 2*dims neighbors of rank in a periodic Cartesian
// grid factored as evenly as possible over the world size.
func gridNeighbors(rank, size, dims int) []int {
	shape := factorGrid(size, dims)
	coords := rankToCoords(rank, shape)
	var out []int
	for d := 0; d < len(shape); d++ {
		if shape[d] == 1 {
			continue
		}
		for _, dir := range []int{-1, +1} {
			c := append([]int(nil), coords...)
			c[d] = (c[d] + dir + shape[d]) % shape[d]
			nb := coordsToRank(c, shape)
			if nb != rank {
				out = append(out, nb)
			}
		}
	}
	if len(out) == 0 && size > 1 {
		out = append(out, (rank+1)%size)
	}
	return out
}

// factorGrid factors n into dims factors as close to each other as possible.
func factorGrid(n, dims int) []int {
	shape := make([]int, dims)
	for i := range shape {
		shape[i] = 1
	}
	remaining := n
	for d := 0; d < dims; d++ {
		// Choose the largest factor <= the dims-d th root of remaining.
		target := intRoot(remaining, dims-d)
		f := 1
		for c := target; c >= 1; c-- {
			if remaining%c == 0 {
				f = c
				break
			}
		}
		shape[d] = f
		remaining /= f
	}
	shape[dims-1] *= remaining
	return shape
}

// intRoot returns the integer k-th root of n (floor).
func intRoot(n, k int) int {
	if k <= 1 {
		return n
	}
	r := 1
	for (r+1)*pow(r+1, k-1) <= n {
		r++
	}
	if r < 1 {
		r = 1
	}
	return r
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}

func rankToCoords(rank int, shape []int) []int {
	coords := make([]int, len(shape))
	for d := len(shape) - 1; d >= 0; d-- {
		coords[d] = rank % shape[d]
		rank /= shape[d]
	}
	return coords
}

func coordsToRank(coords, shape []int) int {
	rank := 0
	for d := 0; d < len(shape); d++ {
		rank = rank*shape[d] + coords[d]
	}
	return rank
}
