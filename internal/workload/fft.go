package workload

import (
	"github.com/hpcperf/switchprobe/internal/mpisim"
	"github.com/hpcperf/switchprobe/internal/sim"
)

// FFTW models the 2-D FFT of a 2000x2000 complex matrix (the paper's FFTW
// workload): every iteration performs two distributed transposes (alltoall)
// with only the local 1-D FFT computation between them.  It is the most
// communication-bound application in the set.
type FFTW struct {
	// TotalBytes is the distributed matrix size in bytes.
	TotalBytes float64
	// ComputePerPhase is the local FFT time between transposes.
	ComputePerPhase sim.Duration
}

// NewFFTW returns the FFTW model at the given scale.  The paper's problem is
// a 2000x2000 matrix of 16-byte complex values (64 MB).
func NewFFTW(s Scale) *FFTW {
	s = s.valid()
	return &FFTW{
		TotalBytes:      2000 * 2000 * 16 * s.Volume,
		ComputePerPhase: s.compute(80),
	}
}

// Name implements App.
func (f *FFTW) Name() string { return "FFTW" }

// Placement implements App: 4 ranks per socket on every node.
func (f *FFTW) Placement(nodes int) (int, int) { return 4, nodes }

// Rank implements App: transpose, local FFTs, transpose back, local FFTs.
func (f *FFTW) Rank(r *mpisim.Rank) Loop {
	perPair := transposeBytes(f.TotalBytes, r.Size())
	var k mpisim.Cont
	fftBack := func() { r.ComputeThen(f.ComputePerPhase, k) }
	back := func() { r.AlltoallThen(perPair, fftBack) }
	fft := func() { r.ComputeThen(f.ComputePerPhase, back) }
	return func(_ int, next mpisim.Cont) {
		k = next
		r.AlltoallThen(perPair, fft)
	}
}

// transposeBytes is the per-pair alltoall size of a distributed transpose of
// total bytes over n ranks.
func transposeBytes(total float64, n int) int {
	perPair := int(total / float64(n) / float64(n))
	if perPair < 1 {
		perPair = 1
	}
	return perPair
}

// VPFFT models the elasto-viscoplastic crystal plasticity solver: like FFTW
// it performs distributed FFT transposes of several field components, but
// between the two communication phases it runs an expensive local
// constitutive-model update whose cost varies between iterations.  The
// variation is what produces the slowdown oscillations the paper observes.
type VPFFT struct {
	// TotalBytes is the aggregate size of the transformed fields.
	TotalBytes float64
	// ComputePerPhase is the mean constitutive-update time per phase.
	ComputePerPhase sim.Duration
	// ComputeSpread is the fractional iteration-to-iteration variation of the
	// compute phases (e.g. 0.35 for ±35%).
	ComputeSpread float64
	// ConvergenceBytes is the size of the per-iteration convergence
	// reduction.
	ConvergenceBytes int
}

// NewVPFFT returns the VPFFT model at the given scale.
func NewVPFFT(s Scale) *VPFFT {
	s = s.valid()
	return &VPFFT{
		TotalBytes:       2.0 * 2000 * 2000 * 16 * s.Volume,
		ComputePerPhase:  s.compute(450),
		ComputeSpread:    0.35,
		ConvergenceBytes: 256,
	}
}

// Name implements App.
func (v *VPFFT) Name() string { return "VPFFT" }

// Placement implements App: 4 ranks per socket on every node.
func (v *VPFFT) Placement(nodes int) (int, int) { return 4, nodes }

// Rank implements App: transpose, constitutive update, transpose back,
// constitutive update, convergence reduction.
func (v *VPFFT) Rank(r *mpisim.Rank) Loop {
	perPair := transposeBytes(v.TotalBytes, r.Size())
	var (
		k       mpisim.Cont
		compute sim.Duration
	)
	reduce := func() { r.AllreduceThen(v.ConvergenceBytes, k) }
	second := func() { r.ComputeThen(compute, reduce) }
	back := func() { r.AlltoallThen(perPair, second) }
	first := func() { r.ComputeThen(compute, back) }
	return func(iter int, next mpisim.Cont) {
		k = next
		// Iteration-dependent compute factor in [1-spread, 1+spread]; the
		// pattern is deterministic and identical on all ranks so the
		// bulk-synchronous structure is preserved.
		phase := float64((iter*2654435761)%1000) / 1000.0
		factor := 1 + v.ComputeSpread*(2*phase-1)
		compute = sim.Duration(float64(v.ComputePerPhase) * factor)
		r.AlltoallThen(perPair, first)
	}
}
