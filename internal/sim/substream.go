package sim

import (
	"math"
	"math/bits"
	"strconv"
)

// Substream is a minimal deterministic random stream built on splitmix64.
// It exists for simulation hot paths that draw millions of variates: a draw
// is one 64-bit mix (a few arithmetic instructions, no heap state, no
// rejection loop), several times cheaper than math/rand, while staying fully
// reproducible for a fixed (kernel seed, name) pair.
//
// Substreams derive their state the same way Kernel.NewRand derives its
// seed — an FNV-64a hash of "seed/name" — so distinct names give independent
// streams.  The variate sequences differ from math/rand's for the same name;
// a client pinned to a byte-exact historical schedule (the network layer's
// strict oracle mode) must keep using NewRand.
type Substream struct {
	state uint64
}

// FNV-64a parameters, spelled out so substream derivation can run inline on
// hot paths without a heap-allocated hash.Hash64.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnvSeedPrefix hashes the "<seed>/" prefix every substream name is scoped
// under — byte-identical to FNV-64a over the fmt-rendered decimal seed, but
// with the digits staged in a stack buffer instead of a formatted string.
func fnvSeedPrefix(seed int64) uint64 {
	var buf [20]byte
	b := strconv.AppendInt(buf[:0], seed, 10)
	h := fnvOffset64
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return (h ^ '/') * fnvPrime64
}

// NewSubstream returns the deterministic substream identified by name.
func (k *Kernel) NewSubstream(name string) Substream {
	h := fnvSeedPrefix(k.seed)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * fnvPrime64
	}
	return Substream{state: h}
}

// NewSubstreamBytes is NewSubstream for callers that assemble the name in a
// reusable byte buffer: it derives the identical stream NewSubstream would
// for string(name), without materializing the string.  The network layer
// seeds one substream per flow this way; with names built in stack buffers
// the whole derivation is allocation-free.
func (k *Kernel) NewSubstreamBytes(name []byte) Substream {
	h := fnvSeedPrefix(k.seed)
	for _, c := range name {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return Substream{state: h}
}

// Uint64 returns the next 64 random bits (splitmix64).
func (s *Substream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63n returns a uniform variate in [0, n) for n > 0, via the unbiased*
// multiply-shift range reduction (*bias < 2^-64+lg n, far below anything a
// simulation statistic can resolve, and rejection-free so draw cost is
// constant).
func (s *Substream) Int63n(n int64) int64 {
	hi, _ := bits.Mul64(s.Uint64(), uint64(n))
	return int64(hi)
}

// Float64 returns a uniform variate in [0, 1).
func (s *Substream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponential variate with mean 1 via inversion.
func (s *Substream) ExpFloat64() float64 {
	return -math.Log(1 - s.Float64())
}
