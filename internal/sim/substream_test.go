package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"testing"
)

// TestSubstreamSplitmix64Reference pins Uint64 to the published splitmix64
// reference outputs for states 0 and 1234567, so the inlined increment and
// mixing constants can never drift from the generator every relaxed-mode
// schedule was drawn from.
func TestSubstreamSplitmix64Reference(t *testing.T) {
	cases := []struct {
		state uint64
		want  []uint64
	}{
		{0, []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec, 0x1b39896a51a8749b}},
		{1234567, []uint64{6457827717110365317, 3203168211198807973, 9817491932198370423, 4593380528125082431, 16408922859458223821}},
	}
	for _, c := range cases {
		s := Substream{state: c.state}
		for i, want := range c.want {
			if got := s.Uint64(); got != want {
				t.Fatalf("state %d draw %d = %#x, splitmix64 reference %#x", c.state, i, got, want)
			}
		}
	}
}

// TestSubstreamConversionHelpers pins Int63n and Float64 to the raw-draw
// arithmetic they apply — multiply-shift range reduction and the top 53 bits
// scaled into [0, 1) — so a change of conversion (say, to rejection
// sampling) cannot silently re-draw historical schedules.
func TestSubstreamConversionHelpers(t *testing.T) {
	k := NewKernel(11)
	a := k.NewSubstream("conv-test")
	b := k.NewSubstream("conv-test")
	for i := 0; i < 1000; i++ {
		hi, _ := bits.Mul64(b.Uint64(), 241)
		if g, w := a.Int63n(241), int64(hi); g != w {
			t.Fatalf("Int63n draw %d: method %d, raw-draw arithmetic %d", i, g, w)
		}
		if g, w := a.Float64(), float64(b.Uint64()>>11)/(1<<53); g != w {
			t.Fatalf("Float64 draw %d: method %v, raw-draw arithmetic %v", i, g, w)
		}
	}
}

// TestSubstreamVariateRanges checks every variate stays in its documented
// range, including the degenerate and widest Int63n bounds, and that
// ExpFloat64 has mean 1.
func TestSubstreamVariateRanges(t *testing.T) {
	s := NewKernel(3).NewSubstream("range-test")
	for _, n := range []int64{1, 2, 241, 1 << 40, math.MaxInt64} {
		for i := 0; i < 2000; i++ {
			if v := s.Int63n(n); v < 0 || v >= n {
				t.Fatalf("Int63n(%d) = %d, outside [0, %d)", n, v, n)
			}
		}
	}
	var sum float64
	const draws = 20000
	for i := 0; i < draws; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v, outside [0, 1)", f)
		}
		e := s.ExpFloat64()
		if e < 0 || math.IsInf(e, 0) || math.IsNaN(e) {
			t.Fatalf("ExpFloat64 = %v, not a finite non-negative variate", e)
		}
		sum += e
	}
	// Mean 1 with unit variance: ±0.05 is about 7 standard errors at 20000
	// draws.  The stream is deterministic, so this is a fixed check, not a
	// flaky one.
	if mean := sum / draws; math.Abs(mean-1) > 0.05 {
		t.Fatalf("ExpFloat64 sample mean %.4f, want ≈ 1", mean)
	}
}

// TestSubstreamDerivation pins the inline FNV-64a seeding to the reference
// hash/fnv implementation it replaced, across seed signs and name shapes, and
// pins NewSubstreamBytes to NewSubstream: historical relaxed-mode schedules
// key every flow's variate sequence off this exact derivation, so it may
// never drift.
func TestSubstreamDerivation(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, 1000, -1, -987654321, 1<<62 + 3} {
		k := NewKernel(seed)
		for _, name := range []string{"", "fill-test", "flow/17/bulk/3", "flow/0//-5"} {
			h := fnv.New64a()
			fmt.Fprintf(h, "%d/%s", seed, name)
			want := h.Sum64()
			if got := k.NewSubstream(name).state; got != want {
				t.Fatalf("seed %d name %q: inline hash %#x, hash/fnv reference %#x", seed, name, got, want)
			}
			if got := k.NewSubstreamBytes([]byte(name)).state; got != want {
				t.Fatalf("seed %d name %q: NewSubstreamBytes %#x, NewSubstream %#x", seed, name, got, want)
			}
		}
	}
}
