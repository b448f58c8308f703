package main

import (
	"math"
	"testing"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values from Python: statistics.median(xs) and
	// statistics.quantiles(xs, n=4).
	cases := []struct {
		xs             []float64
		med, q1, q3    float64
		spreadOverMean float64
	}{
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 3.75, 1},
		{[]float64{5, 1, 4, 2, 3}, 3, 1.5, 4.5, 1},
		{[]float64{2.5, 9, 1, 7, 7, 3, 11, 4, 6, 8}, 6.5, 2.875, 8.25, (8.25 - 2.875) / 6.5},
		{[]float64{3, 1}, 2, 0.5, 3.5, 1.5},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
		if got := relativeSpread(c.xs); math.Abs(got-c.spreadOverMean) > 1e-12 {
			t.Errorf("relativeSpread(%v) = %v, want %v", c.xs, got, c.spreadOverMean)
		}
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one value = %v, %v", q1, q3)
	}
	if median(nil) != 0 || relativeSpread(nil) != 0 {
		t.Error("empty input must give zeros")
	}
}

func TestSupportedPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted input
		}
		return xs
	}
	cases := []struct {
		n      int
		ok     bool
		p, val float64
	}{
		{9, false, 0, 0},
		{19, false, 0, 0},   // the median leaves 9 samples above it
		{20, true, 50, 10},  // exactly 10 above the median
		{39, true, 50, 20},  // p75 leaves 9
		{40, true, 75, 30},  // p75 leaves 10
		{100, true, 90, 90}, // p95 leaves 5
		{200, true, 95, 190},
		{1000, true, 99, 990},
		{10000, true, 99.9, 9990},
	}
	for _, c := range cases {
		p, v, ok := supportedPercentile(seq(c.n))
		if ok != c.ok || p != c.p || v != c.val {
			t.Errorf("n=%d: got p%v=%v ok=%v, want p%v=%v ok=%v", c.n, p, v, ok, c.p, c.val, c.ok)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10.1, 9.9, 10}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * by
		}
		return out
	}
	cases := []struct {
		name  string
		base  []float64
		head  []float64
		bound float64
		lower bool
		want  string
	}{
		{"same runs", base, base, 0.1, true, verdictUnchanged},
		{"5% slower within a 10% bound", base, shift(base, 1.05), 0.1, true, verdictUnchanged},
		{"15% slower beyond a 10% bound", base, shift(base, 1.15), 0.1, true, verdictWorse},
		{"20% faster wins every pair", base, shift(base, 0.8), 0.1, true, verdictBetter},
		{"direction flips for higher-is-better", base, shift(base, 0.8), 0.1, false, verdictWorse},
		{"higher-is-better gain", base, shift(base, 1.2), 0.1, false, verdictBetter},
		{"spread wider than the bound", []float64{5, 15, 8, 12, 10}, []float64{10, 10, 10, 10, 10}, 0.1, true, verdictUnresolved},
		{"wide spread but every head run better", []float64{5, 15, 8, 12, 10}, []float64{4, 4, 4, 4, 4.9}, 0.1, true, verdictUnchanged},
		{"no runs", nil, base, 0.1, true, verdictUnresolved},
	}
	for _, c := range cases {
		if got := verdict(c.base, c.head, c.bound, c.lower); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
	// A gain on 8 of 10 pairs is not a claimable gain, however large.
	head := shift(base, 0.5)
	head[0], head[1] = 20, 20
	if got := verdict(base, head, 0.1, true); got == verdictBetter {
		t.Errorf("8/10 pair wins reported %s", got)
	}
}

func TestSpeedProbe(t *testing.T) {
	wall, cpu := speedProbe(2)
	if wall <= 0 || cpu < 0 {
		t.Errorf("speedProbe(2) = %v s wall, %v s CPU", wall, cpu)
	}
	// The loop allocates only its heap and map, so the probe does not
	// disturb the campaign's garbage collector.
	if allocs := testing.AllocsPerRun(2, func() { probeLoop() }); allocs > 100 {
		t.Errorf("probeLoop made %v allocations", allocs)
	}
}
