package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so the spreads this command reports match an external recomputation from
// the same values.  With fewer than two values both quartiles equal the only
// value (0 for none).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// percentiles are the candidate tail percentiles a timing is reported at.
var percentiles = []float64{50, 75, 90, 95, 99, 99.9}

// supportedPercentile returns the highest candidate percentile that has at
// least ten samples beyond it, and its nearest-rank value.  ok is false when
// even the median has fewer than ten samples above it.
func supportedPercentile(xs []float64) (p, v float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, cand := range percentiles {
		// Nearest rank; the epsilon keeps 99.9% of 10000 at 9990, not 9991.
		rank := int(math.Ceil(cand/100*float64(n) - 1e-9))
		if rank < 1 || n-rank < 10 {
			break
		}
		p, v, ok = cand, s[rank-1], true
	}
	return p, v, ok
}

// relativeSpread is the interquartile range of xs as a share of its median
// (0 when the median is 0).
func relativeSpread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// describe renders a timing the way every report line shows it: median,
// quartiles, sample count and the supported tail percentile.
func describe(xs []float64, unit string) string {
	q1, q3 := quartiles(xs)
	out := fmt.Sprintf("median %.6g %s  q1 %.6g  q3 %.6g  n=%d", median(xs), unit, q1, q3, len(xs))
	if p, v, ok := supportedPercentile(xs); ok {
		out += fmt.Sprintf("  p%g %.6g", p, v)
	} else {
		out += "  (no percentile has 10 samples beyond it)"
	}
	return out
}

// Verdicts of a base/head comparison of one metric on one workload.
const (
	verdictBetter     = "better"
	verdictUnchanged  = "unchanged"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict compares per-run values of one metric between a base (parent)
// and a head (change), pairing base[i] with head[i] as the A/B protocol
// runs them:
//
//   - better: the head wins at least 9 of every 10 pairs and the medians
//     differ, in the head's favour, by more than the base's interquartile
//     range;
//   - worse: the head's median is worse than the base's by more than bound
//     (a share of the base median);
//   - unresolved: neither of the above, and the base's run-to-run spread is
//     wider than the bound, unless every head run beats every base run;
//   - unchanged: otherwise.
func verdict(base, head []float64, bound float64, lowerIsBetter bool) string {
	if len(base) == 0 || len(head) == 0 {
		return verdictUnresolved
	}
	// gain is positive when the head improves on the base.
	gain := func(b, h float64) float64 {
		if lowerIsBetter {
			return b - h
		}
		return h - b
	}
	mb, mh := median(base), median(head)
	pairs := len(base)
	if len(head) < pairs {
		pairs = len(head)
	}
	wins := 0
	for i := 0; i < pairs; i++ {
		if gain(base[i], head[i]) > 0 {
			wins++
		}
	}
	q1, q3 := quartiles(base)
	if 10*wins >= 9*pairs && gain(mb, mh) > q3-q1 {
		return verdictBetter
	}
	if mb != 0 && -gain(mb, mh)/math.Abs(mb) > bound {
		return verdictWorse
	}
	allBetter := true
	for _, b := range base {
		for _, h := range head {
			if gain(b, h) <= 0 {
				allBetter = false
			}
		}
	}
	if relativeSpread(base) > bound && !allBetter {
		return verdictUnresolved
	}
	return verdictUnchanged
}
