package main

import (
	"math"
	"slices"
)

// quantile returns the nearest-rank q-quantile (q in [0,1]) of xs, or
// 0 for an empty sample. It sorts a copy, so callers keep their order.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never
// reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// finite replaces +Inf — the latency of a failed, shed or dropped
// request — with a value JSON can carry.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return 1e12
	}
	return x
}
