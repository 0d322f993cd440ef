package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a tail percentile for it to
// be reported: fewer than this and one outlier moves the figure.
const minBeyond = 10

// tailPerMille lists the tail percentiles the benchmark may report, highest
// first, in per-mille so the "samples beyond" arithmetic stays exact.
var tailPerMille = []int{999, 990, 900}

// tailChoice returns the highest of p99.9, p99 and p90 (in per-mille) that
// leaves at least minBeyond of n samples above it, and false when even p90
// does not.
func tailChoice(n int) (perMille int, ok bool) {
	for _, q := range tailPerMille {
		if n*(1000-q)/1000 >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// quantile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between closest ranks. It is NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// latencies summarizes one op class: its median and the tail percentile the
// sample count supports.
type latencies struct {
	n        int
	p50      float64
	tail     float64
	tailName string // "p99.9", "p99", "p90" or "" when n is too small
}

func summarize(xs []float64) latencies {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := latencies{n: len(s), p50: quantile(s, 0.5)}
	if q, ok := tailChoice(len(s)); ok {
		out.tail = quantile(s, float64(q)/1000)
		out.tailName = map[int]string{999: "p99.9", 990: "p99", 900: "p90"}[q]
	}
	return out
}

// median of an unsorted slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
