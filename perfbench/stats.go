package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is
// not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// reportedPercentiles are the percentiles a timing may be reported
// at, highest last.
var reportedPercentiles = []float64{50, 90, 99, 99.9}

// samplesBeyond is how many of n samples rank above the p-th
// percentile.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(float64(n)*p/100-1e-9))
}

// highestPercentile returns the highest reported percentile that has
// at least ten of n samples beyond it, or 0 when even the median has
// fewer.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range reportedPercentiles {
		if samplesBeyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// ratio divides num by base. A ratio is only meaningful against a
// positive, measured base; anything else is an error, never an
// infinity or a silent zero.
func ratio(num, base float64) (float64, error) {
	if !(base > 0) || math.IsInf(base, 0) || math.IsNaN(num) {
		return 0, fmt.Errorf("ratio %g/%g: base must be positive and finite", num, base)
	}
	return num / base, nil
}

// exactRepeat checks that a count read the same in every repetition:
// counts the program makes at a fixed seed must not drift.
func exactRepeat(name string, vals []int64) error {
	for i, v := range vals {
		if v != vals[0] {
			return fmt.Errorf("%s: repetition %d reads %d, repetition 0 read %d", name, i, v, vals[0])
		}
	}
	return nil
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
