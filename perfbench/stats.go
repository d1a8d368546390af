package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks (the "inclusive" method). It
// does not reorder xs. An empty sample yields NaN.
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

// geomean is the geometric mean of strictly positive values; NaN when
// xs is empty or holds a non-positive value.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// normalise divides each pass time by the time of its partner in the
// same round (the calibration loop, or the baseline arm), so
// machine-speed drift between rounds cancels.
func normalise(pass, calib []float64) []float64 {
	out := make([]float64, len(pass))
	for i := range pass {
		out[i] = pass[i] / calib[i]
	}
	return out
}

// ledgerResidual is the share of the measured time that the per-layer
// estimates leave unexplained: (measured - sum(estimates)) / measured.
func ledgerResidual(measured float64, estimates map[string]float64) float64 {
	sum := 0.0
	for _, v := range estimates {
		sum += v
	}
	return (measured - sum) / measured
}
