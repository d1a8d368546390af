package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if got := median([]float64{1, 2, 3, 10}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of empty sample is not NaN")
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean = %v, want 4", got)
	}
	if !math.IsNaN(geomean([]float64{1, 0})) || !math.IsNaN(geomean(nil)) {
		t.Error("geomean accepted a non-positive or empty sample")
	}
}

func TestNormalise(t *testing.T) {
	got := normalise([]float64{10, 30}, []float64{5, 10})
	if !near(got[0], 2) || !near(got[1], 3) {
		t.Errorf("normalise = %v, want [2 3]", got)
	}
}

func TestLedgerResidual(t *testing.T) {
	est := map[string]float64{"dispatch": 60, "getptr": 25}
	if got := ledgerResidual(100, est); !near(got, 0.15) {
		t.Errorf("residual = %v, want 0.15", got)
	}
	if got := ledgerResidual(80, est); !near(got, -0.0625) {
		t.Errorf("over-explained residual = %v, want -0.0625", got)
	}
}
