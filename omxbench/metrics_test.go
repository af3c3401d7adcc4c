package main

import (
	"math"
	"testing"

	"omxsim/internal/report"
)

func TestHistUSInterpolatesWithinBuckets(t *testing.T) {
	var h report.Hist
	var ns []int64
	for v := int64(1000); v < 101_000; v += 7 {
		h.Record(v)
		ns = append(ns, v)
	}
	prev := 0.0
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		got, want := histUS(&h, q), exactUS(ns, q)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("q=%g: %.3fµs, exact %.3fµs", q, got, want)
		}
		if got < prev {
			t.Errorf("q=%g: %.3fµs below the previous quantile %.3fµs", q, got, prev)
		}
		prev = got
		if b := h.QuantileUS(q); got > b {
			t.Errorf("q=%g: %.3fµs above the bucket bound %.3fµs", q, got, b)
		}
	}
}

func TestHistUSSmallSamples(t *testing.T) {
	var h report.Hist
	if got := histUS(&h, 0.5); got != 0 {
		t.Errorf("empty histogram: %v, want 0", got)
	}
	ns := []int64{5, 9, 9, 40}
	for _, v := range ns {
		h.Record(v)
	}
	for _, q := range []float64{0.25, 0.5, 0.75, 1} {
		got, want := histUS(&h, q), exactUS(ns, q)
		if got > want || got < want*(1-1.0/32) {
			t.Errorf("q=%g: %v, want within 1/32 below %v", q, got, want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for q, want := range map[float64]float64{0: 1, 0.5: 2.5, 0.75: 3.25, 1: 4} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v, %g) = %v, want %v", xs, q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}
