package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64 // NaN: refused
	}{
		{19, 0.5, math.NaN()},
		{20, 0.5, 10},
		{99, 0.9, math.NaN()},
		{100, 0.9, 90},
		{999, 0.99, math.NaN()},
		{1000, 0.99, 990},
		{0, 0.5, math.NaN()},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.q)
		if math.IsNaN(c.want) {
			if err == nil {
				t.Errorf("p%g of %d samples = %v, want a refusal", c.q*100, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", c.q*100, c.n, got, err, c.want)
		}
	}
}

func TestSampleRecordsRefusal(t *testing.T) {
	s := sample{name: "x", xs: seq(5)}
	var errs []error
	s.pct(0.5, &errs)
	if len(errs) != 1 {
		t.Fatalf("got %d errors, want the refusal recorded", len(errs))
	}
}
