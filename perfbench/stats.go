package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a percentile resting on fewer is noise, so percentile refuses it.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses, with an error, when fewer than minBeyond samples lie beyond
// the rank: p50 needs 20 samples, p90 100, p99 1000.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, max(n-rank, 0), minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sample collects named timings and reports percentiles under the
// minBeyond rule; the first refusal is kept so a run that could not
// gather enough samples fails loudly instead of reporting noise.
type sample struct {
	name string
	xs   []float64
}

func (s *sample) add(v float64) { s.xs = append(s.xs, v) }

// pct returns the q-quantile or records the refusal in errs.
func (s *sample) pct(q float64, errs *[]error) float64 {
	v, err := percentile(s.xs, q)
	if err != nil {
		*errs = append(*errs, fmt.Errorf("%s: %w", s.name, err))
	}
	return v
}
