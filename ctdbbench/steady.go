package main

import (
	"fmt"
	"sort"
)

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// figures match what a reader computes from the printed values.
func quartiles(xs []float64) (float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// steadiness runs every workload (or only the named one) n times on
// seeds first..first+n-1 and prints, per
// end-to-end metric, the median, the quartiles, the interquartile
// distance and the max-min spread as shares of the median. The bounds
// in BENCHMARK.json are set from these figures.
func (b *bench) steadiness(n int, first int64, only string) error {
	names := []string{"query", "register", "stream"}
	if only != "" {
		names = []string{only}
	}
	for _, name := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		for seed := first; seed < first+int64(n); seed++ {
			res, err := b.endToEnd(name, seed)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s seed %d: correct=%t failed=%d", name, seed, res.Correct, res.Failed)
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
		}
		fmt.Printf("\n%s (%d seeds)\n%-14s %-5s %12s %12s %12s %8s %8s\n", name, n, "metric", "unit", "median", "q1", "q3", "iqr/med", "rng/med")
		for _, k := range sortedKeys(values) {
			v := values[k]
			med := median(v)
			q1, q3 := quartiles(v)
			lo, hi := v[0], v[0]
			for _, x := range v {
				lo, hi = min(lo, x), max(hi, x)
			}
			fmt.Printf("%-14s %-5s %12.4f %12.4f %12.4f %8.3f %8.3f\n", k, units[k], med, q1, q3, (q3-q1)/med, (hi-lo)/med)
		}
	}
	return nil
}
