package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, the median and the third quartile
// of xs by the method of Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), so the spreads this command reports are
// the ones that method gives. A single value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	ld := len(d)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q(1), median(d), q(3)
}

// median returns the middle value of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	k := len(d) / 2
	if len(d)%2 == 1 {
		return d[k]
	}
	return (d[k-1] + d[k]) / 2
}

// percentile returns the p-quantile (p in [0,1]) of xs by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	i := int(math.Ceil(p*float64(len(d)))) - 1
	return d[min(max(i, 0), len(d)-1)]
}
