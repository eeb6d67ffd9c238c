package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice by
// linear interpolation between the two nearest ranks; 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + (sorted[lo+1]-sorted[lo])*frac
}

// median sorts a copy of vs and returns its 0.5-quantile.
func median(vs []float64) float64 {
	cp := append([]float64(nil), vs...)
	sort.Float64s(cp)
	return quantile(cp, 0.5)
}

// slowMean returns the mean of the slowest share (0 < share ≤ 1) of an
// ascending slice — at least one sample. It is the tail figure the
// benchmark gates on: unlike p99 or max it averages over many samples and
// so repeats run to run.
func slowMean(sorted []float64, share float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(share * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	var sum float64
	for _, v := range sorted[n-k:] {
		sum += v
	}
	return sum / float64(k)
}

// quartiles returns the first quartile, median and third quartile of vs the
// way Python's statistics.quantiles(vs, n=4) does (the exclusive method), so
// the -compare table reads the same as the driver's acceptance check.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	cp := append([]float64(nil), vs...)
	sort.Float64s(cp)
	n := len(cp)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return cp[0], cp[0], cp[0]
	}
	at := func(i int) float64 { // i in 1..3
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return cp[j-1] + (cp[j]-cp[j-1])*delta
	}
	return at(1), at(2), at(3)
}

func toFloats(ds []int64, scale float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / scale
	}
	return out
}
