package main

import (
	"math"
	"sort"
)

// summary is a sample's size, median and quartiles.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sorted(xs)
	q1, med, q3 := quartiles(s)
	return summary{N: len(s), Median: med, Q1: q1, Q3: q3}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles of sorted data by the exclusive method, the default of
// Python's statistics.quantiles, so spreads read the same in both.
func quartiles(s []float64) (q1, med, q3 float64) {
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// percentile of unsorted data by linear interpolation between ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
