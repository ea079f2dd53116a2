package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile of xs. It refuses when
// fewer than minBeyond samples lie above it, because such a tail is a
// handful of runs, not a percentile.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, n-rank, minBeyond)
	}
	return sorted(xs)[rank-1], nil
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), so
// spreads read the same here as in any script checking the benchmark.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// adjust converts a host time measured while the reference loop took refMs
// into the time it would have taken on a host where the loop takes
// nominalMs: a slower moment of a shared host slows both alike.
func adjust(raw, refMs, nominalMs float64) float64 {
	return raw * nominalMs / refMs
}

// latHist is a log-bucketed histogram of virtual latencies. Buckets are
// 0.1% wide, so pooled percentiles over millions of requests cost a few
// thousand counters and stay exact functions of the simulated values.
type latHist struct {
	Buckets map[int]uint64 `json:"buckets"`
	N       uint64         `json:"n"`
}

const latBucketGrowth = 1.001

func (h *latHist) add(v float64) {
	if h.Buckets == nil {
		h.Buckets = make(map[int]uint64)
	}
	b := math.MinInt32
	if v > 0 {
		b = int(math.Floor(math.Log(v) / math.Log(latBucketGrowth)))
	}
	h.Buckets[b]++
	h.N++
}

func (h *latHist) merge(o latHist) {
	if h.Buckets == nil {
		h.Buckets = make(map[int]uint64)
	}
	for b, c := range o.Buckets {
		h.Buckets[b] += c
	}
	h.N += o.N
}

// percentile returns the geometric centre of the bucket holding the
// nearest-rank p-th percentile, with the same tail rule as percentile.
func (h *latHist) percentile(p float64) (float64, error) {
	rank := uint64(math.Ceil(p / 100 * float64(h.N)))
	if rank < 1 {
		rank = 1
	}
	if h.N < rank+minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, h.N, h.N-min(rank, h.N), minBeyond)
	}
	keys := make([]int, 0, len(h.Buckets))
	for b := range h.Buckets {
		keys = append(keys, b)
	}
	sort.Ints(keys)
	var seen uint64
	for _, b := range keys {
		seen += h.Buckets[b]
		if seen >= rank {
			if b == math.MinInt32 {
				return 0, nil
			}
			return math.Pow(latBucketGrowth, float64(b)+0.5), nil
		}
	}
	panic("unreachable: rank within N")
}
