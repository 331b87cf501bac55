package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// hist is a fixed-size log-linear latency histogram: 64 sub-buckets per
// octave, so a bucket is at most 1.6 % wide, and quantiles interpolate inside
// the bucket. internal/stats.Histogram is 8 per octave (9 % error), wider
// than the 7 % regression bound the p50 metrics carry. Recording never
// allocates; each worker owns its own and they are merged after the run.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	// 2^36 ns is 68 s; anything slower lands in the last bucket.
	histOctaves = 36 - histSubBits
	histBuckets = (histOctaves + 1) * histSub
)

func histBucket(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	e := bits.Len64(ns) - histSubBits - 1 // ns>>e is in [64, 128)
	if e >= histOctaves {
		return histBuckets - 1
	}
	return (e+1)*histSub + int(ns>>uint(e))&(histSub-1)
}

// histLow is the smallest value that lands in bucket b.
func histLow(b int) float64 {
	if b < histSub {
		return float64(b)
	}
	e := b/histSub - 1
	return float64(uint64(histSub+b%histSub) << uint(e))
}

func (h *hist) record(d time.Duration) {
	h.counts[histBucket(uint64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside the bucket that holds it; NaN when the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n)
	var seen float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := histLow(b), histLow(b+1)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return histLow(histBuckets)
}

// quartiles follows Python's statistics.quantiles(v, n=4) (the "exclusive"
// method the driver uses), so spreads printed here match the driver's.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - 4*float64(j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	return at(1), at(2), at(3)
}

// medianSpread returns the median of v and its inter-quartile range as a
// share of that median.
func medianSpread(v []float64) (median, spread float64) {
	if len(v) == 0 {
		return math.NaN(), math.NaN()
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return q2, 0
	}
	return q2, (q3 - q1) / math.Abs(q2)
}

// exactQuantile sorts v in place and returns its q-quantile.
func exactQuantile(v []int64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	pos := q * float64(len(v)-1)
	i := int(pos)
	if i+1 >= len(v) {
		return float64(v[len(v)-1])
	}
	return float64(v[i]) + (pos-float64(i))*float64(v[i+1]-v[i])
}
