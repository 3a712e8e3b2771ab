package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count), 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailSamples is how many samples must lie beyond a reported tail.
const tailSamples = 10

// tail returns the highest order statistic with at least tailSamples
// samples beyond it, the percentile that order statistic stands for, and
// the sample count. With too few samples for any such percentile it falls
// back to the maximum (percentile 100).
func tail(xs []float64) (value, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := n - 1 - tailSamples
	if i < 0 {
		i = n - 1
	}
	return s[i], 100 * float64(i+1) / float64(n), n
}

// percentile returns the q-quantile order statistic of xs (nearest rank),
// with the percentile it stands for and the sample count.
func percentile(xs []float64, q float64) (value, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], 100 * float64(i+1) / float64(n), n
}

// geomean is the geometric mean of positive ratios, 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// histQuantile estimates quantile q from cumulative bucket counts the way
// Prometheus' histogram_quantile does: linear interpolation inside the
// bucket the rank falls in. bounds are upper bounds; the last may be +Inf.
func histQuantile(q float64, bounds []float64, cum []float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	rank := q * cum[len(cum)-1]
	for i, c := range cum {
		if c < rank {
			continue
		}
		lo, prev := 0.0, 0.0
		if i > 0 {
			lo, prev = bounds[i-1], cum[i-1]
		}
		hi := bounds[i]
		if math.IsInf(hi, 1) {
			return lo
		}
		if c == prev {
			return hi
		}
		return lo + (hi-lo)*(rank-prev)/(c-prev)
	}
	return bounds[len(bounds)-1]
}

// segmentSamples is how many samples a latency segment should hold; a
// phase is cut into at most maxSegments segments of about this size.
const (
	segmentSamples = 100
	maxSegments    = 100
)

// timed is one latency sample with the time it was due.
type timed struct {
	at  time.Duration
	val float64
}

// latencySummary is a phase's latency: the median over consecutive time
// segments of each segment's median and tail, so that one stalled second
// moves the result by one segment's vote, not by its full weight.
type latencySummary struct {
	p50, tail float64
	pct       float64 // mean percentile the segment tails stand for
	n         int     // samples in the phase
	segments  int
}

func summarize(samples []timed, span time.Duration) latencySummary {
	k := len(samples) / segmentSamples
	k = max(1, min(k, maxSegments))
	buckets := make([][]float64, k)
	for _, s := range samples {
		i := int(int64(k) * int64(s.at) / int64(span))
		buckets[min(max(i, 0), k-1)] = append(buckets[min(max(i, 0), k-1)], s.val)
	}
	var p50s, tails, pcts []float64
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		v, pct, _ := tail(b)
		p50s = append(p50s, median(b))
		tails = append(tails, v)
		pcts = append(pcts, pct)
	}
	mean := 0.0
	for _, p := range pcts {
		mean += p / float64(len(pcts))
	}
	return latencySummary{p50: median(p50s), tail: median(tails), pct: mean, n: len(samples), segments: len(p50s)}
}
