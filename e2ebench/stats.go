package main

import (
	"math"
	"sort"
	"time"
)

// minTailSamples is how many samples must lie beyond a percentile before
// it is reported as a tail: fewer than that and the "tail" is one or two
// unlucky requests.
const minTailSamples = 10

// tailPercentile is the highest whole percentile p with at least
// minTailSamples of n samples beyond it, i.e. n·(100−p)/100 ≥ 10. It
// returns 0 when n < minTailSamples (no percentile qualifies).
func tailPercentile(n int) int {
	if n < minTailSamples {
		return 0
	}
	p := 100 - int(math.Ceil(100*minTailSamples/float64(n)))
	if p < 0 {
		return 0
	}
	return p
}

// percentile returns the nearest-rank p-th percentile of samples (which
// it sorts in place): the smallest value with at least p% of the samples
// at or below it. It returns 0 for an empty slice.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p / 100 * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	return samples[rank-1]
}

// median is the 50th percentile, averaging the two middle values of an
// even-sized sample so that it does not lean to either side.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// perReq divides a run total by the number of requests that produced it,
// reading 0 for a run that completed none rather than dividing by zero.
func perReq(total float64, requests int) float64 {
	if requests <= 0 {
		return 0
	}
	return total / float64(requests)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
