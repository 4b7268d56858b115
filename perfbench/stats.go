package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// trimmedMean returns the mean of xs without its lowest and highest
// tenth (0 for an empty slice). The end-to-end times use it in place of
// the median: a halo op's time scatters by a fifth from one op to the
// next, with how quickly its ranks happen to wake each other, and over
// the four to six passes a run makes of the long workloads the median
// flips with that scatter where the mean repeats; the trim keeps the
// rare stalled request of a long serve window out of it.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	k := len(s) / 10
	s = s[k : len(s)-k]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile of xs by the nearest-rank rule:
// the smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := nearestRank(p, len(s))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailLadder is the set of tail percentiles the report chooses from,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a tail percentile for it
// to be reported: fewer, and the "tail" is one or two unlucky samples.
const minBeyond = 10

// tailPercentile picks the highest percentile of the ladder, at most
// max, that leaves at least minBeyond of n samples above it, and returns
// it with that count. ok is false when even the median has fewer than
// minBeyond samples beyond it.
func tailPercentile(n int, max float64) (p float64, beyond int, ok bool) {
	for _, p := range tailLadder {
		if p > max {
			continue
		}
		rank := nearestRank(p, n)
		if b := n - rank; b >= minBeyond {
			return p, b, true
		}
	}
	return 0, 0, false
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetricName rejects names outside [A-Za-z0-9_.-] (or longer than
// 64 characters, or not starting with a letter or digit), which the
// result schema does not accept.
func checkMetricName(name string) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
	}
	return nil
}

// nearestRank is the 1-based rank of the p-th percentile of n samples,
// with a little slack so 99.9% of 100000 is rank 99900, not 99901.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}
