package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
)

// minBeyond is how many samples must lie beyond a reported percentile for
// it to count as measured rather than extrapolated.
const minBeyond = 10

// rank returns the nearest-rank index of percentile p (0 < p <= 100) in a
// sorted sample of n values: the smallest k such that at least p% of the
// sample is <= sorted[k].
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n)/100-1e-9)) - 1 // tolerance for p*n landing just above an integer
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// percentile returns the nearest-rank p-th percentile of sorted and the
// number of samples strictly beyond its rank.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	k := rank(len(sorted), p)
	return sorted[k], len(sorted) - 1 - k
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// highestSupported returns the highest candidate percentile that still has
// at least minBeyond samples beyond it (0 when even the median has fewer).
func highestSupported(n int) float64 {
	for _, p := range tailPercentiles {
		if n-1-rank(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// sample is a set of measurements of one quantity.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

func (s sample) median() float64 {
	v, _ := percentile(s.sorted(), 50)
	return v
}

// metric is one reported number with its unit and the sample it came from.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// n and note are printed in the human-readable record only.
	n    int
	note string
}

// metrics is an ordered set of named metrics.
type metrics struct {
	names []string
	m     map[string]metric
}

func newMetrics() *metrics { return &metrics{m: map[string]metric{}} }

func (ms *metrics) set(name, unit string, v float64, n int, note string) {
	if _, ok := ms.m[name]; !ok {
		ms.names = append(ms.names, name)
	}
	ms.m[name] = metric{Value: v, Unit: unit, n: n, note: note}
}

// latency records p50 and p99 of a latency sample (in ms) under the given
// names, with the sample count and how many samples lie beyond the p99.
func (ms *metrics) latency(p50Name, p99Name string, lat sample) {
	s := lat.sorted()
	p50, _ := percentile(s, 50)
	p99, beyond := percentile(s, 99)
	ms.set(p50Name, "ms", p50, len(s), "")
	note := fmt.Sprintf("%d beyond", beyond)
	if beyond < minBeyond {
		note += fmt.Sprintf("; highest supported percentile p%g", highestSupported(len(s)))
	}
	ms.set(p99Name, "ms", p99, len(s), note)
}

// peakRSSMB is the process's resident-set high-water mark in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
