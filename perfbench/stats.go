package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is one slow outlier, not a tail.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// typicalLatency is the geometric mean over jobs of each job's median
// latency, where byJob[i] holds job i's latencies over the passes. It
// stands for latency_p50_ms on the pipeline workloads: their jobs are
// a few graphs of very different sizes, so the median job is one or two
// graphs, and it moved more than any other figure when the host did.
func typicalLatency(byJob [][]float64) float64 {
	logSum := 0.0
	for _, xs := range byJob {
		logSum += math.Log(median(xs))
	}
	return math.Exp(logSum / float64(len(byJob)))
}

// tail returns the 99th percentile of xs (nearest rank) when at least
// minBeyond samples lie above it, and otherwise the maximum, which is
// what a run of a few dozen pipeline jobs can honestly report. The
// second result names what was reported.
func tail(xs []float64) (float64, string) {
	if len(xs) == 0 {
		return 0, "none"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(0.99*float64(len(s)))) - 1
	if len(s)-1-rank >= minBeyond {
		return s[rank], "p99"
	}
	return s[len(s)-1], "max"
}

// speedupPct is the geometric mean over operations of OrigCost/OptCost,
// as (gm - 1) * 100. A failed operation counts as ratio 1: its user
// keeps the input graph, so fixing a failure never reads as a loss.
func speedupPct(ratios []float64, failed int) float64 {
	n := len(ratios) + failed
	if n == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range ratios {
		sum += math.Log(r)
	}
	return (math.Exp(sum/float64(n)) - 1) * 100
}

// tally counts operations attempted and failed. A failure is an error,
// an output that fails its check, or a wrong or non-2xx reply; an
// operation that fails twice (say, a bad reply that is also checked)
// still counts once.
type tally struct {
	attempted, failed int
	failedOps         map[int]bool
}

func (t *tally) attempt() int { t.attempted++; return t.attempted - 1 }

func (t *tally) fail(op int) {
	if t.failedOps == nil {
		t.failedOps = make(map[int]bool)
	}
	if !t.failedOps[op] {
		t.failedOps[op] = true
		t.failed++
	}
}

func (t *tally) ratio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

func micros(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
