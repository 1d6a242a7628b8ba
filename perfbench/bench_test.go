package main

import (
	"bytes"
	"math"
	"testing"
	"time"

	"tensat/internal/fingerprint"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		kind string
		want float64
	}{
		{1000, "p99", 990}, // rank 990 of 1..1000 leaves exactly 10 above
		{999, "max", 999},  // 9 above the 99th percentile: report the maximum
		{20, "max", 20},
		{5000, "p99", 4950},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[len(xs)-1-i] = float64(i + 1) // descending: tail must sort
		}
		got, kind := tail(xs)
		if kind != tc.kind || got != tc.want {
			t.Errorf("tail of 1..%d = %v (%s), want %v (%s)", tc.n, got, kind, tc.want, tc.kind)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

func TestTypicalLatencyTakesEachJobsMedian(t *testing.T) {
	// The medians are 1, 10 and 100, whatever the slowest runs were.
	byJob := [][]float64{{1, 1, 9}, {8, 10, 12}, {100, 100, 300}}
	if got := typicalLatency(byJob); math.Abs(got-10) > 1e-9 {
		t.Errorf("typical latency = %v, want the geometric mean of 1, 10 and 100, 10", got)
	}
}

func TestSpeedupCountsFailureAsOne(t *testing.T) {
	if got := speedupPct([]float64{2, 8}, 0); math.Abs(got-300) > 1e-9 {
		t.Errorf("geomean of 2 and 8 = %v%%, want 300%%", got)
	}
	withFailure := speedupPct([]float64{2, 8}, 1)
	if want := (math.Cbrt(16) - 1) * 100; math.Abs(withFailure-want) > 1e-9 {
		t.Errorf("with one failure = %v%%, want %v%%", withFailure, want)
	}
	// Fixing the failure into a no-gain success reads the same, and
	// into any gain reads better: a fix is never a loss.
	if fixed := speedupPct([]float64{2, 8, 1}, 0); math.Abs(fixed-withFailure) > 1e-9 {
		t.Errorf("fixed as ratio 1 = %v, failed = %v", fixed, withFailure)
	}
	if better := speedupPct([]float64{2, 8, 1.1}, 0); better <= withFailure {
		t.Errorf("fixed with a gain = %v, not above %v", better, withFailure)
	}
}

func TestFailRatioCountsEachOperationOnce(t *testing.T) {
	o := newOutcome()
	a, b := o.attempt(), o.attempt()
	o.attempt()
	o.attempt()
	o.fail(a, "error")
	o.markWrong(a, "and a bad output")
	o.markWrong(b, "bad output")
	if o.attempted != 4 || o.failed != 2 || o.ratio() != 0.5 {
		t.Errorf("attempted %d failed %d ratio %v, want 4 2 0.5", o.attempted, o.failed, o.ratio())
	}
	if o.correct() {
		t.Error("a wrong output must make the run incorrect")
	}
	e := newOutcome()
	e.fail(e.attempt(), "job error")
	if !e.correct() || e.failed != 1 {
		t.Error("a job error is a failure, not a wrong output")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{ID: 0, Name: "root", Start: 0, End: 10 * ms, Parent: -1, Req: "x"},
		{ID: 1, Name: "a", Start: 1 * ms, End: 3 * ms, Parent: 0, Req: "x"},
		{ID: 2, Name: "a", Start: 2 * ms, End: 5 * ms, Parent: 0, Req: "x"},
		{ID: 3, Name: "b", Start: 8 * ms, End: 12 * ms, Parent: 0, Req: "x"},
		{ID: 4, Name: "a", Start: 20 * ms, End: 30 * ms, Parent: -1, Req: "y"},
	}}
	st := tr.selfTimes(func(req string) bool { return req == "x" })
	if got := st["root"].own; got != 4*ms {
		t.Errorf("root self time %v, want 4ms", got)
	}
	if a := st["a"]; a.calls != 2 || a.total != 5*ms || a.own != 5*ms {
		t.Errorf("a = %+v, want request y's span left out", a)
	}
}

func populationBytes(t *testing.T, seed int64) ([][]byte, []request, *population) {
	t.Helper()
	p, err := newPopulation(seed, 500)
	if err != nil {
		t.Fatal(err)
	}
	var texts [][]byte
	for _, bodies := range p.bodies {
		texts = append(texts, bodies...)
	}
	return texts, p.stream, p
}

func TestPopulationIsSeeded(t *testing.T) {
	a, sa, p := populationBytes(t, 7)
	b, sb, _ := populationBytes(t, 7)
	c, sc, _ := populationBytes(t, 8)
	if len(a) != len(b) {
		t.Fatalf("same seed, %d vs %d bodies", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("same seed, body %d differs", i)
		}
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("same seed, request %d differs", i)
		}
	}
	sameGraphs, sameStream := true, true
	for i := range a {
		sameGraphs = sameGraphs && bytes.Equal(a[i], c[i])
	}
	for i := range sa {
		sameStream = sameStream && sa[i] == sc[i]
	}
	if sameGraphs || sameStream {
		t.Errorf("a different seed must differ: graphs same %v, stream same %v", sameGraphs, sameStream)
	}

	for id, spells := range p.spells {
		base, err := fingerprint.Graph(spells[0])
		if err != nil {
			t.Fatal(err)
		}
		baseNames, _ := fingerprint.Tensors(spells[0])
		if n := spells[0].NodeCount(); n < minGraphNodes || n > maxGraphNodes {
			t.Errorf("graph %d has %d nodes", id, n)
		}
		for v, g := range spells {
			if err := g.Validate(); err != nil {
				t.Errorf("graph %d spelling %d: %v", id, v, err)
			}
			fp, err := fingerprint.Graph(g)
			if err != nil || fp != base {
				t.Errorf("graph %d spelling %d: fingerprint differs from the original's", id, v)
			}
			if names, _ := fingerprint.Tensors(g); v > 0 && names[0] == baseNames[0] {
				t.Errorf("graph %d spelling %d keeps the original tensor names", id, v)
			}
		}
	}
}
