package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(2.5)
	g.Add(1.5)
	g.Dec()
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
}

func TestHistogramCumulative(t *testing.T) {
	h := newHistogram([]float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	cum, sum, count := h.snapshot()
	// <=1: {0.5, 1}; <=5: +{3}; <=10: +{7}; +Inf: +{100}
	want := []uint64{2, 3, 4, 5}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cum[%d] = %d, want %d (all %v)", i, cum[i], want[i], cum)
		}
	}
	if count != 5 || sum != 111.5 {
		t.Fatalf("count=%d sum=%v, want 5, 111.5", count, sum)
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Add(3)
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(1.5)
	cv := r.CounterVec("test_labeled_total", "labeled", "ruleset")
	cv.With(`quo"te\back` + "\nline").Inc()
	h := r.Histogram("test_seconds", "a histogram", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(5)
	r.GaugeFunc("test_func", "computed", func() float64 { return 42 })

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_total a counter\n# TYPE test_total counter\ntest_total 3\n",
		"# TYPE test_gauge gauge\ntest_gauge 1.5\n",
		`test_labeled_total{ruleset="quo\"te\\back\nline"} 1` + "\n",
		`test_seconds_bucket{le="0.1"} 1` + "\n",
		`test_seconds_bucket{le="1"} 1` + "\n",
		`test_seconds_bucket{le="+Inf"} 2` + "\n",
		"test_seconds_sum 5.05\n",
		"test_seconds_count 2\n",
		"test_func 42\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("ok_total", "")
	mustPanic("duplicate", func() { r.Counter("ok_total", "") })
	mustPanic("bad name", func() { r.Counter("0bad", "") })
	mustPanic("bad name dash", func() { r.Counter("has-dash", "") })
	mustPanic("no labels", func() { r.CounterVec("vec_total", "") })
	mustPanic("bad label", func() { r.CounterVec("vec2_total", "", "__reserved") })
	mustPanic("bad bounds", func() { r.Histogram("h_seconds", "", []float64{1, 1}) })
	cv := r.CounterVec("cv_total", "", "a", "b")
	mustPanic("label arity", func() { cv.With("only-one") })
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		0.25:         "0.25",
		3:            "3",
	}
	for v, want := range cases {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
	if got := formatValue(math.NaN()); got != "NaN" {
		t.Errorf("formatValue(NaN) = %q", got)
	}
}

func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("spin_total", "")
	hv := r.HistogramVec("spin_seconds", "", []float64{0.01, 0.1}, "phase")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					hv.With("explore").Observe(0.02)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if _, err := r.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestCounterVecValues(t *testing.T) {
	cv := NewRegistry().CounterVec("solves_total", "", "solver", "outcome")
	if got := cv.Values(); got != nil {
		t.Fatalf("values with no children = %v, want nil", got)
	}
	cv.With("builtin", "optimal").Inc()
	cv.With("builtin", "optimal").Add(2)
	cv.With("cbc", "feasible").Inc()
	got := cv.Values()
	want := map[string]uint64{"builtin/optimal": 3, "cbc/feasible": 1}
	if len(got) != len(want) {
		t.Fatalf("values = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("values = %v, want %v", got, want)
		}
	}
	// The snapshot is a copy: later increments do not reach it.
	cv.With("cbc", "feasible").Inc()
	if got["cbc/feasible"] != 1 || cv.Values()["cbc/feasible"] != 2 {
		t.Fatalf("snapshot %v / live %v after Inc", got, cv.Values())
	}
}

// TestCounterVecValuesConcurrent reads Values while other goroutines
// create and bump children; run under -race.
func TestCounterVecValuesConcurrent(t *testing.T) {
	cv := NewRegistry().CounterVec("spin_total", "", "site")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(site string) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				cv.With(site).Inc()
			}
		}(string(rune('a' + i)))
	}
	for i := 0; i < 100; i++ {
		_ = cv.Values()
	}
	wg.Wait()
	got := cv.Values()
	if len(got) != 4 {
		t.Fatalf("values = %v, want 4 sites", got)
	}
	for site, v := range got {
		if v != 1000 {
			t.Fatalf("site %s = %d, want 1000", site, v)
		}
	}
}
