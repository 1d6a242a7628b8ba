package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"tensat"
)

// TestWorkersKnobFlowsIntoOptions checks the request "workers"
// knob reaches tensat.Options, participates in the cache key (under a
// timeout the worker count changes how far a run explores), and is
// validated.
func TestWorkersKnobFlowsIntoOptions(t *testing.T) {
	base := tensat.DefaultOptions()

	got, err := RequestOptions{Workers: 3}.apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workers != 3 {
		t.Fatalf("Workers = %d, want 3", got.Workers)
	}

	inherit, err := RequestOptions{}.apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if inherit.Workers != base.Workers {
		t.Fatalf("zero Workers did not inherit: %d", inherit.Workers)
	}
	// Without an exploration budget, results are byte-identical for any
	// worker count, so differing workers must share one cache entry.
	if optionsKey(got) != optionsKey(inherit) {
		t.Fatal("worker counts fragment the cache despite identical results")
	}
	// Under a budget the worker count changes how far a run explores,
	// so it becomes part of the key.
	budget, other := got, inherit
	budget.ExploreTimeout, other.ExploreTimeout = time.Second, time.Second
	if optionsKey(budget) == optionsKey(other) {
		t.Fatal("worker counts share an options key under an exploration budget")
	}

	if _, err := (RequestOptions{Workers: -1}).apply(base); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("negative workers: err = %v, want ErrBadOptions", err)
	}
}

// TestCanceledResultIsNeverCached: even if the optimizer returns a
// partial result marked Canceled instead of an error, the service must
// not serve it to later requests as the answer for that key.
func TestCanceledResultIsNeverCached(t *testing.T) {
	s := New(Config{Workers: 1})
	partial := stubResult(t)
	partial.Canceled = true
	partial.Truncated = true
	calls := 0
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		calls++
		if calls == 1 {
			return partial, nil
		}
		return stubResult(t), nil
	}
	g := testGraph(t, 7)
	first, err := s.Optimize(context.Background(), g, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first response claims cached")
	}
	second, err := s.Optimize(context.Background(), g, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached {
		t.Fatal("canceled partial result was cached and served")
	}
	if calls != 2 {
		t.Fatalf("optimizer ran %d times, want 2", calls)
	}
}

// TestImplicitTimeoutTruncationIsNotCached: a run truncated with no
// explicit explore budget hit the runner's one-hour safety net; how
// far it got depends on the worker count, which budget-free cache keys
// deliberately omit, so the result must not be cached. With an
// explicit budget (which keys both the budget and the workers) the
// truncated result is a legitimate cache entry.
func TestImplicitTimeoutTruncationIsNotCached(t *testing.T) {
	s := New(Config{Workers: 1})
	truncated := stubResult(t)
	truncated.Truncated = true
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		return truncated, nil
	}

	g := testGraph(t, 9)
	if _, err := s.Optimize(context.Background(), g, RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	again, err := s.Optimize(context.Background(), g, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Fatal("safety-net-truncated result was cached under a budget-free key")
	}

	budgeted := RequestOptions{ExploreTimeoutMS: 1000}
	if _, err := s.Optimize(context.Background(), g, budgeted); err != nil {
		t.Fatal(err)
	}
	hit, err := s.Optimize(context.Background(), g, budgeted)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("budgeted truncated result was not cached")
	}
}
