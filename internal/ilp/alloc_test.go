package ilp

import "testing"

// plateauProblem is an acyclic instance that branch-and-bound cannot
// prune early: the root needs D_1..D_k, and each D_i offers a leaf
// (cost 1.5) or a node of the class minimum (cost 1) that requires a
// private one-leaf class E_i (cost 1). The all-leaf warm start is
// optimal, but the bound only counts each D_i's minimum, so every
// prefix whose excess over it stays below k/2 is expanded: the
// expansions grow exponentially in k while the depth stays 2k. The
// cheap node's unrequired child keeps it from being a forced choice,
// and E_i's single leaf is one.
func plateauProblem(k int) *Problem {
	p := &Problem{Root: 0}
	kids := make([]int, k)
	for i := range kids {
		kids[i] = 1 + 2*i
	}
	p.Costs = append(p.Costs, 1)
	p.ClassOf = append(p.ClassOf, 0)
	p.Children = append(p.Children, kids)
	p.Classes = append(p.Classes, []int{0})
	for i := 0; i < k; i++ {
		d, e := 1+2*i, 2+2*i
		a := len(p.Costs)
		p.Costs = append(p.Costs, 1, 1.5, 1)
		p.ClassOf = append(p.ClassOf, d, d, e)
		p.Children = append(p.Children, []int{e}, nil, nil)
		p.Classes = append(p.Classes, []int{a, a + 1}, []int{a + 2})
	}
	return p
}

// TestSolveAllocationsIndependentOfExplored pins the solver's hot
// loops as allocation-free: on instances that expand well over 100k
// nodes, a whole solve may allocate only for its setup (tables sized
// by the problem, one set of buffers per search depth and per worker),
// which here is a few hundred allocations. The budget of one per 100
// expansions leaves room for that, while a single allocation per
// expansion in branch, assign or the cycle check overshoots it 100-fold.
func TestSolveAllocationsIndependentOfExplored(t *testing.T) {
	problems := []struct {
		name string
		p    *Problem
	}{
		{"plateau", plateauProblem(22)},
		{"escape-ring", escapeRing(24)}, // cycle constraints
	}
	solvers := []struct {
		name  string
		solve func(*Problem) (*Solution, error)
	}{
		{"seq", Solve},
		{"par2", func(p *Problem) (*Solution, error) { return SolveParallel(p, 2) }},
	}
	for _, pr := range problems {
		for _, sv := range solvers {
			var sol *Solution
			var err error
			allocs := testing.AllocsPerRun(1, func() { sol, err = sv.solve(pr.p) })
			if err != nil {
				t.Fatalf("%s/%s: %v", pr.name, sv.name, err)
			}
			if !sol.Optimal || sol.Explored < 100_000 {
				t.Fatalf("%s/%s: explored %d (optimal %v), want an exhaustive search of at least 100k nodes",
					pr.name, sv.name, sol.Explored, sol.Optimal)
			}
			t.Logf("%s/%s: %v allocations over %d expansions", pr.name, sv.name, allocs, sol.Explored)
			if budget := float64(sol.Explored) / 100; allocs >= budget {
				t.Errorf("%s/%s: %v allocations over %d expansions, budget %v",
					pr.name, sv.name, allocs, sol.Explored, budget)
			}
		}
	}
}
