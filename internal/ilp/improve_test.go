package ilp

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
)

// figure2Problem models the merged-matmul economics:
//
//	class 0 root: one node needing classes 1 and 2 (the two outputs)
//	class 1: matmul a (cost 8.4) | split0 -> class 3 (cost 0)
//	class 2: matmul b (cost 8.4) | split1 -> class 3 (cost 0)
//	class 3: split tuple: one node (cost 0) -> class 4
//	class 4: merged matmul (cost 8.8), leaf
//
// Greedy picks the two matmuls (16.8); optimum shares class 4 (8.8).
func figure2Problem() *Problem {
	return &Problem{
		//        0    1     2    3     4    5     6
		Costs:    []float64{0, 8.4, 0, 8.4, 0, 0, 8.8},
		ClassOf:  []int{0, 1, 1, 2, 2, 3, 4},
		Children: [][]int{{1, 2}, nil, {3}, nil, {3}, {4}, nil},
		Classes:  [][]int{{0}, {1, 2}, {3, 4}, {5}, {6}},
		Root:     0,
	}
}

func newSolverForTest(p *Problem) *solver {
	s := &solver{p: p}
	m := len(p.Classes)
	s.allowed = make([][]int, m)
	s.minCost = make([]float64, m)
	for c, members := range p.Classes {
		s.allowed[c] = append(s.allowed[c], members...)
		sort.Slice(s.allowed[c], func(a, b int) bool {
			return p.Costs[s.allowed[c][a]] < p.Costs[s.allowed[c][b]]
		})
		s.minCost[c] = math.Inf(1)
		if len(s.allowed[c]) > 0 {
			s.minCost[c] = p.Costs[s.allowed[c][0]]
		}
	}
	s.pruneDominated()
	s.computeFree()
	s.computeGreedy()
	s.chosen = make([]int, m)
	for i := range s.chosen {
		s.chosen[i] = -1
	}
	s.need = make([]int, m)
	s.best = math.Inf(1)
	return s
}

func TestSeedIncumbentIsGreedy(t *testing.T) {
	s := newSolverForTest(figure2Problem())
	s.seedIncumbent()
	if s.bestPick == nil {
		t.Fatal("no incumbent")
	}
	if s.best != 16.8 {
		t.Fatalf("greedy seed cost %v, want 16.8", s.best)
	}
}

func TestImproveIncumbentFindsJointSwitch(t *testing.T) {
	s := newSolverForTest(figure2Problem())
	s.seedIncumbent()
	_, cost := s.improveFrom(s.bestPick)
	if math.Abs(cost-8.8) > 1e-9 {
		t.Fatalf("improved cost %v, want 8.8 (joint switch to shared merged matmul)", cost)
	}
}

func TestSolveFindsJointSwitch(t *testing.T) {
	sol, err := Solve(figure2Problem())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Cost-8.8) > 1e-9 {
		t.Fatalf("cost %v, want 8.8", sol.Cost)
	}
}

// TestHubMoveClosingCycleNeverCommits builds a selection whose only
// improving move closes a cycle: class 1 can trade its 8.4 leaf for a
// free node that needs hub class 2, whose completion runs through
// class 3 back to class 1. The completion counts the back edge to
// class 1 as done, so the hub move looks profitable; the re-validation
// before the commit must reject it and leave the warm start in place.
func TestHubMoveClosingCycleNeverCommits(t *testing.T) {
	p := &Problem{
		//                  0  1    2  3  4
		Costs:            []float64{1, 8.4, 0, 1, 0.5},
		ClassOf:          []int{0, 1, 1, 2, 3},
		Children:         [][]int{{1}, nil, {2}, {3}, {1}},
		Classes:          [][]int{{0}, {1, 2}, {3}, {4}},
		Root:             0,
		CycleConstraints: true,
	}
	var lines []string
	DebugHook = func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	defer func() { DebugHook = nil }()

	s := newSolverForTest(p)
	s.seedIncumbent()
	if s.best != 9.4 {
		t.Fatalf("greedy seed cost %v, want 9.4", s.best)
	}
	pick, cost := s.improveFrom(s.bestPick)
	if cost != 9.4 || pick[1] != 1 || s.improveCommits != 0 {
		t.Fatalf("local search committed a cyclic move: cost %v, class 1 -> node %d, %d commits",
			cost, pick[1], s.improveCommits)
	}
	// The hub moves were evaluated as profitable, so only the commit's
	// re-validation kept them out.
	want := "pass 0: hubsTried=2 bestNet=6.90 improved=false"
	if !slices.Contains(lines, want) {
		t.Fatalf("no rejected profitable hub move in the trace %q", lines)
	}

	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 9.4 || !sol.Optimal {
		t.Fatalf("solution %+v, want the acyclic optimum 9.4", sol)
	}
}
