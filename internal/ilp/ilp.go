// Package ilp solves the 0-1 integer linear program of TENSAT's
// extraction phase (§5.1). The paper uses SCIP behind Google OR-tools;
// neither exists in Go's standard-library ecosystem, so this package
// implements an exact branch-and-bound solver specialized to the
// extraction program's constraint shapes:
//
//	minimize    sum_i c_i x_i
//	subject to  x_i in {0,1}
//	            sum_{i in e_0} x_i = 1                    (root class)
//	            x_i <= sum_{j in e_m} x_j   for m in h_i  (children)
//	            x_i = 0                     for filtered i
//	            optional topological-order constraints
//	            t_{g(i)} - t_m - eps + A(1 - x_i) >= 0    (acyclicity)
//
// Branch-and-bound explores "which e-node is picked for each required
// e-class", with an admissible lower bound (each required-but-
// undecided class contributes at least its cheapest allowed node).
// With CycleConstraints enabled the solver additionally maintains the
// acyclicity of the chosen selection — via incremental DFS when
// TopoReal (the continuous t_m encoding) or explicit integer level
// labels when TopoInt — which is exactly what makes the constrained
// program much slower to solve, reproducing Table 5.
//
// Two solving modes share that machinery: SolveContext runs the
// classic sequential search, and SolveParallelContext (parallel.go)
// fans disjoint branch subtrees over a bounded worker pool with a
// shared atomic incumbent bound. Model reduction before any solve
// lives in the presolve subpackage, standard-format export in lpfile,
// and external-solver adapters in backend.
package ilp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// TopoMode selects how the acyclicity constraints are enforced,
// mirroring the paper's real-valued vs integer-valued t_m variables.
type TopoMode int

const (
	// TopoReal models the continuous topological-order variables:
	// feasibility of an assignment is decided by cycle detection.
	TopoReal TopoMode = iota
	// TopoInt models integer topological levels in [0, M-1], maintained
	// explicitly by longest-path relaxation.
	TopoInt
)

// String names the mode.
func (m TopoMode) String() string {
	if m == TopoInt {
		return "int"
	}
	return "real"
}

// Problem is an extraction ILP instance. Nodes are indexed 0..N-1 and
// classes 0..M-1.
type Problem struct {
	Costs     []float64 // c_i, one per node
	ClassOf   []int     // g(i): owning class of node i
	Children  [][]int   // h_i: children classes of node i
	Classes   [][]int   // e_m: members of class m
	Root      int       // root class index
	Forbidden []bool    // x_i = 0 (cycle filter list); nil means none

	// CycleConstraints includes the topological-order constraints; the
	// caller must set this when the e-graph may contain cycles.
	CycleConstraints bool
	TopoMode         TopoMode
	Timeout          time.Duration
	// StallLimit stops the search after this many node expansions
	// without an incumbent improvement and returns the incumbent
	// (Optimal=false, Stalled=true) — the practical analogue of a MIP
	// gap tolerance. Zero means no stall limit. Exhaustive search on
	// heavily merged e-graphs needs LP-strength bounds (what SCIP has
	// and this branch-and-bound does not); see the README's ILP
	// section. A parallel solve applies the limit to each worker
	// separately, and a worker restarts its count with every unit of
	// work it claims.
	StallLimit int64
	// WarmStarts provides initial selections (node per class, -1 for
	// unselected classes). Each valid one (complete and acyclic from
	// the root) is refined by the local-search improver; the best
	// becomes the starting incumbent, so the solution is never worse
	// than any warm start.
	WarmStarts [][]int
	// OnIncumbent, when non-nil, is called each time the incumbent
	// improves: once after warm-start seeding and again on every
	// improvement branch-and-bound finds. It receives the incumbent
	// cost and the expansions done so far, and must return quickly (it
	// runs on the search's hot path). Sequential solves call it from
	// the solving goroutine; the parallel solver serializes calls under
	// its incumbent lock, with strictly decreasing costs either way.
	OnIncumbent func(cost float64, explored int64)
}

// Clone returns a shallow-sharing copy of the problem: the slice
// headers are fresh (so Forbidden and the option fields can be
// replaced) but the per-node arrays are shared. Presolve uses it to
// return a reduced model without mutating the caller's.
func (p *Problem) Clone() *Problem {
	q := *p
	return &q
}

// Solution is the solver's answer.
type Solution struct {
	// NodeOf maps each selected class to its chosen node; classes not
	// needed by the root derivation are absent.
	NodeOf map[int]int
	Cost   float64
	// Optimal is true when the search space was exhausted; false on
	// timeout or stall, in which case the incumbent (if any) is returned.
	Optimal  bool
	TimedOut bool
	// Canceled is true when the caller's context ended the search; the
	// incumbent (if any) is still returned, like a timeout.
	Canceled bool
	// Stalled is true when StallLimit ended the search.
	Stalled bool
	// Explored counts branch-and-bound node expansions (summed over
	// workers for parallel solves).
	Explored int64
	Time     time.Duration
	// SeedCost is the greedy warm-start cost; ImproveCommits counts
	// hub moves the sharing-aware local search applied before
	// branch-and-bound (diagnostics).
	SeedCost       float64
	ImproveCommits int
	// Incumbents counts incumbent improvements (the warm-start seed
	// included); FirstIncumbent is how long the solve ran before the
	// first one landed.
	Incumbents     int
	FirstIncumbent time.Duration
	// Workers is how many goroutines searched (1 for sequential).
	Workers int
}

// ErrInfeasible is returned when no acyclic selection exists.
var ErrInfeasible = errors.New("ilp: infeasible extraction problem")

// ErrTimeout is returned when the deadline or stall limit passed
// before any feasible solution was found. Caller cancellation without
// an incumbent surfaces as the context's own error instead, so callers
// never have to reverse-map ErrTimeout onto a dead context.
var ErrTimeout = errors.New("ilp: timeout before first feasible solution")

// Validate checks index consistency.
//
//lint:ctxflow-exempt single bounded pass over in-memory index arrays; the only calls are error formatting
func (p *Problem) Validate() error {
	n, m := len(p.Costs), len(p.Classes)
	if len(p.ClassOf) != n || len(p.Children) != n {
		return fmt.Errorf("ilp: inconsistent node arrays")
	}
	if p.Root < 0 || p.Root >= m {
		return fmt.Errorf("ilp: root class %d out of range", p.Root)
	}
	if p.Forbidden != nil && len(p.Forbidden) != n {
		return fmt.Errorf("ilp: forbidden mask has %d entries for %d nodes", len(p.Forbidden), n)
	}
	for i, c := range p.ClassOf {
		if c < 0 || c >= m {
			return fmt.Errorf("ilp: node %d in bad class %d", i, c)
		}
	}
	for i, hs := range p.Children {
		for _, h := range hs {
			if h < 0 || h >= m {
				return fmt.Errorf("ilp: node %d has bad child class %d", i, h)
			}
		}
	}
	return nil
}

type solver struct {
	p           *Problem
	deadline    time.Time
	hasDeadline bool
	done        <-chan struct{} // caller cancellation; nil means none
	canceled    bool

	allowed  [][]int   // per class: allowed (unforbidden) nodes, cheap first
	minCost  []float64 // per class: cheapest allowed node cost
	greedy   []float64 // per class: tree-cost heuristic for branch ordering
	freePick []int     // per class: node with a zero-cost acyclic derivation, or -1

	chosen         []int // per class: chosen node or -1
	need           []int // per class: how many chosen nodes require it
	acc            float64
	best           float64
	bestPick       []int
	explored       int64
	lastImprove    int64
	timedOut       bool
	stalled        bool
	improveCommits int

	start          time.Time
	incumbents     int
	firstIncumbent time.Duration

	// shared, when non-nil, makes this solver one worker of a parallel
	// solve: incumbents are offered to (and the pruning bound refreshed
	// from) the shared state instead of the local best/bestPick pair.
	shared  *parallelShared
	unitIdx int

	// maxKids is the largest child count of any node: the most a single
	// decision can append to the pending list.
	maxKids int
	// depth is the branch-and-bound recursion depth; frames[d] holds the
	// buffers of the branch call at depth d, reused by every call there.
	depth  int
	frames []*frame
	// cyc is the acyclicity check's scratch: a visited set, per-class
	// longest-path lengths (TopoInt) and a work list.
	cyc      marks
	cycDist  []int
	cycQueue []int

	// sc holds the local search's epoch-stamped scratch buffers.
	sc *improveScratch
}

// frame is one branch depth's reusable buffers: the pending list that
// the depth's decisions extend, and its candidates in search order.
type frame struct {
	pending []int
	cands   candOrder
}

// cand is a candidate node with its ordering key.
type cand struct {
	node int
	key  float64
}

// candOrder sorts candidates by key. sort.Sort is not stable, so the
// order of equal keys is part of the search; TestSolverSearchGolden
// (internal/extract) pins it.
type candOrder []cand

func (o candOrder) Len() int           { return len(o) }
func (o candOrder) Less(a, b int) bool { return o[a].key < o[b].key }
func (o candOrder) Swap(a, b int)      { o[a], o[b] = o[b], o[a] }

// recordIncumbent notes one incumbent improvement for the Solution's
// Incumbents / FirstIncumbent diagnostics.
func (s *solver) recordIncumbent() {
	s.incumbents++
	if s.incumbents == 1 {
		s.firstIncumbent = time.Since(s.start)
	}
}

// Solve runs branch-and-bound and returns the best selection.
func Solve(p *Problem) (*Solution, error) {
	return SolveContext(context.Background(), p)
}

// prepare validates the problem and builds a solver with every
// precomputed read-only table (allowed nodes, class minima, greedy
// ordering costs, free picks) plus empty search state. Shared by the
// sequential and parallel entry points.
func prepare(ctx context.Context, p *Problem, start time.Time) (*solver, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &solver{p: p, done: ctx.Done(), start: start}
	if p.Timeout > 0 {
		s.deadline = start.Add(p.Timeout)
		s.hasDeadline = true
	}
	m := len(p.Classes)
	s.allowed = make([][]int, m)
	s.minCost = make([]float64, m)
	for c, members := range p.Classes {
		for _, i := range members {
			if p.Forbidden != nil && p.Forbidden[i] {
				continue
			}
			// Infinite-cost nodes (ill-typed under the cost model) can
			// never appear in a finite solution; admitting them would
			// also poison the bound arithmetic (Inf - Inf = NaN).
			if math.IsInf(p.Costs[i], 1) {
				continue
			}
			s.allowed[c] = append(s.allowed[c], i)
		}
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
	for _, hs := range p.Children {
		s.maxKids = max(s.maxKids, len(hs))
	}
	return s, nil
}

// seed installs the best of the internal greedy and the caller warm
// starts (each refined by the sharing-aware local search) as the
// initial incumbent, and returns the best unrefined warm-start cost.
// It does NOT invoke OnIncumbent — the entry points do, after wiring
// their incumbent plumbing.
func (s *solver) seed() (seedCost float64) {
	p := s.p
	s.seedIncumbent()
	starts := [][]int{}
	if s.bestPick != nil {
		starts = append(starts, s.bestPick)
	}
	m := len(p.Classes)
	for _, ws := range p.WarmStarts {
		if len(ws) == m {
			starts = append(starts, append([]int(nil), ws...))
		}
	}
	seedCost = math.Inf(1)
	s.best, s.bestPick = math.Inf(1), nil
	for _, st := range starts {
		cost, ok := s.selectionCost(st)
		if !ok {
			continue
		}
		if cost < seedCost {
			seedCost = cost
		}
		imp, impCost := s.improveFrom(st)
		if impCost < s.best {
			s.best, s.bestPick = impCost, imp
		}
	}
	return seedCost
}

// SolveContext is Solve with cancellation: when ctx is done the search
// stops at the next check point and the incumbent (if any) is returned
// with Canceled set, exactly like a timeout; with no incumbent it
// returns ctx.Err() so callers see the cancellation directly.
func SolveContext(ctx context.Context, p *Problem) (*Solution, error) {
	start := time.Now()
	s, err := prepare(ctx, p, start)
	if err != nil {
		return nil, err
	}
	seedCost := s.seed()
	if s.bestPick != nil {
		s.recordIncumbent()
		if p.OnIncumbent != nil {
			p.OnIncumbent(s.best, 0)
		}
	}

	s.need[p.Root] = 1
	s.branch([]int{p.Root}, s.minCost[p.Root])

	sol := &Solution{
		Optimal:        !s.timedOut && !s.stalled,
		TimedOut:       s.timedOut,
		Canceled:       s.canceled,
		Stalled:        s.stalled,
		Explored:       s.explored,
		Time:           time.Since(start),
		SeedCost:       seedCost,
		ImproveCommits: s.improveCommits,
		Incumbents:     s.incumbents,
		FirstIncumbent: s.firstIncumbent,
		Workers:        1,
	}
	if s.bestPick == nil {
		switch {
		case s.canceled:
			return nil, ctx.Err()
		case s.timedOut || s.stalled:
			return nil, ErrTimeout
		default:
			return nil, ErrInfeasible
		}
	}
	sol.Cost = s.best
	sol.NodeOf = make(map[int]int)
	for c, n := range s.bestPick {
		if n >= 0 {
			sol.NodeOf[c] = n
		}
	}
	return sol, nil
}

// pruneDominated removes, within each class, any node that is
// dominated by a cheaper (or equal-cost) node whose children classes
// are a subset of its own: picking the dominated node can always be
// replaced by the dominating one without increasing cost or adding
// requirements. This preserves at least one optimal solution. Cycle
// constraints do not change that: the dominating node's edges are a
// subset, so it can never introduce a cycle the dominated one avoids.
func (s *solver) pruneDominated() {
	var kids marks // children classes of the node under test
	var orig []int // the class before pruning; keep overwrites members
	for c, members := range s.allowed {
		if len(members) < 2 {
			continue
		}
		orig = append(orig[:0], members...)
		keep := members[:0]
		for k, i := range orig {
			kids.reset(len(s.p.Classes))
			for _, h := range s.p.Children[i] {
				kids.add(h)
			}
			dominated := false
			for k2, j := range orig {
				if k == k2 || s.p.Costs[j] > s.p.Costs[i] {
					continue
				}
				if s.p.Costs[j] == s.p.Costs[i] && k2 > k {
					continue // tie-break by position to avoid mutual elimination
				}
				subset := true
				for _, h := range s.p.Children[j] {
					if !kids.has(h) {
						subset = false
						break
					}
				}
				if subset {
					dominated = true
					break
				}
			}
			if !dominated {
				keep = append(keep, i)
			}
		}
		s.allowed[c] = keep
	}
}

// seedIncumbent installs the greedy extraction as the initial
// incumbent, guaranteeing the ILP result is never worse than greedy
// even when the search stalls or times out, and sharpening pruning
// from the first branch.
func (s *solver) seedIncumbent() {
	pick := make([]int, len(s.p.Classes))
	for c := range pick {
		pick[c] = -1
		best := math.Inf(1)
		for _, i := range s.allowed[c] {
			t := s.p.Costs[i]
			for _, h := range s.p.Children[i] {
				t += s.greedy[h]
			}
			if t < best {
				best = t
				pick[c] = i
			}
		}
	}
	// Keep the root closure and its DAG cost; an incomplete or cyclic
	// greedy selection gives no warm start.
	total, ok := s.selectionCost(pick)
	if !ok {
		return
	}
	for c := range pick {
		if !s.sc.done.has(c) {
			pick[c] = -1
		}
	}
	s.best, s.bestPick = total, pick
}

// computeFree finds, per class, a node with an entirely zero-cost
// derivation (weight-foldable expressions, literals, views). Choosing
// it dominates every alternative — it adds zero cost and only
// zero-cost requirements — so such classes are never branched on.
// This collapses the exponential plateau of interchangeable foldable
// weight expressions that otherwise drowns the search. The fixpoint
// witness order guarantees the recorded derivation is well-founded
// (acyclic), so the rule is also safe under cycle constraints.
func (s *solver) computeFree() {
	m := len(s.p.Classes)
	s.freePick = make([]int, m)
	for c := range s.freePick {
		s.freePick[c] = -1
	}
	for changed := true; changed; {
		changed = false
		for c := 0; c < m; c++ {
			if s.freePick[c] >= 0 {
				continue
			}
			for _, i := range s.allowed[c] {
				if s.p.Costs[i] > boundAdjust {
					continue
				}
				ok := true
				for _, h := range s.p.Children[i] {
					if s.freePick[h] < 0 {
						ok = false
						break
					}
				}
				if ok {
					s.freePick[c] = i
					changed = true
					break
				}
			}
		}
	}
}

// computeGreedy runs the greedy tree-cost fixpoint used only to order
// branches (first descent then lands on the greedy extraction).
func (s *solver) computeGreedy() {
	m := len(s.p.Classes)
	s.greedy = make([]float64, m)
	for c := range s.greedy {
		s.greedy[c] = math.Inf(1)
	}
	for changed := true; changed; {
		changed = false
		for c := 0; c < m; c++ {
			for _, i := range s.allowed[c] {
				t := s.p.Costs[i]
				for _, h := range s.p.Children[i] {
					t += s.greedy[h]
				}
				if t < s.greedy[c] {
					s.greedy[c] = t
					changed = true
				}
			}
		}
	}
}

// hasIncumbent reports whether any feasible solution is known — the
// local one for sequential solves, the shared one for parallel workers.
func (s *solver) hasIncumbent() bool {
	if s.shared != nil {
		return !math.IsInf(s.shared.best(), 1)
	}
	return s.bestPick != nil
}

// pickClass selects the next undecided class from pending following
// the branching policy: a class with a free pick or a forced choice is
// returned with its node (assign it directly, no branching); otherwise
// the undecided class with the fewest candidates (fail-first) is
// returned with node -1. idx is -1 when every pending class is
// decided (feasible leaf).
func (s *solver) pickClass(pending []int) (idx, node int) {
	idx, node = -1, -1
	fewest := int(^uint(0) >> 1)
	for i := len(pending) - 1; i >= 0; i-- {
		c := pending[i]
		if s.chosen[c] >= 0 {
			continue
		}
		if f := s.freePick[c]; f >= 0 {
			return i, f
		}
		if !s.p.CycleConstraints {
			if f := s.forcedChoice(c); f >= 0 {
				return i, f
			}
		}
		if n := len(s.allowed[c]); n < fewest {
			fewest, idx = n, i
		}
	}
	return idx, -1
}

// branch decides the next undecided required class. pending holds the
// required-but-undecided classes; bound is acc + sum of their minCosts.
func (s *solver) branch(pending []int, bound float64) {
	s.explored++
	if s.timedOut || s.stalled {
		return
	}
	if s.explored%512 == 0 {
		if s.hasDeadline && time.Now().After(s.deadline) {
			s.timedOut = true
			return
		}
		select {
		case <-s.done:
			s.timedOut = true
			s.canceled = true
			return
		default:
		}
		// Parallel workers refresh the pruning bound from the shared
		// incumbent at the same cadence as the clock checks, so a
		// sibling's improvement tightens this subtree within 512
		// expansions without an atomic load on every branch.
		if s.shared != nil {
			if b := s.shared.best(); b < s.best {
				s.best = b
			}
		}
	}
	// The stall limit applies even before a first incumbent exists
	// (with a grace factor), so a search that cannot find any feasible
	// solution still terminates.
	if s.p.StallLimit > 0 && s.explored-s.lastImprove > s.p.StallLimit {
		if s.hasIncumbent() || s.explored-s.lastImprove > 8*s.p.StallLimit {
			s.stalled = true
			return
		}
	}
	if s.acc+bound-boundAdjust >= s.best {
		return
	}
	// Select an undecided required class. A class with a *forced
	// choice* — a node at the class minimum whose children are all
	// already required or decided (so picking it adds no cost slack
	// and no new requirements, dominating every alternative) — is
	// assigned immediately without branching. This collapses the
	// zero-cost plateaus that split0/split1 alternatives create.
	// Otherwise branch on the class with the fewest candidates
	// (fail-first). Forced choices are disabled under cycle
	// constraints, where an alternative might be the only acyclic one.
	idx, forced := s.pickClass(pending)
	if idx < 0 {
		// All required classes decided: feasible solution.
		s.foundSolution()
		return
	}
	c := pending[idx]
	f := s.frame()
	// rest is pending without c, with room for one decision's children.
	if need := len(pending) - 1 + s.maxKids; cap(f.pending) < need {
		f.pending = make([]int, 0, 2*need)
	}
	rest := append(f.pending[:0], pending[:idx]...)
	rest = append(rest, pending[idx+1:]...)
	if forced >= 0 {
		s.assign(c, forced, rest, bound-s.minCost[c])
		return
	}

	// Order candidates by the greedy heuristic.
	cands := f.cands[:0]
	for _, i := range s.allowed[c] {
		cands = append(cands, cand{i, s.nodeHeuristic(i)})
	}
	f.cands = cands
	sort.Sort(&f.cands)

	for _, cd := range cands {
		s.assign(c, cd.node, rest, bound-s.minCost[c])
		if s.timedOut {
			return
		}
	}
}

// frame returns the buffers of the current branch depth.
func (s *solver) frame() *frame {
	for len(s.frames) <= s.depth {
		s.frames = append(s.frames, new(frame))
	}
	return s.frames[s.depth]
}

// foundSolution records the current complete assignment as an
// incumbent if it improves (or, under the parallel tie-break, matches)
// the best known one.
func (s *solver) foundSolution() {
	if s.shared != nil {
		if s.acc < s.best {
			if s.shared.offer(s.acc, s.chosen, s.unitIdx) {
				s.lastImprove = s.explored
			}
			if b := s.shared.best(); b < s.best {
				s.best = b
			}
		}
		return
	}
	if s.acc < s.best {
		s.best = s.acc
		s.bestPick = append([]int(nil), s.chosen...)
		s.lastImprove = s.explored
		s.recordIncumbent()
		if s.p.OnIncumbent != nil {
			s.p.OnIncumbent(s.best, s.explored)
		}
	}
}

// removeAt returns pending without index i (fresh slice). Only the
// once-per-solve and once-per-unit paths use it; branch reuses frames.
func removeAt(pending []int, i int) []int {
	rest := make([]int, 0, len(pending)-1)
	rest = append(rest, pending[:i]...)
	return append(rest, pending[i+1:]...)
}

// forcedChoice returns a node of class c that dominates all
// alternatives given the current partial assignment: its cost equals
// the class minimum and every child class is already required (will be
// paid regardless) or decided. Returns -1 if no such node exists.
func (s *solver) forcedChoice(c int) int {
	for _, i := range s.allowed[c] {
		if s.p.Costs[i] > s.minCost[c]+boundAdjust {
			break // allowed[c] is sorted by cost: no later node qualifies
		}
		ok := true
		for _, h := range s.p.Children[i] {
			if s.chosen[h] < 0 && s.need[h] == 0 {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	return -1
}

// nodeHeuristic estimates the tree cost of picking node i.
func (s *solver) nodeHeuristic(i int) float64 {
	t := s.p.Costs[i]
	for _, h := range s.p.Children[i] {
		if s.chosen[h] < 0 {
			t += s.greedy[h]
		}
	}
	return t
}

// step is one branch decision: node chosen for class. A sequence of
// steps from the root is a replayable partial assignment — the unit of
// work the parallel solver distributes.
type step struct{ class, node int }

// applyStep mutates the search state for one decision — chosen, acc,
// child requirement counts — exactly as assign does, and returns the
// extended pending list and bound. The caller has already removed
// st.class from pending and subtracted its minCost from bound.
func (s *solver) applyStep(st step, pending []int, bound float64) ([]int, float64) {
	s.chosen[st.class] = st.node
	s.acc += s.p.Costs[st.node]
	for _, h := range s.p.Children[st.node] {
		s.need[h]++
		if s.need[h] == 1 && s.chosen[h] < 0 {
			pending = append(pending, h)
			bound += s.minCost[h]
		}
	}
	return pending, bound
}

// undoStep reverses applyStep (pending/bound are the caller's to drop).
func (s *solver) undoStep(st step) {
	for _, h := range s.p.Children[st.node] {
		s.need[h]--
	}
	s.acc -= s.p.Costs[st.node]
	s.chosen[st.class] = -1
}

// assign tries x_i = 1 for class c and recurses.
func (s *solver) assign(c, i int, pending []int, bound float64) {
	if s.p.CycleConstraints && s.createsCycle(c, i) {
		return
	}
	st := step{c, i}
	next, newBound := s.applyStep(st, pending, bound)
	s.depth++
	s.branch(next, newBound)
	s.depth--
	s.undoStep(st)
}

// boundAdjust guards against floating-point equality ties pruning the
// incumbent itself.
const boundAdjust = 1e-9

// createsCycle checks whether choosing node i for class c closes a
// cycle among currently chosen classes. TopoReal uses DFS reachability
// (the continuous t_m constraints are satisfiable iff the chosen
// subgraph is acyclic); TopoInt maintains integer levels by longest-
// path relaxation with the same feasibility condition but a different
// (slower on deep graphs) propagation style.
func (s *solver) createsCycle(c, i int) bool {
	switch s.p.TopoMode {
	case TopoInt:
		return s.createsCycleInt(c, i)
	default:
		return s.createsCycleReal(c, i)
	}
}

func (s *solver) createsCycleReal(c, i int) bool {
	// Can we reach c from any child of i through chosen edges?
	s.cyc.reset(len(s.p.Classes))
	stack := append(s.cycQueue[:0], s.p.Children[i]...)
	defer func() { s.cycQueue = stack[:0] }()
	for len(stack) > 0 {
		cls := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cls == c {
			return true
		}
		if s.cyc.has(cls) {
			continue
		}
		s.cyc.add(cls)
		if n := s.chosen[cls]; n >= 0 {
			stack = append(stack, s.p.Children[n]...)
		}
	}
	return false
}

func (s *solver) createsCycleInt(c, i int) bool {
	// Integer levels: require level[c] >= level[h] + 1 for every chosen
	// edge c -> h... levels grow downward; relax longest paths from c.
	// A cycle exists iff relaxation returns to c or exceeds M.
	m := len(s.p.Classes)
	// Temporary assignment for propagation.
	prev := s.chosen[c]
	s.chosen[c] = i
	defer func() { s.chosen[c] = prev }()

	// cyc marks the classes with a known depth, kept in cycDist.
	if len(s.cycDist) < m {
		s.cycDist = make([]int, m)
	}
	depth := s.cycDist
	s.cyc.reset(m)
	queue := append(s.cycQueue[:0], c)
	defer func() { s.cycQueue = queue[:0] }()
	s.cyc.add(c)
	depth[c] = 0
	for head := 0; head < len(queue); head++ {
		cls := queue[head]
		if depth[cls] >= m {
			return true // longest path longer than class count: cycle
		}
		n := s.chosen[cls]
		if n < 0 {
			continue
		}
		for _, h := range s.p.Children[n] {
			if h == c {
				return true
			}
			if !s.cyc.has(h) || depth[h] < depth[cls]+1 {
				s.cyc.add(h)
				depth[h] = depth[cls] + 1
				queue = append(queue, h)
			}
		}
	}
	return false
}
