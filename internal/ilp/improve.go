package ilp

import (
	"math"
	"sort"
)

// DebugHook, when non-nil, receives diagnostics from the incumbent
// improvement pass. Used by tests; not part of the stable API.
var DebugHook func(format string, args ...any)

func debugf(format string, args ...any) {
	if DebugHook != nil {
		DebugHook(format, args...)
	}
}

// marks is an epoch-stamped set over indices 0..n-1: reset clears it
// in O(1) by bumping the epoch, so hot loops reuse one array instead of
// allocating a map or a fresh slice per query.
type marks struct {
	epoch int32
	at    []int32
}

// reset empties the set and sizes it for indices below n.
func (mk *marks) reset(n int) {
	if len(mk.at) < n {
		mk.at = make([]int32, n)
		mk.epoch = 0
	}
	mk.epoch++
	if mk.epoch == math.MaxInt32 {
		clear(mk.at)
		mk.epoch = 1
	}
}

func (mk *marks) has(i int) bool { return mk.at[i] == mk.epoch }
func (mk *marks) add(i int)      { mk.at[i] = mk.epoch }

// improveScratch holds the local search's reusable buffers, so a trial
// move allocates nothing; only capacity high-water marks grow.
type improveScratch struct {
	// inSet marks the classes of the completion being built;
	// open/done are the selection walk's DFS colors.
	inSet, open, done marks
	adds              []addEntry // output of the running completion
	budget            int        // completion size left before giving up

	required, base, hubCandidate []bool
	switchable                   []int
	alts                         []altInfo
	interested                   [][]int // class -> indices into alts
	hubAdds, altAdds, tmpAdds    []addEntry
	candIdx                      []int

	// Per-hub best switch per class, valid where moved has the class:
	// its gain, node and completion (arena[from:to]).
	seenAlt, moved marks
	gain           []float64
	move           []switchMove
	touched        []int
	arena          []addEntry
	undo           undoLog
}

type addEntry struct {
	class, node int
}

// altInfo is one candidate switch of a selected class to a cheaper
// node, evaluated against the plain base.
type altInfo struct {
	class, node int
	cur         float64 // cost of the class's current pick
}

// switchMove is the best switch found for one class under a hub.
type switchMove struct {
	node, from, to int
}

// undoLog records overwritten picks so a trial move can be rolled back.
type undoLog []addEntry

func (u *undoLog) set(pick []int, c, n int) {
	*u = append(*u, addEntry{c, pick[c]})
	pick[c] = n
}

func (u undoLog) rollback(pick []int) {
	for k := len(u) - 1; k >= 0; k-- {
		pick[u[k].class] = u[k].node
	}
}

// scratch returns the local search's buffers, sized for the problem.
func (s *solver) scratch() *improveScratch {
	if s.sc == nil {
		m := len(s.p.Classes)
		s.sc = &improveScratch{
			required:     make([]bool, m),
			base:         make([]bool, m),
			hubCandidate: make([]bool, m),
			interested:   make([][]int, m),
			gain:         make([]float64, m),
			move:         make([]switchMove, m),
		}
	}
	return s.sc
}

// improveFrom strengthens a warm start with a sharing-aware local
// search before branch-and-bound begins. Greedy per-class choices
// cannot discover rewrites whose payoff is joint — e.g. the Figure 2
// merged matmul is only profitable when *both* outputs switch to its
// split projections (§6.5 of the paper). Two move generators run to a
// fixpoint:
//
//  1. single-class switches: replace one class's pick (greedily
//     completing any new requirements) if the re-validated total
//     improves — this also repairs warm starts that materialize
//     expensive duplicated structure;
//  2. hub moves: tentatively require a non-selected "hub" class, then
//     switch every selected class that gains from reusing it; commit
//     when the joint savings exceed the hub's marginal cost.
//
// Every commit is re-validated (closure complete, acyclic, cost
// recomputed), so this only seeds branch-and-bound with a better
// incumbent; exactness is unaffected.
func (s *solver) improveFrom(start []int) ([]int, float64) {
	m := len(s.p.Classes)
	sc := s.scratch()
	pick := append([]int(nil), start...)

	for pass := 0; pass < 512; pass++ {
		required := s.closure(pick)
		if required == nil {
			return pick, math.Inf(1) // broken start; caller discards
		}
		if s.singleSwitchSweep(pick, required) {
			continue
		}
		// Classes worth switching for hub moves: selected, paying a
		// real cost, with at least one cheaper alternative node.
		switchable := sc.switchable[:0]
		for c := 0; c < m; c++ {
			if !required[c] || pick[c] < 0 {
				continue
			}
			cur := s.p.Costs[pick[c]]
			if cur <= boundAdjust {
				continue
			}
			for _, i := range s.allowed[c] {
				if s.p.Costs[i] < cur {
					switchable = append(switchable, c)
					break
				}
			}
		}
		sc.switchable = switchable
		debugf("pass %d: switchable=%d required-classes=%d", pass, len(switchable), countTrue(required))
		// Evaluate every candidate alternative once against the current
		// base, recording its marginal completion ("support"). A hub can
		// only improve an alternative whose support contains the hub's
		// completion classes, so an inverted index (class -> interested
		// alternatives) reduces the hub loop to relevant re-evaluations.
		alts := sc.alts[:0]
		interested, hubCandidate := sc.interested, sc.hubCandidate
		for c := range interested {
			interested[c] = interested[c][:0]
			hubCandidate[c] = false
		}
		for _, c := range switchable {
			cur := s.p.Costs[pick[c]]
			for _, i := range s.allowed[c] {
				if i == pick[c] || s.p.Costs[i] >= cur {
					continue
				}
				_, adds, feasible := s.completeNode(c, i, required, sc.altAdds[:0])
				sc.altAdds = adds
				if !feasible {
					continue
				}
				idx := len(alts)
				alts = append(alts, altInfo{class: c, node: i, cur: cur})
				for _, a := range adds {
					interested[a.class] = append(interested[a.class], idx)
					hubCandidate[a.class] = true
				}
			}
		}
		sc.alts = alts
		improved := false
		hubsTried, bestNet := 0, math.Inf(-1)
		base := sc.base
		for hub := 0; hub < m && !improved; hub++ {
			if required[hub] || !hubCandidate[hub] || len(s.allowed[hub]) == 0 {
				continue
			}
			hubsTried++
			addCost, addPick, ok := s.marginalClosureSeen(hub, required, sc.hubAdds[:0])
			sc.hubAdds = addPick
			if !ok || math.IsInf(addCost, 1) || addCost <= boundAdjust {
				// Free or impossible hubs cannot change the economics.
				continue
			}
			copy(base, required)
			for _, a := range addPick {
				base[a.class] = true
			}
			// Re-evaluate only the alternatives whose support intersects
			// the hub's completion, keeping each class's best switch.
			candIdx := append(sc.candIdx[:0], interested[hub]...)
			for _, a := range addPick {
				candIdx = append(candIdx, interested[a.class]...)
			}
			sc.candIdx = candIdx
			sc.seenAlt.reset(len(alts))
			sc.moved.reset(m)
			sc.touched, sc.arena = sc.touched[:0], sc.arena[:0]
			for _, idx := range candIdx {
				if sc.seenAlt.has(idx) {
					continue
				}
				sc.seenAlt.add(idx)
				ai := alts[idx]
				marginal, adds, feasible := s.completeNode(ai.class, ai.node, base, sc.altAdds[:0])
				sc.altAdds = adds
				if !feasible {
					continue
				}
				c := ai.class
				prev := 0.0
				if sc.moved.has(c) {
					prev = sc.gain[c]
				}
				if gain := ai.cur - marginal; gain > prev+boundAdjust {
					if !sc.moved.has(c) {
						sc.moved.add(c)
						sc.touched = append(sc.touched, c)
					}
					from := len(sc.arena)
					sc.arena = append(sc.arena, adds...)
					sc.gain[c] = gain
					sc.move[c] = switchMove{node: ai.node, from: from, to: len(sc.arena)}
				}
			}
			// Sum the savings in ascending class order, so float
			// rounding cannot make the verdict depend on visit order.
			sort.Ints(sc.touched)
			savings := 0.0
			for _, c := range sc.touched {
				savings += sc.gain[c]
			}
			if net := savings - addCost; net > bestNet {
				bestNet = net
			}
			if savings <= addCost+boundAdjust || len(sc.touched) == 0 {
				continue
			}
			// Commit tentatively, with an undo log.
			curCost := s.incumbentCost(pick)
			undo := sc.undo[:0]
			for _, a := range addPick {
				undo.set(pick, a.class, a.node)
			}
			for _, c := range sc.touched {
				mv := sc.move[c]
				undo.set(pick, c, mv.node)
				for _, a := range sc.arena[mv.from:mv.to] {
					if pick[a.class] < 0 || !required[a.class] {
						undo.set(pick, a.class, a.node)
					}
				}
			}
			sc.undo = undo
			s.fillFreeFrom(pick, undo)
			if cost, okc := s.selectionCost(pick); okc && cost < curCost-boundAdjust {
				improved = true
				s.improveCommits++
			} else {
				undo.rollback(pick)
			}
		}
		debugf("pass %d: hubsTried=%d bestNet=%.2f improved=%v", pass, hubsTried, bestNet, improved)
		if !improved {
			break
		}
	}

	return pick, s.incumbentCost(pick)
}

// singleSwitchSweep tries replacing one selected class's pick with
// each alternative (greedily completing new requirements) and commits
// the first full-validation improvement. Returns whether it improved.
func (s *solver) singleSwitchSweep(pick []int, required []bool) bool {
	sc := s.scratch()
	cur := s.incumbentCost(pick)
	for c := range s.p.Classes {
		if !required[c] || len(s.allowed[c]) < 2 {
			continue
		}
		for _, i := range s.allowed[c] {
			if i == pick[c] {
				continue
			}
			undo := sc.undo[:0]
			undo.set(pick, c, i)
			feasible := true
			for _, h := range s.p.Children[i] {
				if h == c {
					feasible = false
					break
				}
				if required[h] {
					continue
				}
				_, adds, ok := s.marginalClosureSeen(h, required, sc.tmpAdds[:0])
				sc.tmpAdds = adds
				if !ok {
					feasible = false
					break
				}
				for _, a := range adds {
					if pick[a.class] < 0 || !required[a.class] {
						undo.set(pick, a.class, a.node)
					}
				}
			}
			sc.undo = undo
			if !feasible {
				undo.rollback(pick)
				continue
			}
			s.fillFreeFrom(pick, undo)
			if cost, ok := s.selectionCost(pick); ok && cost < cur-boundAdjust {
				s.improveCommits++
				debugf("single-switch: class %d -> node %d, %.2f -> %.2f", c, i, cur, cost)
				return true
			}
			undo.rollback(pick)
		}
	}
	return false
}

func countTrue(b []bool) int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}

// closure returns the set of classes reachable from the root through
// the current picks, or nil if the selection is incomplete or cyclic.
// The set is a scratch buffer, valid until the next call.
func (s *solver) closure(pick []int) []bool {
	if _, ok := s.selectionCost(pick); !ok {
		return nil
	}
	sc := s.sc
	for c := range sc.required {
		sc.required[c] = sc.done.has(c)
	}
	return sc.required
}

// incumbentCost is the closure cost of a selection assumed valid.
func (s *solver) incumbentCost(pick []int) float64 {
	cost, ok := s.selectionCost(pick)
	if !ok {
		return math.Inf(1)
	}
	return cost
}

// selectionCost validates a selection (complete and acyclic from the
// root) and returns its DAG cost. It leaves the visited classes in
// the scratch's done set.
func (s *solver) selectionCost(pick []int) (float64, bool) {
	sc := s.scratch()
	m := len(s.p.Classes)
	sc.open.reset(m)
	sc.done.reset(m)
	total := 0.0
	if !s.walkSelection(pick, s.p.Root, &total) {
		return 0, false
	}
	return total, true
}

// walkSelection adds the cost of c's unvisited closure to total in
// depth-first preorder, failing on an unpicked class or a cycle.
func (s *solver) walkSelection(pick []int, c int, total *float64) bool {
	sc := s.sc
	if sc.done.has(c) {
		return true
	}
	if sc.open.has(c) || pick[c] < 0 {
		return false
	}
	sc.open.add(c)
	*total += s.p.Costs[pick[c]]
	for _, h := range s.p.Children[pick[c]] {
		if !s.walkSelection(pick, h, total) {
			return false
		}
	}
	sc.done.add(c)
	return true
}

// completeNode prices switching class c to node i on top of base: the
// node's cost plus the cheapest completion of its children outside
// base, which it appends to adds. A child equal to c is a self-loop
// and makes the switch infeasible.
func (s *solver) completeNode(c, i int, base []bool, adds []addEntry) (float64, []addEntry, bool) {
	marginal := s.p.Costs[i]
	for _, h := range s.p.Children[i] {
		if h == c {
			return 0, adds, false
		}
		if base[h] {
			continue
		}
		sub, more, ok := s.marginalClosureSeen(h, base, adds)
		adds = more
		if !ok {
			return 0, adds, false
		}
		marginal += sub
	}
	return marginal, adds, true
}

// marginalClosureSeen computes the cheapest completion of class c on
// top of the base set and appends it to adds: the extra classes that
// must be selected, with their nodes. Classes already in adds (sibling
// completions) count as completed at zero cost. It returns the
// completion's cost and the extended slice; on failure the entries past
// the original length are garbage. Free classes complete through
// freePick at zero cost.
//
// A completion may close a cycle: a class reached again while its own
// completion is in progress is already marked, so it counts as done.
// Such selections are rejected where every move is re-validated by
// selectionCost before it commits.
func (s *solver) marginalClosureSeen(c int, base []bool, adds []addEntry) (float64, []addEntry, bool) {
	sc := s.scratch()
	sc.inSet.reset(len(s.p.Classes))
	for _, a := range adds {
		sc.inSet.add(a.class)
	}
	sc.adds = adds
	sc.budget = 512 // completions larger than this are never profitable hubs
	cost, ok := s.complete(c, base)
	adds, sc.adds = sc.adds, nil
	return cost, adds, ok
}

// complete is marginalClosureSeen's recursion: it completes class h,
// appending to the scratch's adds, and returns the added cost.
func (s *solver) complete(h int, base []bool) (float64, bool) {
	sc := s.sc
	if base[h] || sc.inSet.has(h) {
		return 0, true
	}
	if sc.budget--; sc.budget < 0 {
		return 0, false
	}
	if f := s.freePick[h]; f >= 0 {
		sc.inSet.add(h)
		sc.adds = append(sc.adds, addEntry{h, f})
		for _, ch := range s.p.Children[f] {
			if _, ok := s.complete(ch, base); !ok {
				return 0, false
			}
		}
		return 0, true
	}
	// Choose the node with the least marginal cost by the static
	// tree heuristic, then recurse.
	bestNode, bestHeur := -1, math.Inf(1)
	for _, i := range s.allowed[h] {
		t := s.p.Costs[i]
		for _, ch := range s.p.Children[i] {
			if !base[ch] && !sc.inSet.has(ch) {
				t += s.greedy[ch]
			}
		}
		if t < bestHeur {
			bestHeur, bestNode = t, i
		}
	}
	if bestNode < 0 {
		return 0, false
	}
	sc.inSet.add(h)
	sc.adds = append(sc.adds, addEntry{h, bestNode})
	total := s.p.Costs[bestNode]
	for _, ch := range s.p.Children[bestNode] {
		sub, ok := s.complete(ch, base)
		if !ok {
			return 0, false
		}
		total += sub
	}
	return total, true
}

// fillFreeFrom assigns freePick derivations for classes referenced by
// recently changed picks but still unpicked. These assignments are not
// logged: a rolled-back move may leave free picks on classes outside
// the selection's closure, which neither its cost nor its validity
// reads.
func (s *solver) fillFreeFrom(pick []int, changed []addEntry) {
	for _, e := range changed {
		if pick[e.class] < 0 {
			continue
		}
		for _, h := range s.p.Children[pick[e.class]] {
			s.ensureFree(pick, h)
		}
	}
}

// ensureFree picks h's free derivation, recursively, if h is unpicked.
func (s *solver) ensureFree(pick []int, h int) {
	if pick[h] >= 0 {
		return
	}
	if f := s.freePick[h]; f >= 0 {
		pick[h] = f
		for _, ch := range s.p.Children[f] {
			s.ensureFree(pick, ch)
		}
	}
}
