package ilp

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// parallelShared is the incumbent state shared by every worker of a
// parallel solve: the best cost as atomic float64 bits (lock-free
// reads on the pruning hot path) and, under the mutex, the best
// selection with its originating unit index for deterministic
// tie-breaking, the incumbent diagnostics, and the OnIncumbent fanout.
type parallelShared struct {
	bestBits atomic.Uint64 // math.Float64bits of the best cost
	explored atomic.Int64  // global expansion count, for OnIncumbent

	mu             sync.Mutex
	bestPick       []int
	bestUnit       int
	incumbents     int
	firstIncumbent time.Duration
	start          time.Time
	onIncumbent    func(cost float64, explored int64)
}

// best returns the current shared incumbent cost (+Inf when none).
func (sh *parallelShared) best() float64 {
	return math.Float64frombits(sh.bestBits.Load())
}

// offer proposes a complete selection found while searching unit. It
// is accepted when strictly better than the incumbent, or when equal
// (within boundAdjust) but found in an earlier unit — the tie-break
// that makes the parallel result deterministic regardless of worker
// scheduling: among equal-cost optima, the one from the lowest unit
// index wins, which is the one the sequential search commits first.
func (sh *parallelShared) offer(cost float64, pick []int, unit int) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.best()
	improved := cost < cur-boundAdjust
	tie := !improved && math.Abs(cost-cur) <= boundAdjust && unit < sh.bestUnit
	if !improved && !tie {
		return false
	}
	sh.bestPick = append(sh.bestPick[:0:0], pick...)
	sh.bestUnit = unit
	sh.bestBits.Store(math.Float64bits(cost))
	if improved {
		sh.incumbents++
		if sh.incumbents == 1 {
			sh.firstIncumbent = time.Since(sh.start)
		}
		if sh.onIncumbent != nil {
			sh.onIncumbent(cost, sh.explored.Load())
		}
	}
	return true
}

// unit is one parcel of parallel work: a replayable prefix of branch
// decisions from the root. The subtree below the prefix is searched
// exhaustively by whichever worker claims the unit.
type unit struct {
	steps []step
}

// unitsPerWorker oversubscribes the unit pool so the atomic work queue
// load-balances uneven subtrees, and unitDepth caps how deep the
// collection pass expands before handing subtrees off.
const (
	unitsPerWorker = 8
	unitDepth      = 4
)

// collectUnits expands the top of the search tree breadth-limited and
// returns the frontier as replayable prefixes. It runs on the master
// solver (whose warm-start bound prunes hopeless prefixes) and leaves
// the search state exactly as it found it. Free and forced picks are
// recorded in the prefix but do not consume depth: they are the
// plateau-collapsing assignments, not real branching.
func (s *solver) collectUnits(target int) []unit {
	var units []unit
	var prefix []step
	var walk func(pending []int, bound float64, depth int)
	walk = func(pending []int, bound float64, depth int) {
		if s.acc+bound-boundAdjust >= s.best {
			return // a warm start already beats everything below
		}
		idx, forced := s.pickClass(pending)
		if idx < 0 {
			// Complete solution at collection depth; a unit with a full
			// prefix makes the claiming worker just evaluate the leaf.
			units = append(units, unit{steps: append([]step(nil), prefix...)})
			return
		}
		c := pending[idx]
		rest := removeAt(pending, idx)
		expand := func(node int, deeper int) {
			if s.p.CycleConstraints && s.createsCycle(c, node) {
				return
			}
			st := step{c, node}
			if deeper > unitDepth || (deeper == unitDepth && len(units) >= target) {
				units = append(units, unit{steps: append(append([]step(nil), prefix...), st)})
				return
			}
			next, nb := s.applyStep(st, rest, bound-s.minCost[c])
			prefix = append(prefix, st)
			walk(next, nb, deeper)
			prefix = prefix[:len(prefix)-1]
			s.undoStep(st)
		}
		if forced >= 0 {
			expand(forced, depth) // no branching happened: same depth
			return
		}
		cands := append([]int(nil), s.allowed[c]...)
		for k := range cands {
			for k2 := k + 1; k2 < len(cands); k2++ {
				if s.nodeHeuristic(cands[k2]) < s.nodeHeuristic(cands[k]) {
					cands[k], cands[k2] = cands[k2], cands[k]
				}
			}
		}
		for _, i := range cands {
			if len(units) >= target && depth > 0 {
				// Enough parallelism below this level: emit remaining
				// siblings as whole-subtree units without expanding.
				expand(i, unitDepth+1)
				continue
			}
			expand(i, depth+1)
		}
	}
	s.need[s.p.Root] = 1
	walk([]int{s.p.Root}, s.minCost[s.p.Root], 0)
	s.need[s.p.Root] = 0
	return units
}

// worker clones the master's read-only tables into a fresh search
// state bound to the shared incumbent. The worker grows its own branch
// frames and cycle scratch, so workers share no mutable buffer.
func (s *solver) worker(sh *parallelShared) *solver {
	m := len(s.p.Classes)
	w := &solver{
		p:           s.p,
		deadline:    s.deadline,
		hasDeadline: s.hasDeadline,
		done:        s.done,
		allowed:     s.allowed,
		minCost:     s.minCost,
		greedy:      s.greedy,
		freePick:    s.freePick,
		maxKids:     s.maxKids,
		chosen:      make([]int, m),
		need:        make([]int, m),
		best:        sh.best(),
		start:       s.start,
		shared:      sh,
	}
	for i := range w.chosen {
		w.chosen[i] = -1
	}
	return w
}

// runUnit replays the unit's decision prefix and searches the subtree
// below it exhaustively (modulo pruning against the shared bound).
func (w *solver) runUnit(u unit, idx int) {
	w.unitIdx = idx
	pending := []int{w.p.Root}
	w.need[w.p.Root] = 1
	bound := w.minCost[w.p.Root]
	applied := make([]step, 0, len(u.steps))
	defer func() {
		// Reset the worker state for the next unit.
		for i := len(applied) - 1; i >= 0; i-- {
			w.undoStep(applied[i])
		}
		w.need[w.p.Root] = 0
	}()
	for _, st := range u.steps {
		at := -1
		for k, c := range pending {
			if c == st.class {
				at = k
				break
			}
		}
		if at < 0 {
			return // collection/replay mismatch; abandon defensively
		}
		pending = removeAt(pending, at)
		bound -= w.minCost[st.class]
		if w.p.CycleConstraints && w.createsCycle(st.class, st.node) {
			return
		}
		pending, bound = w.applyStep(st, pending, bound)
		applied = append(applied, st)
	}
	w.branch(pending, bound)
}

// DefaultWorkers is the worker count used when the caller passes 0:
// the machine's parallelism, capped to keep solve fan-out from
// starving the serving path on large hosts.
func DefaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 16 {
		n = 16
	}
	if n < 1 {
		n = 1
	}
	return n
}

// SolveParallel is SolveParallelContext without cancellation.
func SolveParallel(p *Problem, workers int) (*Solution, error) {
	return SolveParallelContext(context.Background(), p, workers)
}

// SolveParallelContext runs branch-and-bound with the top of the
// search tree fanned over a bounded worker pool. Workers search
// disjoint subtrees against a shared atomic incumbent bound, so every
// pruning improvement propagates across the pool; equal-cost optima
// are tie-broken by unit order, making the returned selection
// deterministic for a given problem regardless of scheduling.
// workers <= 0 selects DefaultWorkers(); workers == 1 is exactly
// SolveContext. OnIncumbent sees strictly decreasing costs, serialized
// under the incumbent lock.
func SolveParallelContext(ctx context.Context, p *Problem, workers int) (*Solution, error) {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers == 1 {
		return SolveContext(ctx, p)
	}
	start := time.Now()
	master, err := prepare(ctx, p, start)
	if err != nil {
		return nil, err
	}
	seedCost := master.seed()

	sh := &parallelShared{start: start, onIncumbent: p.OnIncumbent}
	sh.bestBits.Store(math.Float64bits(math.Inf(1)))
	if master.bestPick != nil {
		sh.bestPick = append([]int(nil), master.bestPick...)
		sh.bestUnit = -1 // the warm start precedes every unit
		sh.bestBits.Store(math.Float64bits(master.best))
		sh.incumbents = 1
		sh.firstIncumbent = time.Since(start)
		if p.OnIncumbent != nil {
			p.OnIncumbent(master.best, 0)
		}
	}

	units := master.collectUnits(workers * unitsPerWorker)
	if workers > len(units) {
		workers = len(units)
	}

	var (
		nextUnit atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		explored int64
		timedOut bool
		canceled bool
		stalled  bool
	)
	for wi := 0; wi < workers; wi++ {
		w := master.worker(sh)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(nextUnit.Add(1)) - 1
				if i >= len(units) || w.timedOut || w.stalled {
					break
				}
				w.runUnit(units[i], i)
				sh.explored.Add(w.explored)
				mu.Lock()
				explored += w.explored
				mu.Unlock()
				w.explored = 0
				if b := sh.best(); b < w.best {
					w.best = b
				}
			}
			mu.Lock()
			explored += w.explored
			timedOut = timedOut || w.timedOut
			canceled = canceled || w.canceled
			stalled = stalled || w.stalled
			mu.Unlock()
		}()
	}
	wg.Wait()

	sol := &Solution{
		Optimal:        !timedOut && !stalled,
		TimedOut:       timedOut,
		Canceled:       canceled,
		Stalled:        stalled,
		Explored:       explored,
		Time:           time.Since(start),
		SeedCost:       seedCost,
		ImproveCommits: master.improveCommits,
		Incumbents:     sh.incumbents,
		FirstIncumbent: sh.firstIncumbent,
		Workers:        workers,
	}
	if sh.bestPick == nil {
		switch {
		case canceled:
			return nil, ctx.Err()
		case timedOut || stalled:
			return nil, ErrTimeout
		default:
			return nil, ErrInfeasible
		}
	}
	sol.Cost = sh.best()
	sol.NodeOf = make(map[int]int)
	for c, n := range sh.bestPick {
		if n >= 0 {
			sol.NodeOf[c] = n
		}
	}
	return sol, nil
}
