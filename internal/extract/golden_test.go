package extract

import (
	"context"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"testing"

	"tensat/internal/cost"
	"tensat/internal/ilp"
	"tensat/internal/ilp/presolve"
	"tensat/internal/models"
	"tensat/internal/rewrite"
	"tensat/internal/rules"
)

// searchGolden pins the builtin solver's search on one zoo model: the
// number of branch-and-bound expansions, incumbent improvements and
// local-search commits, the seed and final costs, and a digest of the
// chosen nodes. Any change to candidate order, pruning or the seeding
// local search moves at least one of these, so the golden values make
// "this change leaves the search as it was" checkable.
type searchGolden struct {
	model      string
	stallLimit int64 // 0 keeps BuildProblem's default
	explored   int64
	incumbents int
	commits    int
	seedCost   float64
	cost       float64
	digest     uint64
	parCost    float64 // cost of the 2-worker solve
}

// nodeOfDigest hashes a solution's selection in ascending class order.
func nodeOfDigest(nodeOf map[int]int) uint64 {
	classes := make([]int, 0, len(nodeOf))
	for c := range nodeOf {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	h := fnv.New64a()
	var buf []byte
	for _, c := range classes {
		buf = strconv.AppendInt(buf[:0], int64(c), 10)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(nodeOf[c]), 10)
		buf = append(buf, ';')
		h.Write(buf)
	}
	return h.Sum64()
}

// goldenProblem explores a zoo model the way the zoo pipeline does
// (test scale, k_multi=1, node limit 20000, efficient cycle filter)
// and returns the presolved extraction ILP.
func goldenProblem(t *testing.T, name string, stallLimit int64) *ilp.Problem {
	t.Helper()
	m, err := models.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	r := rewrite.NewRunner(rules.Default())
	r.Filter = rewrite.FilterEfficient
	r.Limits.MaxNodes = 20000
	r.Limits.MaxIters = 15
	r.Limits.KMulti = 1
	ex, err := r.Run(m.Build(models.ScaleTest))
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := BuildProblem(ex, cost.NewT4(), ILPOptions{StallLimit: stallLimit})
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := presolve.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestSolverSearchGolden runs the sequential and the 2-worker builtin
// solver on real zoo extraction problems and checks the sequential
// search against recorded values. BERT at a 100k stall limit exercises
// dozens of local-search commits. A change that alters the search on
// purpose must re-record them and say why.
func TestSolverSearchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("explores four zoo models")
	}
	golden := []searchGolden{
		{model: "SqueezeNet", explored: 100254, incumbents: 8, commits: 4,
			seedCost: 88.52704000000001, cost: 88.52703999999677, digest: 0xb98af417bd338f2a,
			parCost: 88.52704000000001},
		{model: "VGG-19", explored: 917324, incumbents: 3, commits: 12,
			seedCost: 125.033536, cost: 125.03353599999996, digest: 0x1ba1e01369770b6b,
			parCost: 125.033536},
		{model: "ResNet-50", explored: 1434482, incumbents: 1, commits: 0,
			seedCost: 114.80271127272728, cost: 114.80271127272728, digest: 0xff94dedada259117,
			parCost: 114.80271127272728},
		{model: "BERT", stallLimit: 100_000, explored: 100265, incumbents: 1, commits: 34,
			seedCost: 315.515904, cost: 237.74416872727272, digest: 0x56d8348c6977d3d8,
			parCost: 237.74416872727272},
	}
	for _, g := range golden {
		t.Run(g.model, func(t *testing.T) {
			q := goldenProblem(t, g.model, g.stallLimit)
			sol, err := ilp.SolveContext(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			got := searchGolden{
				model:      g.model,
				stallLimit: g.stallLimit,
				explored:   sol.Explored,
				incumbents: sol.Incumbents,
				commits:    sol.ImproveCommits,
				seedCost:   sol.SeedCost,
				cost:       sol.Cost,
				digest:     nodeOfDigest(sol.NodeOf),
				parCost:    g.parCost,
			}
			t.Logf("%s: {explored: %d, incumbents: %d, commits: %d, seedCost: %v, cost: %v, digest: %#x}",
				g.model, got.explored, got.incumbents, got.commits, got.seedCost, got.cost, got.digest)
			if got != g {
				t.Errorf("search changed:\n got %+v\nwant %+v", got, g)
			}
			par, err := ilp.SolveParallelContext(context.Background(), q, 2)
			if err != nil {
				t.Fatal(err)
			}
			// The parallel incumbent only moves on a gain above the solver's
			// 1e-9 tie margin, so it can keep the seed where the sequential
			// search took a float-rounding "improvement" of the same plan.
			if par.Cost != g.parCost || math.Abs(par.Cost-sol.Cost) > 1e-9 {
				t.Errorf("2-worker cost %v, want %v (sequential %v)", par.Cost, g.parCost, sol.Cost)
			}
		})
	}
}
