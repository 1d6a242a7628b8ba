package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/metrics"
	"sync"
	"time"

	"tensat"
	"tensat/internal/cachestore"
	"tensat/internal/extract"
	"tensat/internal/fingerprint"
	"tensat/internal/ilp"
	"tensat/internal/ilp/backend"
	"tensat/internal/ilp/presolve"
	"tensat/internal/models"
	"tensat/internal/rewrite"
	"tensat/internal/tensor"
)

// zooGraphs is Table 1's seven models plus ResNet-50, in the order
// every pass optimizes them.
var zooGraphs = []string{"NasRNN", "BERT", "ResNeXt-50", "NasNet-A", "SqueezeNet", "VGG-19", "Inception-v3", "ResNet-50"}

// pipelineSpec is one pipeline workload: which zoo graphs, at which
// options. The limits are the cmd/tensat defaults.
type pipelineSpec struct {
	graphs []string
	opts   tensat.Options
}

func pipelineOptions(kMulti int, ex tensat.Extractor) tensat.Options {
	return tensat.Options{
		NodeLimit:   20000,
		IterLimit:   15,
		KMulti:      kMulti,
		Extractor:   ex,
		CycleFilter: tensat.FilterEfficient,
		ILPTimeout:  2 * time.Minute,
	}
}

var pipelineSpecs = map[string]pipelineSpec{
	"zoo-ilp": {graphs: zooGraphs, opts: pipelineOptions(1, tensat.ExtractILP)},
	// NasRNN is the only zoo graph whose k_multi=2 output is right
	// today; the others are left out with their measured failures (see
	// layers.json), since every job here must succeed.
	"k2-greedy": {graphs: []string{"NasRNN"}, opts: pipelineOptions(2, tensat.ExtractGreedy)},
}

// pipelineEnv is what set-up builds: the input graphs and a warmed
// Optimizer with its own registry (so rule compilation is set-up work).
type pipelineEnv struct {
	spec   pipelineSpec
	graphs []*tensor.Graph
	reg    *tensat.Registry
	opt    *tensat.Optimizer
}

// warmGraph is the paper's Figure 2 graph: two matmuls sharing an input.
func warmGraph() *tensor.Graph {
	b := tensat.NewBuilder()
	x := b.Input("warm_x", 64, 256)
	return b.MustFinish(
		b.Matmul(tensat.ActNone, x, b.Weight("warm_w1", 256, 256)),
		b.Matmul(tensat.ActNone, x, b.Weight("warm_w2", 256, 256)))
}

func setupPipeline(ctx context.Context, spec pipelineSpec) (*pipelineEnv, error) {
	env := &pipelineEnv{spec: spec, reg: tensat.NewRegistry()}
	for _, name := range spec.graphs {
		m, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		env.graphs = append(env.graphs, m.Build(models.ScaleTest))
	}
	env.opt = tensat.NewOptimizer(tensat.WithRegistry(env.reg))
	// The warm-up runs at k_multi=1: the Figure 2 graph at k_multi=2
	// grows past 3 GB before the node limit stops it.
	warm := spec.opts
	warm.KMulti = 1
	job, err := env.opt.Submit(ctx, warmGraph(), warm)
	if err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	if _, err := job.Result(); err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return env, nil
}

// jobRun is one untraced job: Submit → Result.
type jobRun struct {
	res  *tensat.Result
	err  error
	wall time.Duration
}

// passRun is one untraced pass over the workload's jobs.
type passRun struct {
	jobs  []jobRun
	wall  time.Duration
	alloc uint64 // heap bytes allocated during the pass
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runPass optimizes every graph once, one job at a time.
func (env *pipelineEnv) runPass(ctx context.Context) passRun {
	var p passRun
	a0, t0 := heapAllocs(), time.Now()
	for _, g := range env.graphs {
		start := time.Now()
		var jr jobRun
		job, err := env.opt.Submit(ctx, g, env.spec.opts)
		if err == nil {
			jr.res, jr.err = job.Result()
		} else {
			jr.err = err
		}
		jr.wall = time.Since(start)
		p.jobs = append(p.jobs, jr)
	}
	p.wall, p.alloc = time.Since(t0), heapAllocs()-a0
	return p
}

// tracedJob is one job run as the pipeline's public pieces, each timed
// from outside: RunContext, then GreedyContext or BuildProblem →
// presolve.Run → the backend's Solve.
type tracedJob struct {
	err                           error
	wall                          time.Duration
	ex                            rewrite.Stats
	cost                          float64
	graph                         *tensor.Graph // greedy only; the ILP graph rebuild is private
	explore, greedy, model, solve time.Duration
	presolve                      time.Duration
	red                           presolve.Reduction
	vars, classes                 int
	sol                           *ilp.Solution
}

// tracedRunner holds the rule set compiled once, as the Optimizer's
// registry holds it, so exploration is configured exactly as
// Optimizer.run configures it.
type tracedRunner struct {
	rules    []*tensat.Rule
	compiled *rewrite.CompiledRules
	model    tensat.CostModel
}

func newTracedRunner(reg *tensat.Registry) (*tracedRunner, error) {
	rs, ok := reg.RuleSet(tensat.DefaultRuleSetName)
	if !ok {
		return nil, fmt.Errorf("registry has no %q rule set", tensat.DefaultRuleSetName)
	}
	return &tracedRunner{rules: rs, compiled: rewrite.CompileRules(rs), model: tensat.DefaultCostModel()}, nil
}

func (r *tracedRunner) run(ctx context.Context, tr *tracer, req string, g *tensor.Graph, opt tensat.Options) (tj tracedJob) {
	root := tr.begin("tensat.job", req, -1)
	start := time.Now()
	defer func() { tj.wall = time.Since(start); tr.end(root) }()

	runner := rewrite.NewRunner(r.rules)
	runner.Compiled = r.compiled
	runner.Limits = rewrite.Limits{MaxNodes: opt.NodeLimit, MaxIters: opt.IterLimit, KMulti: opt.KMulti, Timeout: opt.ExploreTimeout}
	runner.Workers = opt.Workers
	runner.Filter = rewrite.FilterEfficient
	s := tr.begin("rewrite.explore", req, root)
	t := time.Now()
	ex, err := runner.RunContext(ctx, g)
	tj.explore = time.Since(t)
	tr.end(s)
	if err != nil {
		tj.err = err
		return tj
	}
	tj.ex = ex.Stats

	if opt.Extractor == tensat.ExtractGreedy {
		s = tr.begin("extract.greedy", req, root)
		t = time.Now()
		res, err := extract.GreedyContext(ctx, ex, r.model)
		tj.greedy = time.Since(t)
		tr.end(s)
		if err != nil {
			tj.err = err
			return tj
		}
		tj.cost, tj.graph = res.Cost, res.Graph
		return tj
	}

	ilpOpts := extract.ILPOptions{
		TopoMode:    ilp.TopoReal,
		Timeout:     opt.ILPTimeout,
		Solver:      opt.ILPSolver,
		OnIncumbent: func(float64) {},
	}
	s = tr.begin("extract.model", req, root)
	t = time.Now()
	p, ix, err := extract.BuildProblem(ex, r.model, ilpOpts)
	tj.model = time.Since(t)
	tr.end(s)
	if err != nil {
		tj.err = err
		return tj
	}
	p.OnIncumbent = func(float64, int64) {}
	tj.vars, tj.classes = len(p.Costs), len(ix.ClassIDs)

	s = tr.begin("ilp.presolve", req, root)
	t = time.Now()
	q, red, err := presolve.Run(ctx, p)
	tj.presolve = time.Since(t)
	tr.end(s)
	if err != nil {
		tj.err = err
		return tj
	}
	tj.red = red

	solver, err := backend.Select(ilpOpts.Solver, ilpOpts.Workers)
	if err != nil {
		tj.err = err
		return tj
	}
	s = tr.begin("ilp.solve", req, root)
	t = time.Now()
	sol, err := solver.Solve(ctx, q)
	tj.solve = time.Since(t)
	tr.end(s)
	if err != nil {
		tj.err = err
		return tj
	}
	tj.sol, tj.cost = sol, sol.Cost
	return tj
}

// peakSampler samples the live heap until stopped, keeping the peak.
// Peak heap depends on GC timing, so it is diagnostic only.
type peakSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startPeakSampler() *peakSampler {
	ps := &peakSampler{stop: make(chan struct{})}
	ps.wg.Add(1)
	go func() {
		defer ps.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			ps.peak = max(ps.peak, heapObjects())
			select {
			case <-ps.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return ps
}

func (ps *peakSampler) done() uint64 {
	close(ps.stop)
	ps.wg.Wait()
	return ps.peak
}

// runPipeline runs a pipeline workload for the given duration and
// returns its metrics and checks.
func runPipeline(ctx context.Context, name string, seed int64, seconds int, traced bool) (*outcome, error) {
	spec := pipelineSpecs[name]
	// The zoo graphs are fixed; the seed sets the order a pass runs
	// them in.
	order := rand.New(rand.NewSource(seed)).Perm(len(spec.graphs))
	shuffled := make([]string, len(order))
	for i, j := range order {
		shuffled[i] = spec.graphs[j]
	}
	spec.graphs = shuffled
	out := newOutcome()
	out.config = map[string]any{
		"graphs": spec.graphs, "scale": "test", "k_multi": spec.opts.KMulti,
		"extractor": extractorName(spec.opts.Extractor), "node_limit": spec.opts.NodeLimit,
		"iter_limit": spec.opts.IterLimit, "cycle_filter": "efficient", "ilp_solver": "builtin",
		"ilp_timeout_s": spec.opts.ILPTimeout.Seconds(), "jobs_at_a_time": 1,
	}

	var env *pipelineEnv
	var setups []float64
	for range setupRepeats {
		t := time.Now()
		e, err := setupPipeline(ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		env = e
	}

	// Input evaluations are cached here, outside set-up and every timed
	// region; check time is reported on its own.
	checkStart := time.Now()
	inputs := make([][]*tensor.Tensor, len(env.graphs))
	for i, g := range env.graphs {
		vals, err := tensor.NewEvaluator().EvalOutputs(g)
		if err != nil {
			return nil, fmt.Errorf("evaluating input %s: %w", spec.graphs[i], err)
		}
		inputs[i] = vals
	}
	checkTime := time.Since(checkStart)

	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	var passes []passRun
	var tpasses [][]tracedJob
	var tallocs []float64
	var peak *peakSampler
	var tr *tracer
	if !traced {
		for len(passes) == 0 || time.Now().Before(deadline) {
			passes = append(passes, env.runPass(ctx))
		}
	} else {
		// One untraced pass gives the reference for the composition
		// check and the tracing overhead; traced passes fill the rest.
		tr = newTracer()
		r, err := newTracedRunner(env.reg)
		if err != nil {
			return nil, err
		}
		peak = startPeakSampler()
		passes = append(passes, env.runPass(ctx))
		for len(tpasses) == 0 || time.Now().Before(deadline) {
			var pass []tracedJob
			a0 := heapAllocs()
			for i, g := range env.graphs {
				req := fmt.Sprintf("%s#%d", spec.graphs[i], len(tpasses))
				pass = append(pass, r.run(ctx, tr, req, g, spec.opts))
			}
			tallocs = append(tallocs, float64(heapAllocs()-a0)/1e6)
			tpasses = append(tpasses, pass)
		}
	}

	checkStart = time.Now()
	codec := checkPipelineOutputs(out, spec, passes, inputs)
	checkTracedComposition(out, spec, passes[0], tpasses)
	checkCountsRepeat(out, spec, passes)
	checkTime += time.Since(checkStart)
	out.checkTime = checkTime

	var walls, jobWalls, allocs, ratios []float64
	byJob := make([][]float64, len(spec.graphs))
	failed := 0
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		allocs = append(allocs, float64(p.alloc)/1e6)
		for i, j := range p.jobs {
			jobWalls = append(jobWalls, j.wall.Seconds()*1e3)
			byJob[i] = append(byJob[i], j.wall.Seconds()*1e3)
		}
	}
	for op, ok := range out.opOK {
		if ok {
			ratios = append(ratios, out.opRatio[op])
		} else {
			failed++
		}
	}
	p99, p99Kind := tail(jobWalls)
	out.notes["latency_p99_ms"] = p99Kind
	e2e := map[string]float64{
		"setup_s":        median(setups),
		"optimize_s":     median(walls),
		"speedup_pct":    speedupPct(ratios, failed),
		"alloc_mb":       median(allocs),
		"latency_p50_ms": typicalLatency(byJob),
		"latency_p99_ms": p99,
		"ops_per_s":      float64(len(jobWalls)) / sum(walls),
	}
	if !traced {
		out.metrics = e2e
		return out, nil
	}
	out.metrics = pipelineLayers(spec, passes, tpasses, codec)
	out.metrics["tensat.peak_heap_mb"] = float64(peak.done()) / 1e6
	var twalls []float64
	tjobs := make([][]float64, len(spec.graphs))
	for _, pass := range tpasses {
		w := 0.0
		for i, j := range pass {
			w += j.wall.Seconds()
			tjobs[i] = append(tjobs[i], j.wall.Seconds()*1e3)
		}
		twalls = append(twalls, w)
	}
	out.metrics["overhead.optimize_s"] = median(twalls) - e2e["optimize_s"]
	out.metrics["overhead.alloc_mb"] = median(tallocs) - e2e["alloc_mb"]
	out.metrics["overhead.latency_p50_ms"] = typicalLatency(tjobs) - e2e["latency_p50_ms"]
	out.tracer = tr
	return out, nil
}

func extractorName(e tensat.Extractor) string {
	if e == tensat.ExtractGreedy {
		return "greedy"
	}
	return "ilp"
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// codecTimes are the wire-format and store-codec layers measured on a
// workload's distinct outputs.
type codecTimes struct {
	n                        int
	encode, decode, fprint   time.Duration
	storeEncode, storeDecode time.Duration
}

// checkPipelineOutputs validates every result graph, evaluates each
// distinct output once against the cached input evaluation, and
// round-trips each distinct output through the wire format and the
// store codec, timing those layers.
func checkPipelineOutputs(out *outcome, spec pipelineSpec, passes []passRun, inputs [][]*tensor.Tensor) codecTimes {
	var ct codecTimes
	verdict := make(map[string]error) // output text → check result
	for _, p := range passes {
		for i, j := range p.jobs {
			op := out.attempt()
			if j.err != nil {
				out.fail(op, fmt.Sprintf("%s: %v", spec.graphs[i], j.err))
				continue
			}
			if err := j.res.Graph.Validate(); err != nil {
				out.markWrong(op, fmt.Sprintf("%s: output fails Validate: %v", spec.graphs[i], err))
				continue
			}
			text, err := j.res.Graph.MarshalText()
			if err != nil {
				out.markWrong(op, fmt.Sprintf("%s: output does not encode: %v", spec.graphs[i], err))
				continue
			}
			verr, seen := verdict[string(text)]
			if !seen {
				verr = checkOutput(j.res, text, inputs[i], &ct)
				verdict[string(text)] = verr
			}
			if verr != nil {
				out.markWrong(op, fmt.Sprintf("%s: %v", spec.graphs[i], verr))
				continue
			}
			out.ok(op, j.res.OrigCost/j.res.OptCost)
		}
	}
	return ct
}

// maxRelDiff is the evaluation tolerance between input and output.
const maxRelDiff = 1e-6

func checkOutput(res *tensat.Result, text []byte, want []*tensor.Tensor, ct *codecTimes) error {
	got, err := tensor.NewEvaluator().EvalOutputs(res.Graph)
	if err != nil {
		return fmt.Errorf("output does not evaluate: %w", err)
	}
	if len(got) != len(want) {
		return fmt.Errorf("output has %d tensors, input %d", len(got), len(want))
	}
	for k := range got {
		if d := got[k].MaxRelDiff(want[k]); d > maxRelDiff {
			return fmt.Errorf("output %d differs from the input's by %g", k, d)
		}
	}
	ct.n++
	t := time.Now()
	if _, err := res.Graph.MarshalText(); err != nil {
		return err
	}
	ct.encode += time.Since(t)
	t = time.Now()
	back, err := tensor.UnmarshalGraph(text)
	ct.decode += time.Since(t)
	if err != nil {
		return fmt.Errorf("output does not decode: %w", err)
	}
	t = time.Now()
	fp, err := fingerprint.Graph(back)
	ct.fprint += time.Since(t)
	if err != nil {
		return err
	}
	if want, err := fingerprint.Graph(res.Graph); err != nil || want != fp {
		return fmt.Errorf("output fingerprint changes over the wire format")
	}
	names, err := fingerprint.Tensors(res.Graph)
	if err != nil {
		return err
	}
	t = time.Now()
	payload, err := cachestore.Encode(res, names, cachestore.KeyParts{Fingerprint: fp.String()})
	ct.storeEncode += time.Since(t)
	if err != nil {
		return err
	}
	t = time.Now()
	dec, _, _, err := cachestore.Decode(payload)
	ct.storeDecode += time.Since(t)
	if err != nil {
		return err
	}
	if dec.OptCost != res.OptCost {
		return fmt.Errorf("store codec changes the cost")
	}
	return nil
}

// checkTracedComposition asserts that the traced run, assembled from
// the pipeline's public pieces, reproduces the untraced job's cost,
// e-graph sizes and match count, so the per-layer numbers describe the
// same work as the end-to-end ones.
func checkTracedComposition(out *outcome, spec pipelineSpec, ref passRun, traced [][]tracedJob) {
	for _, pass := range traced {
		for i, tj := range pass {
			name, want := spec.graphs[i], ref.jobs[i]
			if (tj.err == nil) != (want.err == nil) {
				out.mismatch(fmt.Sprintf("%s: traced error %v, untraced error %v", name, tj.err, want.err))
				continue
			}
			if tj.err != nil {
				continue
			}
			r := want.res
			if !closeTo(tj.cost, r.OptCost) || tj.ex.ENodes != r.ENodes || tj.ex.EClasses != r.EClasses || tj.ex.SearchMatches != r.Search.Matches {
				out.mismatch(fmt.Sprintf("%s: traced cost/enodes/eclasses/matches %g/%d/%d/%d, untraced %g/%d/%d/%d",
					name, tj.cost, tj.ex.ENodes, tj.ex.EClasses, tj.ex.SearchMatches, r.OptCost, r.ENodes, r.EClasses, r.Search.Matches))
			}
		}
	}
}

func closeTo(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*max(1, a, b)
}

// checkCountsRepeat flags any job whose e-graph sizes, match count,
// iterations or ILP incumbents differ between passes of one run.
func checkCountsRepeat(out *outcome, spec pipelineSpec, passes []passRun) {
	counts := func(r *tensat.Result) [5]int {
		return [5]int{r.ENodes, r.EClasses, r.Search.Matches, r.Iterations, r.ILP.Incumbents}
	}
	for i := range spec.graphs {
		var first *[5]int
		for _, p := range passes {
			if p.jobs[i].err != nil {
				continue
			}
			c := counts(p.jobs[i].res)
			if first == nil {
				first = &c
			} else if c != *first {
				out.countDrift = append(out.countDrift, fmt.Sprintf("%s: enodes/eclasses/matches/iterations/incumbents %v then %v", spec.graphs[i], *first, c))
				break
			}
		}
	}
}

// pipelineLayers turns the traced passes into per-layer metrics: each
// figure is a per-pass total, the median over traced passes.
func pipelineLayers(spec pipelineSpec, passes []passRun, traced [][]tracedJob, ct codecTimes) map[string]float64 {
	perPass := make([]map[string]float64, len(traced))
	for k, pass := range traced {
		m := make(map[string]float64)
		var matches, applied, dropped, before float64
		var ilpJobs, optimal float64
		for _, tj := range pass {
			st := tj.ex
			m["pattern.search_s"] += st.SearchTime.Seconds()
			m["pattern.matches"] += float64(st.SearchMatches)
			m["pattern.classes_scanned"] += float64(st.SearchScanned)
			m["pattern.classes_pruned"] += float64(st.SearchPruned)
			m["egraph.apply_s"] += st.ApplyTime.Seconds()
			m["egraph.rebuild_s"] += st.RebuildTime.Seconds()
			m["egraph.enodes"] += float64(st.ENodes)
			m["egraph.eclasses"] += float64(st.EClasses)
			m["egraph.skipped_shape"] += float64(st.SkippedShape)
			m["egraph.skipped_cycle"] += float64(st.SkippedCycle)
			m["egraph.filtered_nodes"] += float64(st.FilteredNodes)
			matches += float64(st.Matches)
			applied += float64(st.Applied)
			m["rewrite.explore_s"] += tj.explore.Seconds()
			m["rewrite.self_s"] += (tj.explore - st.SearchTime - st.ApplyTime - st.RebuildTime).Seconds()
			m["rewrite.iterations"] += float64(st.Iterations)
			m["rewrite.stop_saturated"] += b2f(st.Saturated)
			m["rewrite.stop_node_limit"] += b2f(st.HitNodeLimit)
			m["rewrite.stop_iter_limit"] += b2f(st.HitIterLimit)
			m["extract.greedy_s"] += tj.greedy.Seconds()
			m["extract.model_s"] += tj.model.Seconds()
			m["extract.ilp_vars"] += float64(tj.vars)
			m["extract.ilp_classes"] += float64(tj.classes)
			m["ilp.presolve_s"] += tj.presolve.Seconds()
			m["ilp.solve_s"] += tj.solve.Seconds()
			if tj.sol != nil {
				ilpJobs++
				optimal += b2f(tj.sol.Optimal)
				m["ilp.explored"] += float64(tj.sol.Explored)
				m["ilp.incumbents"] += float64(tj.sol.Incumbents)
				dropped += float64(tj.red.NodesDropped)
				before += float64(tj.red.NodesBefore)
			}
			m["split.pass_s"] += tj.wall.Seconds()
		}
		m["egraph.applied_per_match"] = ratio(applied, matches)
		m["ilp.presolve_ratio"] = ratio(dropped, before)
		m["ilp.optimal_ratio"] = ratio(optimal, ilpJobs)
		m["ilp.expansions_per_s"] = ratio(m["ilp.explored"], m["ilp.solve_s"])
		m["split.search_share_of_explore"] = ratio(m["pattern.search_s"], m["rewrite.explore_s"])
		m["split.ilp_share_of_pass"] = ratio(m["extract.model_s"]+m["ilp.presolve_s"]+m["ilp.solve_s"], m["split.pass_s"])
		perPass[k] = m
	}
	out := make(map[string]float64)
	for key := range perPass[0] {
		var xs []float64
		for _, m := range perPass {
			xs = append(xs, m[key])
		}
		out[key] = median(xs)
	}
	delete(out, "split.pass_s")
	for i, name := range spec.graphs {
		var walls []float64
		var sp float64
		for _, p := range passes {
			walls = append(walls, p.jobs[i].wall.Seconds())
			if r := p.jobs[i].res; p.jobs[i].err == nil {
				sp = r.SpeedupPercent
			}
		}
		out["tensat.job_s."+name] = median(walls)
		out["tensat.speedup_pct."+name] = sp
	}
	if ct.n > 0 {
		out["tensor.encode_us"] = micros(ct.encode, ct.n)
		out["tensor.decode_us"] = micros(ct.decode, ct.n)
		out["fingerprint.graph_us"] = micros(ct.fprint, ct.n)
		out["cachestore.encode_us"] = micros(ct.storeEncode, ct.n)
		out["cachestore.decode_us"] = micros(ct.storeDecode, ct.n)
	}
	return out
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
