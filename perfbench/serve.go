package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tensat"
	"tensat/internal/cachestore"
	"tensat/internal/fingerprint"
	"tensat/internal/serve"
	"tensat/internal/tensor"
)

// serve-mix shape. Two workers, two clients and two connections match
// a 2-CPU host; the LRU holds fewer results than the population has
// graphs, so the Zipf tail is answered from the disk tier.
const (
	serveWorkers = 2
	serveClients = 2
	serveLRU     = 16
	// servePass is the request count one serve-mix "pass" stands for in
	// optimize_s and alloc_mb.
	servePass = 1000
	streamLen = 1 << 16
	// replayRequests is how many requests each client replays in a
	// traced run to time a hit's exchange without tensatd.
	replayRequests = 500
)

var serveBase = tensat.Options{
	NodeLimit:  20000,
	IterLimit:  15,
	KMulti:     1,
	Extractor:  tensat.ExtractGreedy,
	ILPTimeout: 2 * time.Minute,
}

// requestBody is a POST /v1/jobs body for g at serve-mix options.
func requestBody(g *tensor.Graph) ([]byte, error) {
	text, err := g.MarshalText()
	if err != nil {
		return nil, err
	}
	return json.Marshal(serve.OptimizeRequest{
		Graph:   string(text),
		Options: serve.RequestOptions{KMulti: 1, Extractor: "greedy"},
	})
}

// timedStore wraps the FileStore passed as serve.Config.Store and
// times every Get and Put the service makes.
type timedStore struct {
	*cachestore.FileStore
	gets, puts        atomic.Int64
	getNS, putNS      atomic.Int64
	bytesIn, bytesOut atomic.Int64
}

func (s *timedStore) Get(key string) ([]byte, bool, error) {
	t := time.Now()
	b, ok, err := s.FileStore.Get(key)
	s.getNS.Add(int64(time.Since(t)))
	s.gets.Add(1)
	s.bytesOut.Add(int64(len(b)))
	return b, ok, err
}

func (s *timedStore) Put(key string, payload []byte) error {
	t := time.Now()
	err := s.FileStore.Put(key, payload)
	s.putNS.Add(int64(time.Since(t)))
	s.puts.Add(1)
	s.bytesIn.Add(int64(len(payload)))
	return err
}

// serveEnv is one running tensatd: service, store, loopback listener
// and the client that drives it.
type serveEnv struct {
	pop    *population
	reg    *tensat.Registry
	dir    string
	store  *timedStore
	svc    *serve.Service
	srv    *http.Server
	served chan error
	url    string
	client *http.Client
}

// scratchDir is where runs keep temporary files, inside the checkout.
const scratchDir = ".bench_build/tmp"

func setupServe(ctx context.Context, seed int64) (*serveEnv, error) {
	pop, err := newPopulation(seed, streamLen)
	if err != nil {
		return nil, fmt.Errorf("generating population: %w", err)
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchDir, "serve-")
	if err != nil {
		return nil, err
	}
	fs, err := cachestore.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e := &serveEnv{pop: pop, reg: tensat.NewRegistry(), dir: dir, store: &timedStore{FileStore: fs}}
	e.svc = serve.New(serve.Config{
		Workers:   serveWorkers,
		CacheSize: serveLRU,
		Store:     e.store,
		Registry:  e.reg,
		Base:      serveBase,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.store.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	e.url = "http://" + ln.Addr().String()
	e.srv = &http.Server{Handler: serve.NewHandler(e.svc)}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	e.client = newClient()
	body, err := requestBody(warmGraph())
	if err == nil {
		_, err = e.do(ctx, nil, "warm-up", body)
	}
	if err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	return e, nil
}

// newClient is the load's HTTP client: serveClients connections.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveClients,
		MaxIdleConnsPerHost: serveClients,
		DisableCompression:  true,
	}}
}

func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.srv.Shutdown(ctx)
	<-e.served
	e.client.CloseIdleConnections()
	e.store.Close()
	os.RemoveAll(e.dir)
}

// exchange is the three reply bodies of one request.
type exchange struct{ job, events, result []byte }

// do runs one request the way a build pipeline does: POST /v1/jobs,
// GET …/events until the done event, GET …/result.
func (e *serveEnv) do(ctx context.Context, tr *tracer, req string, body []byte) (x exchange, err error) {
	root := tr.begin("serve.request", req, -1)
	defer tr.end(root)
	s := tr.begin("http.submit", req, root)
	x.job, err = e.call(ctx, http.MethodPost, "/v1/jobs", body, http.StatusAccepted)
	tr.end(s)
	if err != nil {
		return x, err
	}
	var job serve.JobReply
	if err := json.Unmarshal(x.job, &job); err != nil || job.ID == "" {
		return x, fmt.Errorf("bad job reply %q", x.job)
	}
	s = tr.begin("http.events", req, root)
	x.events, err = e.call(ctx, http.MethodGet, "/v1/jobs/"+job.ID+"/events", nil, http.StatusOK)
	tr.end(s)
	if err != nil {
		return x, err
	}
	if !bytes.Contains(x.events, []byte("event: done")) {
		return x, errors.New("event stream ended without a done event")
	}
	s = tr.begin("http.result", req, root)
	x.result, err = e.call(ctx, http.MethodGet, "/v1/jobs/"+job.ID+"/result", nil, http.StatusOK)
	tr.end(s)
	return x, err
}

// replayHandler answers every request of an exchange with its recorded
// reply and does no other work.
func replayHandler(x exchange) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		switch {
		case r.Method == http.MethodPost:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			w.Write(x.job)
		case strings.HasSuffix(r.URL.Path, "/events"):
			w.Header().Set("Content-Type", "text/event-stream")
			w.Write(x.events)
		default:
			w.Header().Set("Content-Type", "application/json")
			w.Write(x.result)
		}
	})
}

// replay sends body n times from each of serveClients closed-loop
// clients to a loopback server that answers with x's recorded replies,
// recording spans in tr. What those requests cost is what transport,
// net/http and the benchmark's client cost per request, outside
// tensatd.
func replay(ctx context.Context, tr *tracer, body []byte, x exchange, n int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: replayHandler(x)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	e := &serveEnv{url: "http://" + ln.Addr().String(), client: newClient()}
	errs := make(chan error, serveClients)
	var wg sync.WaitGroup
	for c := range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range n {
				if _, err := e.do(ctx, tr, fmt.Sprintf("c%d-%d", c, i), body); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	srv.Shutdown(ctx)
	<-served
	e.client.CloseIdleConnections()
	close(errs)
	return <-errs
}

func (e *serveEnv) call(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, e.url+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// served is one completed (or failed) request; at is when it ended,
// from the start of its window.
type served struct {
	id  string
	req request
	at  time.Duration
	lat time.Duration
	x   exchange
	err error
}

// window is one closed-loop measurement window.
type window struct {
	records []served
	wall    time.Duration
	alloc   uint64
	before  serve.Stats
	after   serve.Stats
}

// load drives the service with serveClients closed-loop clients for d,
// starting at stream position *next.
func (e *serveEnv) load(ctx context.Context, tr *tracer, d time.Duration, next *atomic.Int64) window {
	w := window{before: e.svc.Stats()}
	var mu sync.Mutex
	var wg sync.WaitGroup
	a0, t0 := heapAllocs(), time.Now()
	deadline := t0.Add(d)
	for range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []served
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				r := e.pop.stream[i%int64(len(e.pop.stream))]
				id := fmt.Sprintf("r%d", i)
				start := time.Now()
				x, err := e.do(ctx, tr, id, e.pop.bodies[r.graph][r.spelling])
				mine = append(mine, served{id: id, req: r, at: time.Since(t0), lat: time.Since(start), x: x, err: err})
			}
			mu.Lock()
			w.records = append(w.records, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	w.wall, w.alloc = time.Since(t0), heapAllocs()-a0
	w.after = e.svc.Stats()
	return w
}

// tailSlice is the length of the slices a window's p99 is taken over.
// A stall on the shared host then moves the tail of one slice, not the
// run's figure, which is the median of the slices' p99s.
const tailSlice = 5 * time.Second

// e2e computes the end-to-end figures of a window. A failed request
// counts as missing any latency limit: it enters the percentiles at
// the window's full length.
func (w window) e2e(out *outcome) map[string]float64 {
	var lats []float64
	slices := make([][]float64, int(w.wall/tailSlice)+1)
	done := 0
	for _, r := range w.records {
		lat := w.wall.Seconds() * 1e3
		if r.err == nil {
			done++
			lat = r.lat.Seconds() * 1e3
		}
		lats = append(lats, lat)
		k := min(int(r.at/tailSlice), len(slices)-1)
		slices[k] = append(slices[k], lat)
	}
	// A short last slice joins the one before it.
	if n := len(slices); n > 1 && len(slices[n-1]) < len(slices[n-2])/2 {
		slices[n-2] = append(slices[n-2], slices[n-1]...)
		slices = slices[:n-1]
	}
	var p99s []float64
	kind := ""
	for _, s := range slices {
		v, k := tail(s)
		p99s, kind = append(p99s, v), k
	}
	passes := float64(max(done, 1)) / servePass
	p99 := median(p99s)
	if out != nil {
		out.notes["latency_p99_ms"] = fmt.Sprintf("median over %d slices of %v: %s", len(slices), tailSlice, kind)
	}
	return map[string]float64{
		"optimize_s":     w.wall.Seconds() / passes,
		"alloc_mb":       float64(w.alloc) / 1e6 / passes,
		"latency_p50_ms": median(lats),
		"latency_p99_ms": p99,
		"ops_per_s":      float64(done) / w.wall.Seconds(),
	}
}

func runServe(ctx context.Context, seed int64, seconds int, traced bool) (*outcome, error) {
	out := newOutcome()
	out.config = map[string]any{
		"workers": serveWorkers, "clients": serveClients, "connections": serveClients,
		"loop": "closed", "lru_entries": serveLRU, "population": populationSize,
		"renamed_copies": renamedCopies, "graph_nodes": []int{minGraphNodes, maxGraphNodes},
		"zipf_s": zipfS, "k_multi": 1, "extractor": "greedy", "node_limit": serveBase.NodeLimit,
		"iter_limit": serveBase.IterLimit, "store": "cachestore.FileStore", "requests_per_pass": servePass,
		"route": "POST /v1/jobs, GET /v1/jobs/{id}/events, GET /v1/jobs/{id}/result",
	}
	var env *serveEnv
	var setups []float64
	for k := range setupRepeats {
		t := time.Now()
		e, err := setupServe(ctx, seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		if k < setupRepeats-1 {
			e.close()
		} else {
			env = e
		}
	}
	defer env.close()

	var next atomic.Int64
	d := time.Duration(seconds) * time.Second
	var tr *tracer
	var plain, w window
	if traced {
		// Most first sightings land in a warm-in third, which is not
		// reported; an untraced third is the reference for the tracing
		// overhead, and per-layer figures come from the traced third.
		env.load(ctx, nil, d/3, &next)
		plain = env.load(ctx, nil, d/3, &next)
		tr = newTracer()
		w = env.load(ctx, tr, d-2*(d/3), &next)
	} else {
		w = env.load(ctx, nil, d, &next)
	}

	checkStart := time.Now()
	layers, speedup, err := checkServe(ctx, out, env, append(plain.records, w.records...), tr)
	if err != nil {
		return nil, err
	}
	out.checkTime = time.Since(checkStart)

	if !traced {
		out.metrics = w.e2e(out)
		out.metrics["setup_s"] = median(setups)
		out.metrics["speedup_pct"] = speedup
		return out, nil
	}
	base, tw := plain.e2e(nil), w.e2e(nil)
	for _, k := range []string{"optimize_s", "alloc_mb", "latency_p50_ms"} {
		layers["overhead."+k] = tw[k] - base[k]
	}
	n := float64(len(w.records))
	layers["serve.mem_hit_ratio"] = float64(w.after.Hits-w.before.Hits) / n
	layers["serve.disk_hit_ratio"] = float64(w.after.Store.Hits-w.before.Store.Hits) / n
	layers["serve.miss_ratio"] = float64(w.after.Completed-w.before.Completed) / n
	layers["serve.deduped"] = float64(w.after.Deduped - w.before.Deduped)
	gets, puts := env.store.gets.Load(), env.store.puts.Load()
	layers["cachestore.gets"] = float64(gets)
	layers["cachestore.puts"] = float64(puts)
	layers["cachestore.get_us"] = micros(time.Duration(env.store.getNS.Load()), int(gets))
	layers["cachestore.put_us"] = micros(time.Duration(env.store.putNS.Load()), int(puts))
	layers["cachestore.bytes"] = float64(env.store.Bytes())

	// A memory hit, split by its spans: what remains after the same
	// exchange replayed against a server that does no work, and after
	// the wire format and fingerprint costs, is tensatd's serve layer.
	hitIDs := make(map[string]bool)
	var hits []served
	for _, r := range w.records {
		var rep serve.OptimizeReply
		if r.err == nil && json.Unmarshal(r.x.result, &rep) == nil && rep.CacheTier == serve.TierMemory {
			hitIDs[r.id] = true
			hits = append(hits, r)
		}
	}
	if len(hits) > 0 {
		st := tr.selfTimes(func(req string) bool { return hitIDs[req] })
		mean := func(st map[string]layerTime, name string) float64 { return micros(st[name].total, st[name].calls) }
		layers["serve.hit_us"] = mean(st, "serve.request")
		layers["serve.hit_submit_us"] = mean(st, "http.submit")
		layers["serve.hit_events_us"] = mean(st, "http.events")
		layers["serve.hit_result_us"] = mean(st, "http.result")
		layers["bench.client_us"] = micros(st["serve.request"].own, st["serve.request"].calls)

		// The replayed exchange is the hit with the median result size.
		sort.Slice(hits, func(i, j int) bool { return len(hits[i].x.result) < len(hits[j].x.result) })
		h := hits[len(hits)/2]
		rt := newTracer()
		if err := replay(ctx, rt, env.pop.bodies[h.req.graph][h.req.spelling], h.x, replayRequests); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		layers["serve.replay_us"] = mean(rt.selfTimes(func(string) bool { return true }), "serve.request")
		hit := layers["serve.hit_us"]
		layers["split.serve_self_share_of_hit"] = (hit - layers["serve.replay_us"] - layers["tensor.decode_us"] -
			layers["fingerprint.graph_us"] - layers["tensor.encode_us"]) / hit
	}
	out.metrics = layers
	out.tracer = tr
	return out, nil
}

// checkServe checks every reply outside the timed windows: the graph
// parses and validates, uses the requester's tensor names, and has the
// fingerprint of that input's own optimized result. The references are
// computed in-process (as the pipeline's public pieces when traced, so
// the pipeline layers get figures on this workload too). It returns
// the per-layer figures the check measures, and speedup_pct over the
// distinct graphs served, each counted once, so that a few popular
// graphs do not make it a figure of the seed.
func checkServe(ctx context.Context, out *outcome, env *serveEnv, records []served, tr *tracer) (map[string]float64, float64, error) {
	ids := make(map[int]bool)
	for _, r := range records {
		ids[r.req.graph] = true
	}
	order := make([]int, 0, len(ids))
	for id := range ids {
		order = append(order, id)
	}
	sort.Ints(order)

	layers := make(map[string]float64)
	refs := make(map[int]fingerprint.Fingerprint)
	var traceRunner *tracedRunner
	opt := tensat.NewOptimizer(tensat.WithRegistry(env.reg))
	if tr != nil {
		var err error
		if traceRunner, err = newTracedRunner(env.reg); err != nil {
			return nil, 0, err
		}
	}
	var pass []tracedJob
	var ct codecTimes
	for _, id := range order {
		g := env.pop.graphs[id]
		var res *tensat.Result
		if traceRunner != nil {
			tj := traceRunner.run(ctx, tr, fmt.Sprintf("ref%d", id), g, serveBase)
			if tj.err != nil {
				return nil, 0, fmt.Errorf("reference for graph %d: %w", id, tj.err)
			}
			pass = append(pass, tj)
			res = &tensat.Result{Graph: tj.graph, OrigCost: tensat.GraphCost(traceRunner.model, g), OptCost: tj.cost}
		} else {
			job, err := opt.Submit(ctx, g, serveBase)
			if err == nil {
				res, err = job.Result()
			}
			if err != nil {
				return nil, 0, fmt.Errorf("reference for graph %d: %w", id, err)
			}
		}
		fp, err := fingerprint.Graph(res.Graph)
		if err != nil {
			return nil, 0, err
		}
		refs[id] = fp
		names, err := fingerprint.Tensors(res.Graph)
		if err != nil {
			return nil, 0, err
		}
		t := time.Now()
		payload, err := cachestore.Encode(res, names, cachestore.KeyParts{Fingerprint: fp.String()})
		ct.storeEncode += time.Since(t)
		if err != nil {
			return nil, 0, err
		}
		t = time.Now()
		_, _, _, err = cachestore.Decode(payload)
		ct.storeDecode += time.Since(t)
		if err != nil {
			return nil, 0, err
		}
		ct.n++
	}
	if traceRunner != nil {
		layers = pipelineLayers(pipelineSpec{}, nil, [][]tracedJob{pass}, codecTimes{})
	}
	layers["cachestore.encode_us"] = micros(ct.storeEncode, ct.n)
	layers["cachestore.decode_us"] = micros(ct.storeDecode, ct.n)

	// Per request spelling: the name set, and the decode and fingerprint
	// cost of its body graph.
	type spellKey struct{ graph, spelling int }
	vocab := make(map[spellKey]map[string]bool)
	var decode, fprint time.Duration
	for _, r := range records {
		k := spellKey{r.req.graph, r.req.spelling}
		if vocab[k] != nil {
			continue
		}
		text, err := env.pop.spells[k.graph][k.spelling].MarshalText()
		if err != nil {
			return nil, 0, err
		}
		t := time.Now()
		g, err := tensor.UnmarshalGraph(text)
		decode += time.Since(t)
		if err != nil {
			return nil, 0, err
		}
		t = time.Now()
		if _, err := fingerprint.Graph(g); err != nil {
			return nil, 0, err
		}
		fprint += time.Since(t)
		names, err := fingerprint.Tensors(g)
		if err != nil {
			return nil, 0, err
		}
		vocab[k] = make(map[string]bool)
		for _, n := range names {
			vocab[k][n] = true
		}
	}
	layers["tensor.decode_us"] = micros(decode, len(vocab))
	layers["fingerprint.graph_us"] = micros(fprint, len(vocab))

	// Replies repeat byte for byte in their graph, so each distinct
	// (spelling, graph) pair is checked once.
	verdict := make(map[string]error)
	var encode time.Duration
	encodes := 0
	graphRatio, graphFailed := make(map[int]float64), make(map[int]bool)
	for _, r := range records {
		op := out.attempt()
		if r.err != nil {
			out.fail(op, r.err.Error())
			graphFailed[r.req.graph] = true
			continue
		}
		var rep serve.OptimizeReply
		if err := json.Unmarshal(r.x.result, &rep); err != nil {
			out.markWrong(op, fmt.Sprintf("reply does not parse: %v", err))
			graphFailed[r.req.graph] = true
			continue
		}
		k := spellKey{r.req.graph, r.req.spelling}
		key := fmt.Sprintf("%d/%d/%s", k.graph, k.spelling, rep.Graph)
		err, seen := verdict[key]
		if !seen {
			var g *tensor.Graph
			if g, err = tensor.UnmarshalGraph([]byte(rep.Graph)); err == nil {
				err = checkReply(g, vocab[k], refs[k.graph])
				t := time.Now()
				if _, merr := g.MarshalText(); merr != nil && err == nil {
					err = merr
				}
				encode += time.Since(t)
				encodes++
			}
			verdict[key] = err
		}
		if err != nil {
			out.markWrong(op, fmt.Sprintf("graph %d spelling %d: %v", k.graph, k.spelling, err))
			graphFailed[k.graph] = true
			continue
		}
		graphRatio[k.graph] = rep.OrigCost / rep.OptCost
	}
	layers["tensor.encode_us"] = micros(encode, encodes)
	var ratios []float64
	failed := 0
	for _, id := range order {
		if graphFailed[id] {
			failed++
		} else {
			ratios = append(ratios, graphRatio[id])
		}
	}
	return layers, speedupPct(ratios, failed), nil
}

func checkReply(g *tensor.Graph, vocab map[string]bool, want fingerprint.Fingerprint) error {
	if err := g.Validate(); err != nil {
		return fmt.Errorf("reply graph fails Validate: %w", err)
	}
	names, err := fingerprint.Tensors(g)
	if err != nil {
		return err
	}
	for _, n := range names {
		if !vocab[n] {
			return fmt.Errorf("reply names tensor %q, which the request does not", n)
		}
	}
	fp, err := fingerprint.Graph(g)
	if err != nil {
		return err
	}
	if fp != want {
		return fmt.Errorf("reply fingerprint %s, the input's optimized result has %s", fp, want)
	}
	return nil
}
