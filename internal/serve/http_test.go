package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"tensat"
	"tensat/internal/tensor"
)

// figure2Wire is the figure-2 graph in the wire format, with names and
// let-binding structure deliberately different from what MarshalText
// would emit — the service must key on structure, not spelling.
const figure2Wire = `
(let shared (input "activations@64 256"))
(output (matmul 0 shared (weight "wa@256 256")))
(output (matmul 0 shared (weight "wb@256 256")))
`

func newTestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 2, Base: fastOptions()})
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(ts.Close)
	return s, ts
}

// postOptimize submits a job over /v1/jobs and waits for it: a refused
// submission comes back as is, otherwise the job's result answer.
func postOptimize(t *testing.T, url string, req OptimizeRequest) (int, OptimizeReply, string) {
	t.Helper()
	status, job, raw := postJob(t, url, req)
	if status != http.StatusAccepted {
		return status, OptimizeReply{}, raw
	}
	readSSE(t, url, job.ID)
	resp, err := http.Get(url + "/v1/jobs/" + job.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var reply OptimizeReply
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &reply); err != nil {
			t.Fatalf("bad reply %q: %v", buf.String(), err)
		}
	}
	return resp.StatusCode, reply, buf.String()
}

// TestHTTPOptimizeEndToEnd drives the full daemon surface: a cold
// optimize, then an identical request (spelled differently) that must
// be a cache hit, then /v1/stats reflecting both.
func TestHTTPOptimizeEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)

	status, cold, raw := postOptimize(t, ts.URL, OptimizeRequest{Graph: figure2Wire})
	if status != http.StatusOK {
		t.Fatalf("cold status %d: %s", status, raw)
	}
	if cold.Cached {
		t.Fatal("cold request reported cached")
	}
	if cold.OptCost >= cold.OrigCost {
		t.Fatalf("no improvement: %v -> %v", cold.OrigCost, cold.OptCost)
	}
	if len(cold.Fingerprint) != 64 {
		t.Fatalf("bad fingerprint %q", cold.Fingerprint)
	}
	// The reply graph must round-trip through the wire format.
	if _, err := tensor.UnmarshalGraph([]byte(cold.Graph)); err != nil {
		t.Fatalf("reply graph does not parse: %v\n%s", err, cold.Graph)
	}

	// Same structure, different names and spelling: cache hit.
	warmWire := `(output (matmul 0 (input "x@64 256") (weight "w1@256 256")))` + "\n" +
		`(output (matmul 0 (input "x@64 256") (weight "w2@256 256")))`
	status, warm, raw := postOptimize(t, ts.URL, OptimizeRequest{Graph: warmWire})
	if status != http.StatusOK {
		t.Fatalf("warm status %d: %s", status, raw)
	}
	if !warm.Cached {
		t.Fatal("second identical request was not a cache hit")
	}
	if warm.Fingerprint != cold.Fingerprint {
		t.Fatalf("fingerprints differ: %s vs %s", cold.Fingerprint, warm.Fingerprint)
	}
	if warm.OptCost != cold.OptCost {
		t.Fatalf("cached cost drifted: %v vs %v", cold.OptCost, warm.OptCost)
	}
	// The cached answer must be spelled in THIS requester's tensor
	// names, not the original submitter's.
	for _, want := range []string{`"x@64 256"`, `"w1@256 256"`, `"w2@256 256"`} {
		if !strings.Contains(warm.Graph, want) {
			t.Fatalf("cached reply not in requester vocabulary (missing %s):\n%s", want, warm.Graph)
		}
	}
	if strings.Contains(warm.Graph, "activations") || strings.Contains(warm.Graph, `"wa@`) {
		t.Fatalf("cached reply leaks the original submitter's names:\n%s", warm.Graph)
	}
	// And the cold reply keeps the first submitter's names.
	if !strings.Contains(cold.Graph, "activations@64 256") {
		t.Fatalf("cold reply lost its own names:\n%s", cold.Graph)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Hits != 1 || st.Misses != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 completed", st)
	}
	if st.CacheEntries != 1 || st.P50MS <= 0 {
		t.Fatalf("stats = %+v, want 1 cache entry and positive p50", st)
	}
}

// TestHTTPConcurrentDistinctRequests exercises the pool through the
// HTTP layer: distinct graphs in flight at once, all 200.
func TestHTTPConcurrentDistinctRequests(t *testing.T) {
	_, ts := newTestServer(t)
	graphs := []string{
		`(output (relu (input "x@8 8")))`,
		`(output (tanh (input "x@8 8")))`,
		`(output (sigmoid (input "x@8 8")))`,
		`(output (relu (input "x@8 16")))`,
	}
	var wg sync.WaitGroup
	codes := make([]int, len(graphs))
	for i, g := range graphs {
		wg.Add(1)
		go func(i int, g string) {
			defer wg.Done()
			codes[i], _, _ = postOptimize(t, ts.URL, OptimizeRequest{
				Graph:   g,
				Options: RequestOptions{Extractor: "greedy"},
			})
		}(i, g)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	if st := s0(t, ts); st.Completed != uint64(len(graphs)) {
		t.Fatalf("completed = %d, want %d", st.Completed, len(graphs))
	}
}

func s0(t *testing.T, ts *httptest.Server) StatsReply {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	for name, req := range map[string]OptimizeRequest{
		"empty graph":   {},
		"syntax error":  {Graph: "(output (relu"},
		"unknown op":    {Graph: `(output (frobnicate (input "x@8 8")))`},
		"bad extractor": {Graph: `(output (relu (input "x@8 8")))`, Options: RequestOptions{Extractor: "magic"}},
	} {
		status, _, raw := postOptimize(t, ts.URL, req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, status, raw)
		}
	}
	// Shape-inconsistent graphs are rejected at parse time (the wire
	// decoder shape-checks), also 400.
	status, _, raw := postOptimize(t, ts.URL, OptimizeRequest{
		Graph: `(output (matmul 0 (input "x@64 256") (weight "w@128 128")))`,
	})
	if status != http.StatusBadRequest {
		t.Errorf("shape mismatch: status %d, want 400 (%s)", status, raw)
	}
	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}
}

func TestHTTPHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// TestHTTPRequestTimeout verifies that a job whose timeout_ms runs out
// before the optimization finishes ends canceled, and that its result
// endpoint answers 409.
func TestHTTPRequestTimeout(t *testing.T) {
	s := New(Config{Workers: 1})
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	status, job, raw := postJob(t, ts.URL, OptimizeRequest{
		Graph:     `(output (relu (input "x@8 8")))`,
		TimeoutMS: 50,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d (%s), want 202", status, raw)
	}
	readSSE(t, ts.URL, job.ID)
	if _, reply := getJob(t, ts.URL, job.ID); reply.Status != string(JobCanceled) {
		t.Fatalf("job status = %q, want canceled", reply.Status)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result status = %d, want 409", resp.StatusCode)
	}
}
