// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed for a fixed time, checks every output, and
// prints one JSON line of metrics: the end-to-end metrics, or with
// --trace 1 the per-layer metrics of a traced run. Run it from the
// repository root through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload zoo-ilp --seed 1 --seconds 25 --trace 0
//
// It reports the metrics BENCHMARK.json lists. What each one means,
// and which end-to-end metric each layer should move on which
// workload, is in perfbench/layers.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
// A pipeline set-up takes a few milliseconds, and the median of 9 still
// moved a fifth between runs of one seed.
const setupRepeats = 31

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// metricDefs reads the metrics a run reports from BENCHMARK.json in
// the working directory, the one place they are defined: the
// end-to-end metrics, or the per-layer ones for a traced run. Every
// workload reports every listed metric; one it does not exercise reads
// 0.
func metricDefs(traced bool) ([]metricDef, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if traced {
		return b.PerLayer, nil
	}
	return b.EndToEnd, nil
}

// outcome is what a workload run hands back: its metrics, the
// operation tally, and every check finding.
type outcome struct {
	tally
	opOK       map[int]bool
	opRatio    map[int]float64
	failures   []string // operations that errored
	wrong      []string // outputs that failed their check
	mismatches []string // traced composition differing from the untraced run
	countDrift []string // counts differing between passes (flagged only)
	notes      map[string]string
	config     map[string]any
	metrics    map[string]float64
	checkTime  time.Duration
	tracer     *tracer
}

func newOutcome() *outcome {
	return &outcome{opOK: make(map[int]bool), opRatio: make(map[int]float64), notes: make(map[string]string)}
}

func (o *outcome) attempt() int { op := o.tally.attempt(); o.opOK[op] = false; return op }

func (o *outcome) ok(op int, ratio float64) { o.opOK[op], o.opRatio[op] = true, ratio }

func (o *outcome) fail(op int, msg string) {
	o.tally.fail(op)
	o.failures = append(o.failures, msg)
}

func (o *outcome) markWrong(op int, msg string) {
	o.tally.fail(op)
	o.wrong = append(o.wrong, msg)
}

func (o *outcome) mismatch(msg string) { o.mismatches = append(o.mismatches, msg) }

// correct is false when any produced output failed its check or the
// traced run described different work than the untraced one.
func (o *outcome) correct() bool { return len(o.wrong) == 0 && len(o.mismatches) == 0 }

func environment(seed int64) map[string]any {
	rev, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				rev = kv.Value
			case "vcs.modified":
				modified = kv.Value
			}
		}
	}
	return map[string]any{
		"git_revision": rev, "git_modified": modified, "go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "seed": seed,
	}
}

func head(xs []string, n int) []string {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}

func main() {
	workload := flag.String("workload", "", "workload name: zoo-ilp, k2-greedy or serve-mix")
	seed := flag.Int64("seed", 1, "input seed")
	secs := flag.Int("seconds", 25, "how long to measure")
	trace := flag.Int("trace", 0, "1 for the traced run, which reports per-layer metrics")
	flag.Parse()
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	traced := *trace == 1
	defs, err := metricDefs(traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	ctx := context.Background()
	var out *outcome
	switch *workload {
	case "zoo-ilp", "k2-greedy":
		out, err = runPipeline(ctx, *workload, *seed, *secs, traced)
	case "serve-mix":
		out, err = runServe(ctx, *seed, *secs, traced)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	if traced {
		out.metrics["bench.fail_ratio"] = out.ratio()
		out.metrics["bench.count_drift"] = float64(len(out.countDrift))
		out.metrics["bench.check_s"] = out.checkTime.Seconds()
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := out.tracer.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		out.notes["spans"] = path
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		metrics[d.Name] = map[string]any{"value": out.metrics[d.Name], "unit": d.Unit}
	}
	var unknown []string
	for name := range out.metrics {
		if _, ok := metrics[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	sort.Strings(unknown)

	record := map[string]any{
		"workload":    *workload,
		"seconds":     *secs,
		"trace":       *trace,
		"environment": environment(*seed),
		"config":      out.config,
		"checks": map[string]any{
			"check_s":     out.checkTime.Seconds(),
			"failures":    head(out.failures, 10),
			"wrong":       head(out.wrong, 10),
			"composition": head(out.mismatches, 10),
			"count_drift": out.countDrift,
			"notes":       out.notes,
			"unlisted":    unknown,
		},
	}
	enc := json.NewEncoder(os.Stdout)
	enc.Encode(record)
	enc.Encode(map[string]any{
		"correct":   out.correct(),
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
}
