// Command perfbench is the repository's benchmark: two workloads, one on
// the realtime TCP serving path and one on the fleet simulator, each
// reporting the same end-to-end metrics, plus per-layer numbers from a
// separate traced run. It measures every layer from outside, through the
// packages' public functions; see README.md for the metric definitions
// and which layer metric should move which end-to-end metric.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload rt-warm --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A run whose correctness checks
// fail prints correct=false with no metrics and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is what one workload pass gets: the workload seed, how long
// its timed phases may run, and the tracer (nil on an untraced pass).
type runConfig struct {
	seed     int64
	duration time.Duration
	tr       *tracer
}

// outcome is one workload pass's result. problems lists failed
// correctness checks; any entry turns the run into a failure.
type outcome struct {
	attempted int64
	failed    int64
	problems  []string
	e2e       map[string]float64
	layer     map[string]float64
	// notes are human-readable lines printed before the result line and
	// kept in the result file (report digests, per-repeat figures).
	notes []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloadFn runs one pass of a workload.
type workloadFn func(cfg runConfig) *outcome

// workloads maps each name in BENCHMARK.json to its implementation.
var workloads = map[string]workloadFn{
	"rt-warm":  runRealtime,
	"sim-soak": runSim,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: rt-warm or sim-soak")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "how long the timed phases of one run last")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	root := fs.String("root", ".", "repository root (provenance and the .bench_build output directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	prov := collectProvenance(*root, *name, *seed, *seconds, *trace)
	provJSON, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "provenance %s\n", provJSON)

	dur := time.Duration(*seconds) * time.Second
	var out *outcome
	var tr *tracer
	if *trace == 0 {
		out = wl(runConfig{seed: *seed, duration: dur})
	} else {
		// Half the time untraced, half traced: the per-layer numbers come
		// from the traced pass, and the gap between the two passes'
		// throughput is the tracing overhead.
		base := wl(runConfig{seed: *seed, duration: dur / 2})
		tr = newTracer()
		out = wl(runConfig{seed: *seed, duration: dur / 2, tr: tr})
		out.problems = append(base.problems, out.problems...)
		out.attempted += base.attempted
		out.failed += base.failed
		out.layer["trace.overhead_pct"] = 100 * (ratio(base.e2e["peak_rps"], out.e2e["peak_rps"]) - 1)
		out.note("untraced pass peak_rps %.1f, traced pass %.1f", base.e2e["peak_rps"], out.e2e["peak_rps"])
		out.layer["error_ratio"] = ratio(float64(out.failed), float64(out.attempted))
	}

	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	if res.Attempted < 1 {
		out.problems = append(out.problems, "no request was attempted")
		res.Correct = false
	}
	if res.Correct {
		src, defs := out.e2e, e2eMetrics
		if *trace == 1 {
			src, defs = out.layer, layerMetrics
		}
		for _, d := range defs {
			v, ok := src[d.name]
			if !ok || v != v { // missing or NaN: a bug in the workload code
				out.problems = append(out.problems, fmt.Sprintf("metric %s was not measured", d.name))
				continue
			}
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
		res.Correct = len(out.problems) == 0
	}
	if !res.Correct {
		res.Metrics = map[string]metricValue{}
	}

	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	printMetrics(stdout, res.Metrics)
	writeResultFile(stderr, *root, prov, res, out, tr)

	line, _ := json.Marshal(res)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: correctness checks failed\n", *name, *seed)
		fmt.Fprintln(stdout, string(line))
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printMetrics prints one "name value unit" line per metric, sorted.
func printMetrics(w io.Writer, ms map[string]metricValue) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// writeResultFile keeps the full record of the run — provenance, metrics,
// notes, failed checks and, for a traced run, the spans — under
// .bench_build/perfbench/results. A failure to write it is reported but
// does not change the run's verdict.
func writeResultFile(stderr io.Writer, root string, prov provenance, res result, out *outcome, tr *tracer) {
	dir := filepath.Join(root, ".bench_build", "perfbench", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: result file: %v\n", err)
		return
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", prov.Workload, prov.Seed, prov.Trace))
	rec := struct {
		Provenance provenance             `json:"provenance"`
		Result     result                 `json:"result"`
		Notes      []string               `json:"notes"`
		Problems   []string               `json:"problems,omitempty"`
		Layer      map[string]float64     `json:"layer,omitempty"`
		E2E        map[string]float64     `json:"end_to_end,omitempty"`
		Spans      map[string]spanSummary `json:"spans,omitempty"`
	}{prov, res, out.notes, out.problems, out.layer, out.e2e, tr.summary()}
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err == nil {
		err = os.WriteFile(base+".json", append(buf, '\n'), 0o644)
	}
	if err == nil && tr != nil {
		err = tr.writeSpans(base + ".spans.jsonl")
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: result file: %v\n", err)
	}
}

// provenance records where and how a run was made.
type provenance struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        int    `json:"trace"`
	Command      string `json:"command"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Platform     string `json:"platform"`
	Commit       string `json:"git_commit"`
	SourceDigest string `json:"source_sha256"`
	Connections  int    `json:"connections"`
	Note         string `json:"note"`
}

func collectProvenance(root, name string, seed int64, seconds, trace int) provenance {
	return provenance{
		Workload:     name,
		Seed:         seed,
		Seconds:      seconds,
		Trace:        trace,
		Command:      fmt.Sprintf("bash perfbench/run.sh --workload %s --seed %d --seconds %d --trace %d", name, seed, seconds, trace),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Platform:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:       gitCommit(root),
		SourceDigest: sourceDigest(root),
		Connections:  rtConns,
		Note:         "load generator and server share one process: cpu_us_per_req counts both sides",
	}
}
