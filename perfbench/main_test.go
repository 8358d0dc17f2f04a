package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"rattrap/internal/offload"
	"rattrap/internal/scenario"
)

func TestArrivalScheduleDeterministic(t *testing.T) {
	a := arrivalSchedule(7, 0, 5000, 2*time.Second)
	b := arrivalSchedule(7, 0, 5000, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two different arrival schedules")
	}
	if reflect.DeepEqual(a, arrivalSchedule(8, 0, 5000, 2*time.Second)) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	if reflect.DeepEqual(a, arrivalSchedule(7, 1, 5000, 2*time.Second)) {
		t.Fatal("connections 0 and 1 share a schedule")
	}
	if n := len(a); n < 9000 || n > 11000 {
		t.Fatalf("%d arrivals in 2s at 5000 req/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 2*time.Second {
			t.Fatalf("arrival %d at %v after %v", i, a[i], a[i-1])
		}
	}
}

func drawParams(seed int64, conn, n int) []int {
	r := paramStream(seed, conn)
	out := make([]int, n)
	for i := range out {
		out[i] = r.Intn(rtParamPool)
	}
	return out
}

func TestParamStreamDeterministic(t *testing.T) {
	a := drawParams(7, 1, 5000)
	if !reflect.DeepEqual(a, drawParams(7, 1, 5000)) {
		t.Fatal("one seed gave two different parameter streams")
	}
	if reflect.DeepEqual(a, drawParams(9, 1, 5000)) || reflect.DeepEqual(a, drawParams(7, 0, 5000)) {
		t.Fatal("different seeds or connections gave the same stream")
	}
	p1, err := buildParamPool(7)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := buildParamPool(7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("one seed gave two different parameter pools")
	}
}

func TestCheckResultRejects(t *testing.T) {
	pool, err := buildParamPool(5)
	if err != nil {
		t.Fatal(err)
	}
	good := offload.Result{Output: pool[3].output, Seq: 1}
	if err := checkResult(&good, pool[3].output); err != nil {
		t.Fatalf("correct result rejected: %v", err)
	}
	wrong := offload.Result{Output: pool[4].output, Seq: 2}
	if pool[3].output == pool[4].output {
		t.Fatal("two pool entries share an output; the check could not tell them apart")
	}
	if checkResult(&wrong, pool[3].output) == nil {
		t.Fatal("a wrong output passed the check")
	}
	failed := offload.Result{Err: "platform overloaded", Code: offload.CodeOverloaded, Seq: 3}
	if checkResult(&failed, pool[3].output) == nil {
		t.Fatal("an error result passed the check")
	}
}

func TestCheckReportRejects(t *testing.T) {
	rep, _, err := simRun(11, 0.02, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := checkReport(rep); len(p) != 0 {
		t.Fatalf("a passing run failed the check: %v", p)
	}
	bad := *rep
	bad.Assertions = append([]scenario.AssertionReport(nil), rep.Assertions...)
	bad.Assertions[0].Pass = false
	if len(checkReport(&bad)) == 0 {
		t.Fatal("a failed assertion passed the check")
	}
	bad = *rep
	bad.Pool.Shards = append([]scenario.ShardPool(nil), rep.Pool.Shards...)
	bad.Pool.Shards[1].CensusOK = false
	if len(checkReport(&bad)) == 0 {
		t.Fatal("a broken census passed the check")
	}
	bad = *rep
	bad.Totals.Failed, bad.Totals.Succeeded = 1, rep.Totals.Succeeded-1
	if len(checkReport(&bad)) == 0 {
		t.Fatal("a failed arrival passed the check")
	}
}

func TestScenarioSeedDeterministicReport(t *testing.T) {
	a, _, err := simRun(scenarioSeed(2, simRepeatStream), 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := simRun(scenarioSeed(2, simRepeatStream), 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	da, _ := reportDigest(a)
	db, _ := reportDigest(b)
	if da != db {
		t.Fatal("one scenario seed gave two different reports")
	}
}

// benchmarkFile mirrors the parts of BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), e2eMetrics...), layerMetrics...) {
		if !nameRe.MatchString(d.name) || !unitRe.MatchString(d.unit) {
			t.Errorf("metric %q unit %q breaks the naming rules", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	same := func(what string, file []struct{ Name, Unit string }, prog []metricDef) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", what, len(file), len(prog))
			return
		}
		for i := range file {
			if file[i].Name != prog[i].name || file[i].Unit != prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", what, i,
					file[i].Name, file[i].Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, e2eMetrics)
	same("per_layer", bf.PerLayer, layerMetrics)
}

func TestClassifyStack(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.RawSyscall6", "syscall.write"}, "syscall"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable"}, "runtime_sched"},
		{[]string{"runtime.mapiternext", "rattrap/internal/core.(*Warehouse).StoredBytes"}, "core"},
		{[]string{"encoding/binary.ReadUvarint", "rattrap/internal/offload.(*Conn).Recv"}, "offload"},
		{[]string{"rattrap/internal/unionfs.(*Mount).Lookup"}, "substrate"},
		{[]string{"rattrap/internal/obs.(*Registry).Counter"}, "other"},
		{[]string{"main.(*rtDevice).send", "main.runRealtime"}, "bench"},
		{[]string{"runtime.memmove"}, "runtime_other"},
	}
	for _, c := range cases {
		if got := classifyStack(c.frames); got != c.want {
			t.Errorf("classifyStack(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

var sink float64

func TestParseProfileSeesThisPackage(t *testing.T) {
	p, err := startCPUProfile()
	if err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	acc := 0.0 // a local, so the race detector does not instrument the loop
	for time.Now().Before(deadline) {
		for i := 0; i < 1e5; i++ {
			acc += float64(i) * 1.0001
		}
	}
	sink = acc
	shares, samples, err := p.stopShares()
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("no cpu samples taken")
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %v", sum)
	}
	if shares["bench"] < 0.5 {
		t.Fatalf("a busy loop in package main got only %.2f of the samples (%v)", shares["bench"], shares)
	}
}

func TestRealtimeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a server over loopback for about a second")
	}
	o := runRealtime(runConfig{seed: 4, duration: time.Second, tr: newTracer()})
	if len(o.problems) != 0 {
		t.Fatalf("checks failed: %v", o.problems)
	}
	if o.attempted == 0 || o.failed != 0 {
		t.Fatalf("attempted %d, failed %d", o.attempted, o.failed)
	}
	for _, d := range e2eMetrics {
		if _, ok := o.e2e[d.name]; !ok {
			t.Errorf("end-to-end metric %s missing", d.name)
		}
	}
	for _, d := range layerMetrics {
		if _, ok := o.layer[d.name]; !ok && d.name != "trace.overhead_pct" && d.name != "error_ratio" {
			t.Errorf("per-layer metric %s missing", d.name)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 {
		t.Fatal("unknown workload accepted")
	}
	if !strings.Contains(errOut.String(), "rt-warm") {
		t.Fatalf("usage does not list the workloads: %s", errOut.String())
	}
}
