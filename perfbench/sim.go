package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"rattrap/internal/scenario"
	"rattrap/internal/workload"
)

// The simulator workload, sim-soak: a scenario generated from the
// workload seed and run with scenario.Run in virtual time, repeated with
// derived seeds for the run's duration.
const (
	simSetups     = 5   // set-ups per run; setup_s is their median
	simWarmScale  = 0.1 // warm-up scenario size relative to a timed repeat
	simMinRepeats = 3
	simOrder      = 24 // pinned Linpack order

	// Scenario seeds of the timed repeats and of the set-up runs are
	// drawn from these streams of the workload seed.
	simRepeatStream = 4000
	simSetupStream  = 5000
)

// soakYAML renders scenarios/million-soak.yaml cut to 30k arrivals (108
// virtual seconds at the same ~278 req/s): 4 shards, 8 runtimes each, LAN
// WiFi, Linpack pinned at order 24, 256 AID variants, Poisson arrivals.
// scale < 1 shrinks the fleet and its duration (the set-up warm-up run).
func soakYAML(seed int64, scale float64) string {
	devices := int(30000 * scale)
	return fmt.Sprintf(`name: sim-soak
description: million-soak shape, shortened
seed: %d
shards: 4
platform:
  kind: rattrap
  max_runtimes: 8
client:
  max_attempts: 4
fleet:
  - cohort: fleet
    devices: %d
    requests_per_device: 1
    network: lan-wifi
    apps: [Linpack]
    linpack_order: %d
    variants: 256
    arrival: poisson
    duration: %dms
assertions:
  - type: success-rate
    min: 1.0
  - type: min-requests
    min: %d
  - type: census
`, seed, devices, simOrder, int(108000*scale), devices)
}

// scenarioSeed derives the seed of one scenario run (the scenario DSL
// takes seeds in [0, 2^31)).
func scenarioSeed(seed, stream int64) int64 {
	return int64(uint64(streamSeed(seed, stream)) % (1 << 31))
}

// checkReport is the per-run correctness check: every assertion passed,
// every arrival succeeded, and every shard's lifecycle census is clean.
func checkReport(rep *scenario.Report) []string {
	var out []string
	for _, a := range rep.Assertions {
		if !a.Pass {
			out = append(out, fmt.Sprintf("assertion %s failed: want %s, got %s", a.Type, a.Want, a.Got))
		}
	}
	if !rep.Pass && len(out) == 0 {
		out = append(out, "report marked failed")
	}
	if t := rep.Totals; t.SuccessRate != 1 || t.Failed != 0 || t.Succeeded != t.Arrivals || t.Arrivals == 0 {
		out = append(out, fmt.Sprintf("%d arrivals, %d succeeded, %d failed", t.Arrivals, t.Succeeded, t.Failed))
	}
	for _, s := range rep.Pool.Shards {
		if !s.CensusOK {
			out = append(out, fmt.Sprintf("shard %d census does not match its slots", s.Shard))
		}
	}
	return out
}

func reportDigest(rep *scenario.Report) (string, error) {
	b, err := json.Marshal(rep)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// simRun decodes and runs one scenario, timing only scenario.Run.
func simRun(seed int64, scale float64, tr *tracer) (*scenario.Report, time.Duration, error) {
	var scn *scenario.Scenario
	var err error
	tr.timed(0, "scenario.decode", func() { scn, err = scenario.Decode([]byte(soakYAML(seed, scale))) })
	if err != nil {
		return nil, 0, fmt.Errorf("decode: %w", err)
	}
	var rep *scenario.Report
	start := time.Now()
	tr.timed(0, "scenario.run", func() { rep, err = scenario.Run(scn) })
	wall := time.Since(start)
	if err != nil {
		return nil, 0, fmt.Errorf("run: %w", err)
	}
	return rep, wall, nil
}

func runSim(cfg runConfig) *outcome {
	o := newOutcome()
	var setups []float64
	for i := 0; i < simSetups; i++ {
		start := time.Now()
		rep, _, err := simRun(scenarioSeed(cfg.seed, simSetupStream+int64(i)), simWarmScale, nil)
		if err != nil {
			o.problem("set-up: %v", err)
			return o
		}
		for _, p := range checkReport(rep) {
			o.problem("set-up run: %s", p)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	o.e2e["setup_s"] = median(setups)

	var prof *cpuProfile
	var err error
	if cfg.tr != nil {
		if prof, err = startCPUProfile(); err != nil {
			o.problem("cpu profile: %v", err)
			return o
		}
	}
	heap := startHeapSampler()
	w := beginWindow()
	var (
		rates, perVHour []float64
		first           *scenario.Report
		firstDigest     string
		arrivals        int64
	)
	for i := 0; i < simMinRepeats || time.Since(w.start) < cfg.duration; i++ {
		rep, wall, err := simRun(scenarioSeed(cfg.seed, simRepeatStream+int64(i)), 1, cfg.tr)
		if err != nil {
			o.problem("repeat %d: %v", i, err)
			break
		}
		for _, p := range checkReport(rep) {
			o.problem("repeat %d: %s", i, p)
		}
		if i == 0 {
			first = rep
			if firstDigest, err = reportDigest(rep); err != nil {
				o.problem("report digest: %v", err)
			}
		}
		arrivals += int64(rep.Totals.Arrivals)
		o.failed += int64(rep.Totals.Failed)
		rates = append(rates, float64(rep.Totals.Arrivals)/wall.Seconds())
		perVHour = append(perVHour, wall.Seconds()/(rep.VirtualSecs/3600))
	}
	d := w.end()
	o.e2e["peak_heap_mb"] = heap.stopMB()
	var shares map[string]float64
	if prof != nil {
		var samples int64
		if shares, samples, err = prof.stopShares(); err != nil {
			o.problem("cpu profile: %v", err)
		}
		o.note("cpu profile: %d samples", samples)
	}
	o.attempted = arrivals
	if first == nil {
		return o
	}

	// Determinism: the first repeat's scenario, run again, must give a
	// byte-identical report.
	firstSeed := scenarioSeed(cfg.seed, simRepeatStream)
	again, _, err := simRun(firstSeed, 1, nil)
	if err != nil {
		o.problem("determinism re-run: %v", err)
	} else if dg, _ := reportDigest(again); dg != firstDigest {
		o.problem("report of scenario seed %d differs between two runs (%s vs %s)", firstSeed, firstDigest, dg)
	}

	o.e2e["peak_rps"] = median(rates)
	setProcMetrics(o, d, arrivals)
	o.note("sim-soak: %d repeats, %d arrivals, setups %v s, wall s per virtual hour %v",
		len(rates), arrivals, setups, perVHour)
	o.note("sim-soak: first repeat (scenario seed %d) report sha256 %s", firstSeed, firstDigest)

	if cfg.tr == nil {
		return o
	}
	l := o.layer
	l["scenario.wall_s_per_vhour"] = median(perVHour)
	l["scenario.retries"] = float64(first.Totals.Retries)
	l["scenario.warehouse_hit_ratio"] = ratio(float64(first.Pool.WarehouseHits),
		float64(first.Pool.WarehouseHits+first.Pool.WarehouseMisses))
	rng := rand.New(rand.NewSource(streamSeed(cfg.seed, 6000)))
	tasks := make([]workload.Task, 200)
	for i := range tasks {
		tasks[i] = linpackTask(workload.EncodeLinpackParams(rng.Int63(), simOrder), i)
	}
	l["workload.execute_us"] = timeTasks(tasks, cfg.tr)
	for _, name := range cpuLayers {
		l["cpu."+name+"_share"] = shares[name]
	}
	// The simulator has no wire, no generator and no public registry:
	// these layer metrics are not observable from outside on sim-*.
	for _, def := range layerMetrics {
		if strings.HasPrefix(def.name, "realtime.") || strings.HasPrefix(def.name, "offload.") ||
			strings.HasPrefix(def.name, "core.") || strings.HasPrefix(def.name, "gen.") {
			l[def.name] = 0
		}
	}
	return o
}

// timeTasks times workload.Registry.Execute on tasks: the median over
// ten batches of the per-call mean, in µs.
func timeTasks(tasks []workload.Task, tr *tracer) float64 {
	reg := workload.NewRegistry()
	per := len(tasks) / 10
	var batches []float64
	for b := 0; b < 10; b++ {
		start := time.Now()
		for _, t := range tasks[b*per : (b+1)*per] {
			t := t
			tr.timed(0, "workload.execute", func() { _, _ = reg.Execute(t) })
		}
		batches = append(batches, float64(time.Since(start).Nanoseconds())/1e3/float64(per))
	}
	return median(batches)
}
