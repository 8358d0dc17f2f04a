package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/metrics"
	"rattrap/internal/obs"
	"rattrap/internal/offload"
	"rattrap/internal/realtime"
	"rattrap/internal/workload"
)

// The realtime report measures the serving layer, not the paper's
// virtual-time results: warehouse-hit exec roundtrips over loopback TCP
// against the event-driven pacing driver.
const (
	rtSpeed    = 20000 // virtual task cost shrinks to µs; dispatch dominates
	rtRequests = 500
	rtIdleWait = 250 * time.Millisecond
)

type rtModeReport struct {
	Requests       int     `json:"requests"`
	P50Micros      float64 `json:"p50_us"`
	P95Micros      float64 `json:"p95_us"`
	P99Micros      float64 `json:"p99_us"`
	MeanMicros     float64 `json:"mean_us"`
	MaxMicros      float64 `json:"max_us"`
	IdleTimerWakes int64   `json:"idle_timer_wakeups"`
	// Stages is the server's virtual-time per-stage breakdown (stage.* and
	// server.stage.* histograms from /metrics); Counters are the platform
	// and server counters after the run.
	Stages   map[string]obs.HistStat `json:"stages,omitempty"`
	Counters map[string]int64        `json:"counters,omitempty"`
}

type rtReport struct {
	Workload   string       `json:"workload"`
	Speed      float64      `json:"speed"`
	IdleWindow string       `json:"idle_window"`
	Event      rtModeReport `json:"event"`
}

// runRealtimeBench measures the server and writes BENCH_realtime.json
// into dir (or the working directory when dir is empty). When baseline
// names a previous report, the run fails if the event-mode p50 regressed
// more than rtRegressionFactor against it — the CI latency gate.
func runRealtimeBench(dir, baseline string) error {
	event, err := measureRealtime()
	if err != nil {
		return err
	}
	rep := rtReport{
		Workload:   workload.NameLinpack + " (n=8, warehouse hit)",
		Speed:      rtSpeed,
		IdleWindow: rtIdleWait.String(),
		Event:      event,
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	path := "BENCH_realtime.json"
	if dir != "" {
		path = dir + string(os.PathSeparator) + path
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("realtime roundtrip: p50 %.0f µs, p99 %.0f µs; report in %s\n",
		event.P50Micros, event.P99Micros, path)
	if baseline != "" {
		return checkRegression(baseline, event.P50Micros)
	}
	return nil
}

// rtRegressionFactor is how much the event-mode p50 may grow against the
// checked-in baseline before the run fails (loopback latencies on shared
// CI machines are noisy; 3x catches real regressions, not scheduler
// jitter).
const rtRegressionFactor = 3.0

// checkRegression compares the measured event-mode p50 against the
// baseline report at path.
func checkRegression(path string, p50us float64) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base rtReport
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	if base.Event.P50Micros <= 0 {
		return fmt.Errorf("baseline %s has no event-mode p50", path)
	}
	ratio := p50us / base.Event.P50Micros
	if ratio > rtRegressionFactor {
		return fmt.Errorf("event-mode p50 regressed %.1fx vs baseline %s (%.0f µs now, %.0f µs then; limit %.0fx)",
			ratio, path, p50us, base.Event.P50Micros, rtRegressionFactor)
	}
	fmt.Printf("p50 vs baseline %s: %.2fx (limit %.0fx) — ok\n", path, ratio, rtRegressionFactor)
	return nil
}

func measureRealtime() (rtModeReport, error) {
	cfg := core.DefaultConfig(core.KindRattrap)
	cfg.IdleTimeout = 0 // keep the pool warm: no reap events in the idle window
	srv := realtime.NewServer(cfg, rtSpeed, nil)
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rtModeReport{}, err
	}
	defer ln.Close()
	go srv.Serve(ln)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return rtModeReport{}, err
	}
	defer conn.Close()
	c := offload.NewConn(conn)
	if err := c.Send(offload.Frame{Kind: offload.KindHello, Hello: &offload.Hello{DeviceID: "bench"}}); err != nil {
		return rtModeReport{}, err
	}

	app, _ := workload.ByName(workload.NameLinpack)
	aid := offload.AID(app.Name(), app.CodeSize())
	params := workload.EncodeLinpackParams(7, 8)

	roundtrip := func(seq int) error {
		if err := c.Send(offload.Frame{Kind: offload.KindExec, Exec: &offload.ExecRequest{
			AID: aid, App: app.Name(), Method: "solve", Seq: seq,
			Params: params, ParamBytes: 500,
		}}); err != nil {
			return err
		}
		f, err := c.Recv()
		if err != nil {
			return err
		}
		if f.Kind == offload.KindNeedCode {
			if err := c.Send(offload.Frame{Kind: offload.KindCode, Code: &offload.CodePush{
				AID: aid, App: app.Name(), Size: app.CodeSize(),
			}}); err != nil {
				return err
			}
			if f, err = c.Recv(); err != nil {
				return err
			}
		}
		if f.Kind != offload.KindResult {
			return fmt.Errorf("expected result, got %s", f.Kind)
		}
		if f.Result.Err != "" {
			return fmt.Errorf("cloud error: %s", f.Result.Err)
		}
		return nil
	}

	if err := roundtrip(0); err != nil { // warm-up: boot + code staging
		return rtModeReport{}, err
	}
	h := metrics.NewLatencyHistogram()
	for i := 1; i <= rtRequests; i++ {
		start := time.Now()
		if err := roundtrip(i); err != nil {
			return rtModeReport{}, fmt.Errorf("request %d: %w", i, err)
		}
		h.Observe(time.Since(start))
	}

	// Idle wakeups: with no work pending, the pacing loop must hold no
	// timer at all.
	before := srv.Driver().TimerWakeups()
	time.Sleep(rtIdleWait)
	idle := srv.Driver().TimerWakeups() - before

	p50, p95, p99 := h.Percentiles()
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

	// Per-stage virtual-time breakdown and platform counters, scraped from
	// the same registry /metrics serves.
	snap := srv.Metrics().Snapshot()
	stages := make(map[string]obs.HistStat)
	for name, st := range snap.Histograms {
		if strings.HasPrefix(name, "stage.") || strings.HasPrefix(name, "server.stage.") {
			stages[name] = st
		}
	}

	return rtModeReport{
		Requests:       rtRequests,
		P50Micros:      us(p50),
		P95Micros:      us(p95),
		P99Micros:      us(p99),
		MeanMicros:     us(h.Mean()),
		MaxMicros:      us(h.Max()),
		IdleTimerWakes: idle,
		Stages:         stages,
		Counters:       snap.Counters,
	}, nil
}
