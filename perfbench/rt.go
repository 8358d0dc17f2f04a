package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/obs"
	"rattrap/internal/offload"
	"rattrap/internal/realtime"
	"rattrap/internal/workload"
)

// The realtime workload, rt-warm: a realtime.Server on loopback TCP with
// KindRattrap defaults, driven by rtConns device connections in this
// process, every request a warehouse hit on the one staged AID.
const (
	rtSpeed       = 20000 // virtual time runs this much faster than wall time
	rtConns       = 2     // device connections
	rtClosedDepth = 8     // in-flight requests per connection, closed loop
	rtOpenCap     = 32    // in-flight cap per connection, open loop (= server pipeline depth)
	rtOrder       = 8     // Linpack system order
	rtParamPool   = 1024  // distinct Linpack seeds a run draws from
	rtSetups      = 5     // set-ups per run; setup_s is their median
	rtWarmups     = 500   // warm-up requests per connection

	// rtOpenRate is the open-loop phase's fixed offered load in req/s
	// over all connections: about a quarter of the closed-loop peak on a
	// 2-vCPU host. At half the peak the latency percentiles swung by a
	// fifth between runs of one build.
	rtOpenRate = 7500
	// rtClosedPace sizes the closed-loop phase: it sends rtClosedPace
	// requests per second of phase, about the closed-loop peak on a
	// 2-vCPU host, so the phase lasts about its share of --seconds today
	// and does the same work on every commit (the live heap grows with
	// requests served; see README.md).
	rtClosedPace = 30000

	rtWindow    = 250 * time.Millisecond // closed-loop throughput window
	rtLatWindow = 500 * time.Millisecond // open-loop latency window
	rtLatSkip   = time.Second            // open-loop start not counted in latency (ramp-up), at most a fifth of the phase
	rtOpenShare = 0.6                    // share of --seconds the open loop runs; the closed loop gets the rest
)

var (
	linpackCodeSize = workload.NewLinpack().CodeSize()
	rtAID           = offload.AID(workload.NameLinpack, linpackCodeSize)
)

// lpCase is one Linpack parameter blob and the output a direct
// workload.Registry.Execute gives for it.
type lpCase struct {
	params []byte
	output string
}

// buildParamPool draws rtParamPool Linpack seeds from the workload seed
// and computes each one's expected output.
func buildParamPool(seed int64) ([]lpCase, error) {
	rng := rand.New(rand.NewSource(streamSeed(seed, 1000)))
	reg := workload.NewRegistry()
	pool := make([]lpCase, rtParamPool)
	for i := range pool {
		params := workload.EncodeLinpackParams(rng.Int63(), rtOrder)
		m, err := reg.Execute(linpackTask(params, i))
		if err != nil {
			return nil, fmt.Errorf("direct execute of pool entry %d: %w", i, err)
		}
		pool[i] = lpCase{params: params, output: m.Output}
	}
	return pool, nil
}

func linpackTask(params []byte, seq int) workload.Task {
	return workload.Task{App: workload.NameLinpack, Method: "solve", Seq: seq, Params: params, ParamBytes: 500}
}

// streamSeed derives an independent RNG seed for one stream of the
// workload seed (splitmix64 finalizer).
func streamSeed(seed, stream int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// arrivalSchedule is one connection's open-loop send times: Poisson
// arrivals at rate req/s, as offsets from the phase start, up to dur.
func arrivalSchedule(seed int64, conn int, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(streamSeed(seed, int64(2000+conn))))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// paramStream is one connection's deterministic stream of indices into
// the parameter pool.
func paramStream(seed int64, conn int) *rand.Rand {
	return rand.New(rand.NewSource(streamSeed(seed, int64(3000+conn))))
}

// checkResult is the per-request correctness check: no error, and the
// output a direct Execute of the same parameters gives.
func checkResult(r *offload.Result, want string) error {
	if r.Err != "" {
		return fmt.Errorf("seq %d: error result (code %q): %s", r.Seq, r.Code, r.Err)
	}
	if r.Output != want {
		return fmt.Errorf("seq %d: output %q, want %q", r.Seq, r.Output, want)
	}
	return nil
}

// pendingReq is a sent request awaiting its result.
type pendingReq struct {
	pool   int       // index of its parameters in the pool
	due    time.Time // latency is measured from here
	sent   time.Time
	slot   chan struct{}
	record bool
	window int // open-loop latency window the due time falls in
	span   uint64
}

// latSample is one open-loop latency with the window its due time fell in.
type latSample struct {
	window int
	lat    time.Duration
}

var errDeviceDown = errors.New("device connection ended")

// rtDevice is one device connection. The sender (closed or open loop)
// owns the send side of the offload.Conn under sendMu — the reader also
// sends, to answer NEED_CODE — and one reader goroutine owns the receive
// side, so results are read as they arrive.
type rtDevice struct {
	conn   net.Conn
	c      *offload.Conn
	params *rand.Rand // sender-owned
	pool   []lpCase
	tr     *tracer

	sendMu sync.Mutex
	seq    int             // sender-owned
	late   []time.Duration // sender-owned: open-loop send minus due time

	mu       sync.Mutex
	pending  map[int]pendingReq
	problems []string

	completed atomic.Int64
	errored   atomic.Int64
	lat       []latSample // reader-owned: open-loop latencies
	closing   atomic.Bool
	done      chan struct{} // closed when the reader exits
	readErr   error         // guarded by mu
}

func dialDevice(addr, id string, seed int64, conn int, pool []lpCase, tr *tracer) (*rtDevice, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &rtDevice{
		conn:    nc,
		c:       offload.NewConnWire(nc, offload.WireBinary),
		params:  paramStream(seed, conn),
		pool:    pool,
		tr:      tr,
		pending: map[int]pendingReq{},
		done:    make(chan struct{}),
	}
	if err := d.c.Send(offload.Frame{Kind: offload.KindHello, Hello: &offload.Hello{DeviceID: id}}); err != nil {
		nc.Close()
		return nil, err
	}
	go d.readLoop()
	return d, nil
}

func (d *rtDevice) problem(format string, args ...any) {
	d.mu.Lock()
	if len(d.problems) < 10 {
		d.problems = append(d.problems, fmt.Sprintf(format, args...))
	}
	d.mu.Unlock()
}

func (d *rtDevice) sendFrame(f offload.Frame) error {
	d.sendMu.Lock()
	defer d.sendMu.Unlock()
	return d.c.Send(f)
}

// acquire takes one in-flight slot, or fails once the reader has exited.
func (d *rtDevice) acquire(slot chan struct{}) error {
	select {
	case slot <- struct{}{}:
		return nil
	case <-d.done:
		return errDeviceDown
	}
}

// drain waits until every request sent with slot has its result.
func (d *rtDevice) drain(slot chan struct{}) error {
	for i := 0; i < cap(slot); i++ {
		if err := d.acquire(slot); err != nil {
			return err
		}
	}
	return nil
}

// send issues the connection's next request. window >= 0 records its
// latency in that open-loop window; closed-loop requests pass -1.
func (d *rtDevice) send(due time.Time, slot chan struct{}, window int) error {
	d.seq++
	p := pendingReq{pool: d.params.Intn(len(d.pool)), due: due, sent: time.Now(), slot: slot,
		record: window >= 0, window: window, span: d.tr.newID()}
	d.mu.Lock()
	d.pending[d.seq] = p
	d.mu.Unlock()
	req := offload.ExecRequest{AID: rtAID, App: workload.NameLinpack, Method: "solve", Seq: d.seq,
		Params: d.pool[p.pool].params, ParamBytes: 500}
	var err error
	d.tr.timed(p.span, "offload.send", func() {
		err = d.sendFrame(offload.Frame{Kind: offload.KindExec, Exec: &req})
	})
	return err
}

// closedLoop keeps rtClosedDepth requests in flight until stop says so,
// then waits for the stragglers. It returns how many requests it sent.
func (d *rtDevice) closedLoop(stop func(sent int) bool) (int, error) {
	slot := make(chan struct{}, rtClosedDepth)
	sent := 0
	for !stop(sent) {
		if err := d.acquire(slot); err != nil {
			return sent, err
		}
		if err := d.send(time.Now(), slot, -1); err != nil {
			return sent, err
		}
		sent++
	}
	return sent, d.drain(slot)
}

// openLoop sends one request at each scheduled time regardless of
// completions (up to rtOpenCap in flight), timing each from its due time.
func (d *rtDevice) openLoop(t0 time.Time, sched []time.Duration) (int, error) {
	slot := make(chan struct{}, rtOpenCap)
	for i, off := range sched {
		due := t0.Add(off)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		if err := d.acquire(slot); err != nil {
			return i, err
		}
		d.late = append(d.late, time.Since(due))
		if err := d.send(due, slot, int(off/rtLatWindow)); err != nil {
			return i, err
		}
	}
	return len(sched), d.drain(slot)
}

// readLoop receives every frame from the server: results complete their
// requests, and a NEED_CODE is answered with the code.
func (d *rtDevice) readLoop() {
	defer close(d.done)
	for {
		var start time.Time
		if d.tr != nil {
			start = time.Now()
		}
		f, err := d.c.Recv()
		if err != nil {
			if !d.closing.Load() {
				d.mu.Lock()
				d.readErr = err
				d.mu.Unlock()
			}
			return
		}
		var ok bool
		switch f.Kind {
		case offload.KindResult:
			ok = d.onResult(f.Result, start)
		case offload.KindNeedCode:
			ok = d.onNeedCode(f.NeedCode)
		default:
			d.problem("unexpected %s frame from the server", f.Kind)
		}
		if !ok {
			d.conn.Close()
			return
		}
	}
}

func (d *rtDevice) take(seq int) (pendingReq, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.pending[seq]
	delete(d.pending, seq)
	return p, ok
}

func (d *rtDevice) lookup(seq int) (pendingReq, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.pending[seq]
	return p, ok
}

func (d *rtDevice) onResult(r *offload.Result, recvStart time.Time) bool {
	p, ok := d.take(r.Seq)
	if !ok {
		d.problem("result for seq %d, which is not in flight (unknown or answered twice)", r.Seq)
		return false
	}
	now := time.Now()
	if err := checkResult(r, d.pool[p.pool].output); err != nil {
		d.problem("%v", err)
		if r.Err != "" {
			d.errored.Add(1)
		}
	}
	if p.record {
		d.lat = append(d.lat, latSample{window: p.window, lat: now.Sub(p.due)})
	}
	d.completed.Add(1)
	<-p.slot
	if d.tr != nil {
		d.tr.record(d.tr.newID(), p.span, "offload.recv", recvStart, now)
		d.tr.record(p.span, 0, "request", p.sent, now)
	}
	return true
}

// onNeedCode answers the server's request for mobile code with the code
// frame (the first request of a run stages the AID).
func (d *rtDevice) onNeedCode(need *offload.NeedCode) bool {
	if need == nil {
		d.problem("NEED_CODE frame without a sequence number")
		return false
	}
	p, ok := d.lookup(need.Seq)
	if !ok {
		d.problem("NEED_CODE for seq %d, which is not in flight", need.Seq)
		return false
	}
	var err error
	d.tr.timed(p.span, "offload.code_push", func() {
		err = d.sendFrame(offload.Frame{Kind: offload.KindCode, Code: &offload.CodePush{
			AID: rtAID, App: workload.NameLinpack, Size: linpackCodeSize, Seq: need.Seq}})
	})
	return err == nil
}

// close ends the connection and waits for the reader.
func (d *rtDevice) close() {
	d.closing.Store(true)
	d.conn.Close()
	<-d.done
}

// report moves the device's failed checks into o and checks that every
// sent request was answered exactly once.
func (d *rtDevice) report(o *outcome) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, p := range d.problems {
		o.problem("%s", p)
	}
	if d.readErr != nil {
		o.problem("connection failed: %v", d.readErr)
	}
	if n := len(d.pending); n != 0 {
		o.problem("%d requests never answered", n)
	}
}

// rtBench is one set-up server with its connected, warmed-up devices.
type rtBench struct {
	srv       *realtime.Server
	ln        net.Listener
	serveDone chan struct{}
	devs      []*rtDevice
	wire      *wireStats
}

func (b *rtBench) close() {
	for _, d := range b.devs {
		d.close()
	}
	b.srv.Close()
	b.ln.Close()
	<-b.serveDone
}

// setupRealtime builds the server, connects the devices, stages the AID
// and warms up with rtWarmups requests per connection.
func setupRealtime(cfg runConfig, pool []lpCase) (*rtBench, error) {
	pcfg := core.DefaultConfig(core.KindRattrap)
	pcfg.IdleTimeout = 0 // keep the warm pool for the whole run
	srv := realtime.NewServerOpts(pcfg, rtSpeed, nil,
		realtime.Options{PipelineDepth: rtOpenCap, Wire: offload.WireBinary})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	b := &rtBench{srv: srv, ln: ln, serveDone: make(chan struct{})}
	var served net.Listener = ln
	if cfg.tr != nil {
		b.wire = &wireStats{}
		served = countingListener{Listener: ln, st: b.wire}
	}
	go func() {
		defer close(b.serveDone)
		srv.Serve(served)
	}()
	for i := 0; i < rtConns; i++ {
		d, err := dialDevice(ln.Addr().String(), fmt.Sprintf("rt-warm-dev-%d", i), cfg.seed, i, pool, cfg.tr)
		if err != nil {
			b.close()
			return nil, err
		}
		b.devs = append(b.devs, d)
	}
	if err := b.eachDevice(func(_ int, d *rtDevice) error {
		_, err := d.closedLoop(func(k int) bool { return k >= rtWarmups })
		return err
	}); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// eachDevice runs fn on every device concurrently and returns the first
// error.
func (b *rtBench) eachDevice(fn func(i int, d *rtDevice) error) error {
	errs := make([]error, len(b.devs))
	var wg sync.WaitGroup
	for i, d := range b.devs {
		wg.Add(1)
		go func(i int, d *rtDevice) {
			defer wg.Done()
			errs[i] = fn(i, d)
		}(i, d)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (b *rtBench) completed() int64 {
	var n int64
	for _, d := range b.devs {
		n += d.completed.Load()
	}
	return n
}

func runRealtime(cfg runConfig) *outcome {
	o := newOutcome()
	pool, err := buildParamPool(cfg.seed)
	if err != nil {
		o.problem("%v", err)
		return o
	}
	var b *rtBench
	var setups []float64
	for i := 0; i < rtSetups; i++ {
		if b != nil {
			b.close()
		}
		start := time.Now()
		if b, err = setupRealtime(cfg, pool); err != nil {
			o.problem("set-up: %v", err)
			return o
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer b.close()
	o.e2e["setup_s"] = median(setups)

	openPhase := time.Duration(rtOpenShare * float64(cfg.duration))
	closedPhase := cfg.duration - openPhase
	scheds := make([][]time.Duration, rtConns)
	for i := range scheds {
		scheds[i] = arrivalSchedule(cfg.seed, i, rtOpenRate/rtConns, openPhase)
	}
	reg := b.srv.Metrics()
	snap0 := reg.Snapshot()
	var wire0 wireSnapshot
	if b.wire != nil {
		wire0 = b.wire.snapshot()
	}
	wake0 := b.srv.Driver().TimerWakeups()
	done0 := b.completed()
	var prof *cpuProfile
	if cfg.tr != nil {
		if prof, err = startCPUProfile(); err != nil {
			o.problem("cpu profile: %v", err)
			return o
		}
	}
	runtime.GC()

	// Open loop: fixed offered rate, latency from each request's due time.
	var sent atomic.Int64
	w := beginWindow()
	t0 := time.Now().Add(time.Millisecond)
	err = b.eachDevice(func(i int, d *rtDevice) error {
		n, err := d.openLoop(t0, scheds[i])
		sent.Add(int64(n))
		return err
	})
	openDelta := w.end()
	serverLat := b.srv.Latency().Snapshot()
	if err != nil {
		o.problem("open loop: %v", err)
	}
	heapOpen := liveHeapAfterGC()

	// Closed loop: rtClosedDepth in flight per connection; peak_rps is
	// the median of the per-window completion rates while every
	// connection is still sending.
	perConn := int(rtClosedPace * closedPhase.Seconds() / rtConns)
	w = beginWindow()
	var rates []float64
	var finished atomic.Int32
	loopDone := make(chan error, 1)
	go func() {
		loopDone <- b.eachDevice(func(_ int, d *rtDevice) error {
			n, err := d.closedLoop(func(k int) bool { return k >= perConn })
			finished.Add(1)
			sent.Add(int64(n))
			return err
		})
	}()
	last, lastAt := b.completed(), time.Now()
	tick := time.NewTicker(rtWindow)
sampling:
	for {
		select {
		case err = <-loopDone:
			break sampling
		case now := <-tick.C:
			if finished.Load() != 0 {
				continue // the draining tail is not a full-load window
			}
			n := b.completed()
			rates = append(rates, float64(n-last)/now.Sub(lastAt).Seconds())
			last, lastAt = n, now
		}
	}
	tick.Stop()
	closedDelta := w.end()
	if err != nil {
		o.problem("closed loop: %v", err)
	}
	o.e2e["peak_heap_mb"] = max(heapOpen, liveHeapAfterGC())
	var shares map[string]float64
	if prof != nil {
		var samples int64
		if shares, samples, err = prof.stopShares(); err != nil {
			o.problem("cpu profile: %v", err)
		}
		o.note("cpu profile: %d samples", samples)
	}

	var late []float64
	windows := make([][]float64, int((openPhase+rtLatWindow-1)/rtLatWindow))
	for _, d := range b.devs {
		d.report(o)
		o.failed += d.errored.Load()
		for _, s := range d.lat {
			windows[s.window] = append(windows[s.window], float64(s.lat)/1e6)
		}
		for _, l := range d.late {
			late = append(late, float64(l)/1e6)
		}
	}
	completed := b.completed() - done0
	o.attempted = sent.Load()
	if completed != o.attempted {
		o.problem("%d requests sent in the timed phases, %d answered", o.attempted, completed)
	}
	o.e2e["peak_rps"] = median(rates)
	o.note("closed-loop window req/s %.0f", rates)
	// Latency percentiles are taken per window and reported as the
	// median over windows, so one disturbed window moves them little.
	// Windows starting in the phase's ramp-up are left out.
	skip := min(rtLatSkip, openPhase/5)
	var p50s, p90s, p99s []float64
	openSamples := 0
	for i, w := range windows {
		if time.Duration(i)*rtLatWindow >= skip && len(w) >= 100 {
			p50s = append(p50s, quantile(w, 0.50))
			p90s = append(p90s, quantile(w, 0.90))
			p99s = append(p99s, quantile(w, 0.99))
		}
		openSamples += len(w)
	}
	o.layer["realtime.client_p50_us"] = 1e3 * median(p50s)
	o.layer["realtime.client_p90_us"] = 1e3 * median(p90s)
	o.layer["realtime.client_p99_us"] = 1e3 * median(p99s)
	o.note("open-loop window p50 ms %.3f", p50s)
	o.note("open-loop window p90 ms %.3f", p90s)
	o.note("open-loop window p99 ms %.3f", p99s)
	if len(p50s) == 0 {
		o.problem("open loop too short for one %v latency window", rtLatWindow)
	}
	setProcMetrics(o, openDelta.add(closedDelta), completed)
	o.note("rt-warm: %d requests (%d open-loop at %d req/s offered, %d latency windows), %d closed-loop windows, setups %v s",
		completed, openSamples, rtOpenRate, len(p50s), len(rates), setups)
	if len(rates) == 0 {
		o.problem("closed loop too short for one %v window", rtWindow)
	}

	if cfg.tr == nil {
		return o
	}
	// Per-layer numbers (traced pass only).
	l := o.layer
	fc := float64(completed)
	sp50, _, sp99 := serverLat.Percentiles()
	l["realtime.server_p50_us"] = float64(sp50) / 1e3
	l["realtime.server_p99_us"] = float64(sp99) / 1e3
	ws := b.wire.snapshot().sub(wire0)
	l["realtime.read_calls_per_req"] = ratio(float64(ws.reads), fc)
	l["realtime.write_calls_per_result"] = ratio(float64(ws.writes), fc)
	l["realtime.read_us_per_call"] = ratio(float64(ws.readNs)/1e3, float64(ws.reads))
	l["realtime.write_us_per_call"] = ratio(float64(ws.writeNs)/1e3, float64(ws.writes))
	l["offload.wire_bytes_per_req"] = ratio(float64(ws.readBytes+ws.writeBytes), fc)
	l["realtime.timer_wakeups_per_kreq"] = ratio(1000*float64(b.srv.Driver().TimerWakeups()-wake0), fc)

	snap1 := reg.Snapshot()
	delta := func(name string) float64 { return float64(snap1.Counters[name] - snap0.Counters[name]) }
	l["core.queued_ratio"] = ratio(delta("dispatch.queued"), fc)
	l["core.affinity_hit_ratio"] = ratio(delta("dispatch.affinity_hits"), fc)
	hits, misses := delta("warehouse.hits"), delta("warehouse.misses")
	l["core.warehouse_hit_ratio"] = ratio(hits, hits+misses)
	l["core.evictions_per_kreq"] = ratio(1000*delta("warehouse.evictions"), fc)
	l["core.boots"] = float64(snap1.Counters["dispatch.boots"])
	l["core.template_clones"] = float64(snap1.Counters["dispatch.template_clones"])
	stageMs := func(stage string) float64 { return float64(snap1.Histograms["stage."+stage].MeanNs) / 1e6 }
	l["core.stage_queue_wait_ms"] = stageMs(obs.StageQueueWait)
	l["core.stage_chunk_stage_ms"] = stageMs(obs.StageChunkStage)
	l["core.stage_run_ms"] = stageMs(obs.StageRun)

	tasks := make([]workload.Task, 1000)
	for i := range tasks {
		tasks[i] = linpackTask(pool[i].params, i)
	}
	l["workload.execute_us"] = timeTasks(tasks, cfg.tr)
	enc, dec, allocs, err := replayCodec(cfg.seed, pool)
	if err != nil {
		o.problem("codec replay: %v", err)
	}
	l["offload.encode_ns_per_frame"] = enc
	l["offload.decode_ns_per_frame"] = dec
	l["offload.allocs_per_frame"] = allocs
	l["gen.late_p50_ms"] = quantile(late, 0.50)
	l["gen.late_p99_ms"] = quantile(late, 0.99)
	for _, name := range cpuLayers {
		l["cpu."+name+"_share"] = shares[name]
	}
	for _, k := range []string{"scenario.retries", "scenario.warehouse_hit_ratio", "scenario.wall_s_per_vhour"} {
		l[k] = 0 // no scenario on the realtime path
	}
	o.note("realtime split: client p50 %.1f µs (device-side, from due time), server p50 %.1f µs (frame receipt to result send)",
		l["realtime.client_p50_us"], l["realtime.server_p50_us"])
	return o
}

// replayCodec encodes and decodes the workload's own frames — exec
// requests drawn as a connection draws them and their result frames —
// through a pair of binary-wire offload.Conns over an
// in-memory buffer. It returns ns per frame encoded and decoded and heap
// allocations per frame (both directions), medians over five rounds.
func replayCodec(seed int64, pool []lpCase) (encNs, decNs, allocs float64, err error) {
	const n = 2048
	params := paramStream(seed, 0)
	reqs := make([]offload.ExecRequest, n)
	results := make([]offload.Result, n)
	for i := range reqs {
		k := params.Intn(len(pool))
		reqs[i] = offload.ExecRequest{AID: rtAID, App: workload.NameLinpack, Method: "solve", Seq: i + 1,
			Params: pool[k].params, ParamBytes: 500}
		results[i] = offload.Result{Output: pool[k].output, ResultBytes: 550, Seq: i + 1}
	}
	var buf bytes.Buffer
	buf.Grow(1 << 20)
	dev := offload.NewConnWire(&buf, offload.WireBinary)
	cloud := offload.NewConnWire(&buf, offload.WireBinary)
	var encs, decs, allocsPer []float64
	for round := 0; round < 5; round++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := range reqs {
			if err := dev.Send(offload.Frame{Kind: offload.KindExec, Exec: &reqs[i]}); err != nil {
				return 0, 0, 0, err
			}
		}
		t1 := time.Now()
		for range reqs {
			if _, err := cloud.Recv(); err != nil {
				return 0, 0, 0, err
			}
		}
		t2 := time.Now()
		for i := range results {
			if err := cloud.SendResult(&results[i]); err != nil {
				return 0, 0, 0, err
			}
		}
		t3 := time.Now()
		for i := range results {
			f, err := dev.Recv()
			if err != nil {
				return 0, 0, 0, err
			}
			if f.Kind != offload.KindResult || f.Result.Output != results[i].Output {
				return 0, 0, 0, fmt.Errorf("frame %d did not round-trip", i)
			}
		}
		t4 := time.Now()
		runtime.ReadMemStats(&m1)
		encs = append(encs, float64(t1.Sub(t0)+t3.Sub(t2))/(2*n))
		decs = append(decs, float64(t2.Sub(t1)+t4.Sub(t3))/(2*n))
		allocsPer = append(allocsPer, float64(m1.Mallocs-m0.Mallocs)/(2*n))
	}
	return median(encs), median(decs), median(allocsPer), nil
}
