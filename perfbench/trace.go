package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans around the benchmark's own calls into each layer.
// Spans stay in memory (up to maxSpans; later ones are only counted) and
// are written out when the run ends. A nil *tracer records nothing, so
// untraced passes pay one nil check per call site.
type tracer struct {
	t0      time.Time
	nextID  atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

// span is one timed call. Times are nanoseconds since the tracer started.
// Spans of one request share its root's ID as Parent (the root's own
// Parent is 0).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const maxSpans = 1 << 18

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// newID reserves a span ID; 0 when tracing is off.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores a finished span with a pre-reserved ID.
func (t *tracer) record(id, parent uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
			Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// timed runs fn inside a span named name under parent.
func (t *tracer) timed(parent uint64, name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	t.record(t.newID(), parent, name, start, time.Now())
}

// spanSummary aggregates the spans of one name. SelfUs subtracts the
// time the span's direct children cover.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalUs float64 `json:"total_us"`
	SelfUs  float64 `json:"self_us"`
}

func (t *tracer) summary() map[string]spanSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[uint64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]spanSummary{}
	for _, s := range t.spans {
		d := s.End - s.Start
		sum := out[s.Name]
		sum.Count++
		sum.TotalUs += float64(d) / 1e3
		sum.SelfUs += float64(d-child[s.ID]) / 1e3
		out[s.Name] = sum
	}
	if t.dropped > 0 {
		out["(dropped)"] = spanSummary{Count: int(t.dropped)}
	}
	return out
}

// writeSpans writes every kept span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// wireStats counts and times the server side's socket calls, through a
// wrapper around the net.Listener handed to realtime.Server.Serve. Read
// time includes time parked waiting for the peer's bytes.
type wireStats struct {
	reads, writes         atomic.Int64
	readNs, writeNs       atomic.Int64
	readBytes, writeBytes atomic.Int64
}

type wireSnapshot struct {
	reads, writes, readNs, writeNs, readBytes, writeBytes int64
}

func (w *wireStats) snapshot() wireSnapshot {
	return wireSnapshot{w.reads.Load(), w.writes.Load(), w.readNs.Load(), w.writeNs.Load(),
		w.readBytes.Load(), w.writeBytes.Load()}
}

func (a wireSnapshot) sub(b wireSnapshot) wireSnapshot {
	return wireSnapshot{a.reads - b.reads, a.writes - b.writes, a.readNs - b.readNs,
		a.writeNs - b.writeNs, a.readBytes - b.readBytes, a.writeBytes - b.writeBytes}
}

type countingListener struct {
	net.Listener
	st *wireStats
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, st: l.st}, nil
}

type countingConn struct {
	net.Conn
	st *wireStats
}

func (c countingConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(p)
	c.st.readNs.Add(int64(time.Since(start)))
	c.st.reads.Add(1)
	c.st.readBytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.st.writeNs.Add(int64(time.Since(start)))
	c.st.writes.Add(1)
	c.st.writeBytes.Add(int64(n))
	return n, err
}

// cpuProfile is a running CPU profile of the whole process.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stopShares stops the profile and returns each cpuLayers bucket's share
// of the samples.
func (p *cpuProfile) stopShares() (map[string]float64, int64, error) {
	pprof.StopCPUProfile()
	stacks, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range stacks {
		counts[classifyStack(s.frames)] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for _, l := range cpuLayers {
		shares[l] = ratio(float64(counts[l]), float64(total))
	}
	return shares, total, nil
}

// layerOfPackage maps a repository package (the path after
// "rattrap/internal/") to its benchmark layer.
func layerOfPackage(pkg string) string {
	switch pkg {
	case "offload", "realtime", "core", "cluster", "workload", "sim", "scenario":
		return pkg
	case "android", "container", "unionfs", "host", "netsim":
		return "substrate"
	}
	return "other"
}

// gcFrames mark a sample as garbage-collector work wherever they appear
// in the stack; schedFrames mark a runtime-leaf sample as scheduler work
// (goroutine hand-off, parking, channel operations, stack growth).
var (
	gcFrames = map[string]bool{
		"runtime.gcBgMarkWorker": true, "runtime.gcDrain": true, "runtime.gcDrainN": true,
		"runtime.gcAssistAlloc": true, "runtime.gcAssistAlloc1": true, "runtime.bgsweep": true,
		"runtime.bgscavenge": true, "runtime.markroot": true, "runtime.gcMarkDone": true,
		"runtime.gcMarkTermination": true, "runtime.sweepone": true, "runtime.gcStart": true,
		"runtime.deductAssistCredit": true,
	}
	schedFrames = map[string]bool{
		"runtime.schedule": true, "runtime.findRunnable": true, "runtime.mcall": true,
		"runtime.park_m": true, "runtime.gopark": true, "runtime.goready": true,
		"runtime.ready": true, "runtime.wakep": true, "runtime.newproc": true,
		"runtime.goexit0": true, "runtime.morestack": true, "runtime.newstack": true,
		"runtime.chansend": true, "runtime.chanrecv": true, "runtime.selectgo": true,
		"runtime.netpoll": true, "runtime.stopm": true, "runtime.startm": true,
		"runtime.semacquire1": true, "runtime.semrelease1": true, "runtime.notesleep": true,
		"runtime.notewakeup": true, "runtime.sysmon": true, "runtime.goschedImpl": true,
		"runtime.injectglist": true, "runtime.resetspinning": true, "runtime.exitsyscall": true,
		"runtime.entersyscall": true, "runtime.reentersyscall": true,
	}
)

// funcPackage returns the import path of a profiled function name such
// as "rattrap/internal/core.(*Platform).Prepare" or "runtime.mallocgc".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func isRuntimePackage(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// classifyStack attributes one sample (frames leaf first) to a bucket:
// garbage collection anywhere in the stack; a syscall-package leaf; a
// runtime leaf under a scheduler frame (goroutine hand-off, parking,
// channel operations, stack growth); otherwise the layer of the nearest
// repository or benchmark frame — so a standard-library or runtime leaf
// such as a map walk, a copy or an allocation is charged to the layer
// that made the call. Runtime work with no such caller is runtime_other.
func classifyStack(frames []string) string {
	for _, f := range frames {
		if gcFrames[f] {
			return "runtime_gc"
		}
	}
	if len(frames) == 0 {
		return "other"
	}
	leaf := funcPackage(frames[0])
	switch {
	case leaf == "syscall" || strings.HasSuffix(leaf, "runtime/syscall") || strings.HasPrefix(leaf, "golang.org/x/sys"):
		return "syscall"
	case isRuntimePackage(leaf):
		for _, f := range frames {
			if schedFrames[f] {
				return "runtime_sched"
			}
		}
	}
	for _, f := range frames {
		pkg := funcPackage(f)
		if pkg == "main" || pkg == "rattrap/perfbench" { // the latter under go test
			return "bench"
		}
		if rest, ok := strings.CutPrefix(pkg, "rattrap/internal/"); ok {
			return layerOfPackage(strings.SplitN(rest, "/", 2)[0])
		}
	}
	if isRuntimePackage(leaf) {
		return "runtime_other"
	}
	return "other"
}

// profStack is one distinct sampled stack with its sample count.
type profStack struct {
	frames []string
	count  int64
}

// parseProfile decodes the gzipped profile.proto a runtime/pprof CPU
// profile writes, keeping only what attribution needs: each sample's
// stack as function names (leaf first, inlined frames expanded) and its
// sample count (the first value).
func parseProfile(data []byte) ([]profStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		n    int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string table index
		strs      []string
	)
	err = pbFields(raw, func(field int, wt int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			first := true
			err := pbFields(b, func(f int, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbAppendUints(s.locs, wt, v, b)
				case 2:
					if first {
						vals := pbAppendUints(nil, wt, v, b)
						if len(vals) > 0 {
							s.n = int64(vals[0])
							first = false
						}
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, wt int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profStack, 0, len(samples))
	for _, s := range samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if idx := funcNames[fid]; idx >= 0 && int(idx) < len(strs) {
					frames = append(frames, strs[idx])
				}
			}
		}
		out = append(out, profStack{frames: frames, count: s.n})
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protobuf")

// pbFields walks one protobuf message, calling fn for each field with its
// number, wire type and either the varint value or the bytes payload.
func pbFields(b []byte, fn func(field, wt int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errProto
		}
		b = b[n:]
		field, wt := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wt {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, wt, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// pbAppendUints appends a repeated integer field's values, packed (wire
// type 2) or not.
func pbAppendUints(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
