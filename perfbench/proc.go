package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procWindow brackets a timed phase with process CPU time (getrusage,
// user+sys over every thread — load generator and server alike) and the
// allocator's counters.
type procWindow struct {
	start time.Time
	cpu   time.Duration
	mem   runtime.MemStats
}

// procDelta is what happened to the process over one window.
type procDelta struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	numGC   uint32
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func beginWindow() procWindow {
	var w procWindow
	runtime.ReadMemStats(&w.mem)
	w.cpu = processCPU()
	w.start = time.Now()
	return w
}

func (w procWindow) end() procDelta {
	cpu := processCPU()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procDelta{
		cpu:     cpu - w.cpu,
		mallocs: m.Mallocs - w.mem.Mallocs,
		bytes:   m.TotalAlloc - w.mem.TotalAlloc,
		numGC:   m.NumGC - w.mem.NumGC,
	}
}

// add sums two windows (a workload with two timed phases).
func (d procDelta) add(o procDelta) procDelta {
	return procDelta{d.cpu + o.cpu, d.mallocs + o.mallocs, d.bytes + o.bytes, d.numGC + o.numGC}
}

// setProcMetrics fills the per-request process metrics for n completed
// requests over d.
func setProcMetrics(o *outcome, d procDelta, n int64) {
	fn := float64(n)
	o.e2e["cpu_us_per_req"] = ratio(float64(d.cpu.Microseconds()), fn)
	o.layer["proc.allocs_per_req"] = ratio(float64(d.mallocs), fn)
	o.layer["proc.alloc_bytes_per_req"] = ratio(float64(d.bytes), fn)
	o.layer["proc.gc_per_kreq"] = ratio(1000*float64(d.numGC), fn)
}

// heapSampler tracks the highest live heap (as of each completed GC
// cycle) while a workload's timed phases run. Starting it forces a GC so
// earlier phases' garbage — set-up, another pass — is not counted.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

// liveHeap reads the live heap as of the last completed GC cycle.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func (h *heapSampler) sample() {
	v := liveHeap()
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// stopMB stops sampling and returns the peak in MB (2^20 bytes).
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	<-h.done
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// liveHeapAfterGC forces a collection and returns the live heap in MB
// (2^20 bytes): what the process retains, without floating garbage.
func liveHeapAfterGC() float64 {
	runtime.GC()
	return float64(liveHeap()) / (1 << 20)
}

// gitCommit reads the checked-out commit from .git without running git;
// "none" outside a git checkout (the source digest identifies the code
// there).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "none"
}

// sourceDigest hashes every go.mod and .go file under root (path and
// content, in walk order), skipping the build output and git metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (n == ".git" || n == ".bench_build") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); n != "go.mod" && !strings.HasSuffix(n, ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(filepath.ToSlash(rel)))
		h.Write([]byte{0})
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unavailable: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}
