package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// The allocs gate pins the per-request heap cost of the warehouse-hit
// exec path on the binary wire. It reuses the throughput harness — both
// client and server sides of the wire run in this process, so the
// whole-process malloc delta per request bounds the full path: decode,
// dedup lookup, dispatch, execute, encode. Two fences hold the line:
// an absolute ceiling (the end-to-end request must stay double-digit
// allocations), and a relative one against the checked-in baseline so
// the number cannot creep upward inside the ceiling unnoticed.
const (
	// allocsAbsoluteCap is the hard ceiling on allocs/op for a
	// warehouse-hit request over the binary wire.
	allocsAbsoluteCap = 100
	// allocsSlackFactor/allocsSlackFlat define the regression fence:
	// measured ≤ baseline×factor + flat. The flat grace absorbs
	// scheduler-dependent noise (goroutine stacks, timer churn) that
	// dominates when the baseline itself is small.
	allocsSlackFactor = 1.15
	allocsSlackFlat   = 8
	// allocsRequests per device: enough measured requests that one-time
	// window costs (pool warm-up, map growth, timer churn) amortize away
	// and the figure reflects the steady-state per-request cost.
	allocsRequests = tpRequests
)

// runAllocsGate measures the single-connection cells and fails
// if any exceeds the absolute ceiling or regresses past the slack fence
// relative to the matching cell of the baseline report.
func runAllocsGate(baseline string) error {
	baseBy := make(map[tpKey]tpCell)
	if baseline != "" {
		buf, err := os.ReadFile(baseline)
		if err != nil {
			return fmt.Errorf("reading baseline: %w", err)
		}
		var base tpReport
		if err := json.Unmarshal(buf, &base); err != nil {
			return fmt.Errorf("parsing baseline %s: %w", baseline, err)
		}
		for _, c := range base.Cells {
			baseBy[cellKey(c)] = c
		}
	}

	var failures []string
	for _, c := range tpShortCells {
		cell, err := measureThroughputCell(c[0], c[1], allocsRequests)
		if err != nil {
			return fmt.Errorf("cell %dx%d: %w", c[0], c[1], err)
		}
		verdict := "ok"
		if cell.AllocsPerOp >= allocsAbsoluteCap {
			verdict = "FAIL"
			failures = append(failures, fmt.Sprintf(
				"cell %dx%d: %d allocs/op breaches the absolute ceiling of %d",
				cell.Devices, cell.Depth, cell.AllocsPerOp, allocsAbsoluteCap))
		}
		if b, ok := baseBy[cellKey(cell)]; ok {
			limit := int64(float64(b.AllocsPerOp)*allocsSlackFactor) + allocsSlackFlat
			if cell.AllocsPerOp > limit {
				verdict = "FAIL"
				failures = append(failures, fmt.Sprintf(
					"cell %dx%d: %d allocs/op regressed past baseline %d (limit %d = %d×%.2f+%d)",
					cell.Devices, cell.Depth, cell.AllocsPerOp, b.AllocsPerOp,
					limit, b.AllocsPerOp, allocsSlackFactor, allocsSlackFlat))
			}
		}
		fmt.Printf("allocs %d dev x depth %d: %d allocs/op (ceiling %d) — %s\n",
			cell.Devices, cell.Depth, cell.AllocsPerOp, allocsAbsoluteCap, verdict)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "rattrap-bench: allocs: %s\n", f)
		}
		return fmt.Errorf("%d alloc gate failure(s)", len(failures))
	}
	return nil
}
