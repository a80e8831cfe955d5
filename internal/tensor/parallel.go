package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers bounds the goroutines a single kernel may fan out to.
// Defaults to GOMAXPROCS; SetWorkers overrides (1 forces serial
// execution, useful for deterministic profiling).
var maxWorkers int64

func init() { maxWorkers = int64(runtime.GOMAXPROCS(0)) }

// SetWorkers sets the kernel parallelism (clamped to ≥ 1) and returns
// the previous value.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(atomic.SwapInt64(&maxWorkers, int64(n)))
}

// Workers returns the current kernel parallelism.
func Workers() int { return int(atomic.LoadInt64(&maxWorkers)) }

// parallelThreshold is the minimum multiply-accumulate count before a
// kernel fans out; below it goroutine overhead dominates.
const parallelThreshold = 1 << 16

// SerialWork reports whether work of flops multiply-accumulates should
// stay on one goroutine: kernel parallelism is off, or the work is below
// the fan-out threshold. Callers that split work across goroutines
// themselves (model's layer wavefront) use the same rule the kernels do.
func SerialWork(flops int64) bool {
	return Workers() <= 1 || flops < parallelThreshold
}

// serialRows reports whether a rows×flops kernel should run serially.
// Callers branch on it BEFORE building the closure for parallelRows, so
// the (heap-allocated, because of the go statement) closure only exists
// on the fan-out path and small kernels stay allocation-free.
func serialRows(rows int, flops int64) bool {
	return SerialWork(flops) || rows < 2
}

// parallelRows splits [0, rows) across workers and runs fn on each
// span. Callers must have ruled out the serial case via serialRows.
func parallelRows(rows int, fn func(lo, hi int)) {
	workers := Workers()
	if workers <= 1 || rows < 2 {
		fn(0, rows)
		return
	}
	if workers > rows {
		workers = rows
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
