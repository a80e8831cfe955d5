package lstm

import (
	"testing"

	"etalstm/internal/obs"
	"etalstm/internal/rng"
	"etalstm/internal/tensor"
)

// TestWarmCellLoopAllocs pins the workspace promise at the kernel level:
// once the free lists are warm, a full FW+BP cell cycle (both the
// baseline raw-cache flow and the MS1 reordered P1 flow) performs zero
// heap allocations. Geometry is kept below the tensor parallel-dispatch
// threshold and kernel workers are pinned to 1 so goroutine spawning
// cannot leak into the measurement.
func TestWarmCellLoopAllocs(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)

	const input, hidden, batch = 16, 16, 4
	r := rng.New(31)
	p := newParams(input, hidden)
	p.Init(r)
	x := tensor.New(batch, input)
	h0 := tensor.New(batch, hidden)
	s0 := tensor.New(batch, hidden)
	x.RandInit(r, 1)
	h0.RandInit(r, 0.5)
	s0.RandInit(r, 0.5)
	dy := tensor.New(batch, hidden)
	dy.RandInit(r, 1)
	grads := NewGrads(p)
	ws := tensor.NewWorkspace()

	rawCycle := func() {
		h, _, cache := Forward(ws, p, x, h0, s0)
		out := Backward(ws, p, grads, cache, BPInput{DY: dy})
		ws.PutAll(h, out.DX, out.DHPrev, out.DSPrev)
		cache.Release(ws)
	}
	p1Cycle := func() {
		h, s, p1 := ForwardWithP1(ws, p, x, h0, s0)
		out := BackwardFromP1(ws, p, grads, x, h0, p1, BPInput{DY: dy})
		ws.PutAll(h, s, out.DX, out.DHPrev, out.DSPrev)
		p1.Release(ws)
	}

	// Warm the free lists, then demand a zero-allocation steady state —
	// first on the default path (recorder off: span Begin/End must not
	// even read the clock), then with phase recording enabled (the
	// recorder writes into fixed arrays, so it must stay alloc-free too).
	rawCycle()
	p1Cycle()
	if avg := testing.AllocsPerRun(50, rawCycle); avg > 0 {
		t.Errorf("warm raw FW+BP cycle (recorder off) allocates %.2f times, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, p1Cycle); avg > 0 {
		t.Errorf("warm P1 FW+BP cycle (recorder off) allocates %.2f times, want 0", avg)
	}

	ws.SetRecorder(obs.NewRecorder())
	defer ws.SetRecorder(nil)
	rawCycle()
	p1Cycle()
	if avg := testing.AllocsPerRun(50, rawCycle); avg > 0 {
		t.Errorf("warm raw FW+BP cycle (recorder on) allocates %.2f times, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, p1Cycle); avg > 0 {
		t.Errorf("warm P1 FW+BP cycle (recorder on) allocates %.2f times, want 0", avg)
	}
	if n := ws.Recorder().Snapshot().N; n[obs.PhaseFW] == 0 || n[obs.PhaseBPMatMul] == 0 {
		t.Error("recorder-on cycles recorded no spans — instrumentation is disconnected")
	}
}

// BenchmarkWarmCellCycle is the paired overhead benchmark for phase
// spans: the same warm FW+BP cycle with the recorder off and on. The
// off/on delta bounds the telemetry cost of the hot path; the design
// budget is <5% (two monotonic clock reads per instrumented phase
// against a full cell FW+BP), checked by comparing the pairs, e.g.
//
//	go test -bench WarmCellCycle -count 10 ./internal/lstm | benchstat -
func BenchmarkWarmCellCycle(b *testing.B) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)

	const input, hidden, batch = 16, 16, 4
	r := rng.New(31)
	p := newParams(input, hidden)
	p.Init(r)
	x := tensor.New(batch, input)
	h0 := tensor.New(batch, hidden)
	s0 := tensor.New(batch, hidden)
	x.RandInit(r, 1)
	h0.RandInit(r, 0.5)
	s0.RandInit(r, 0.5)
	dy := tensor.New(batch, hidden)
	dy.RandInit(r, 1)
	grads := NewGrads(p)
	ws := tensor.NewWorkspace()

	cycle := func() {
		h, _, cache := Forward(ws, p, x, h0, s0)
		out := Backward(ws, p, grads, cache, BPInput{DY: dy})
		ws.PutAll(h, out.DX, out.DHPrev, out.DSPrev)
		cache.Release(ws)
	}
	for _, bc := range []struct {
		name string
		rec  *obs.Recorder
	}{
		{"recorder-off", nil},
		{"recorder-on", obs.NewRecorder()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ws.SetRecorder(bc.rec)
			defer ws.SetRecorder(nil)
			cycle() // warm the free lists outside the timed region
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
	}
}
