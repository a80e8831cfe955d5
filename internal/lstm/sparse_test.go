package lstm

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"etalstm/internal/obs"
	"etalstm/internal/rng"
	"etalstm/internal/tensor"
)

// sparseCell bundles one randomly initialized cell plus inputs for the
// sparse-vs-dense comparisons.
type sparseCell struct {
	p          *Params
	x, h0, s0  *tensor.Matrix
	dy, dh, ds *tensor.Matrix
}

func newSparseCell(seed uint64, input, hidden, batch int) *sparseCell {
	r := rng.New(seed)
	c := &sparseCell{p: newParams(input, hidden)}
	c.p.Init(r)
	c.x = tensor.New(batch, input)
	c.h0 = tensor.New(batch, hidden)
	c.s0 = tensor.New(batch, hidden)
	c.dy = tensor.New(batch, hidden)
	c.dh = tensor.New(batch, hidden)
	c.ds = tensor.New(batch, hidden)
	c.x.RandInit(r, 1)
	c.h0.RandInit(r, 0.5)
	c.s0.RandInit(r, 0.5)
	c.dy.RandInit(r, 1)
	c.dh.RandInit(r, 0.5)
	c.ds.RandInit(r, 0.5)
	return c
}

// pruneP1 zeroes |v| < th in place (the MS1 approximation) and returns
// the pruned fraction.
func pruneP1(p1 *P1, th float32) float64 {
	var total, pruned int
	for _, m := range p1.Matrices() {
		for i, v := range m.Data {
			total++
			if v < th && v > -th {
				if v != 0 {
					m.Data[i] = 0
				}
				pruned++
			}
		}
	}
	return float64(pruned) / float64(total)
}

// requireBitwise fails unless a and b are bitwise identical up to the
// sign of exact zeros (ULP distance 0, matching the check harness's
// strictest tolerance).
func requireBitwise(t *testing.T, label string, a, b *tensor.Matrix) {
	t.Helper()
	if d := maxULPDiff(a, b); d != 0 {
		t.Errorf("%s: max ULP distance %d, want bitwise", label, d)
	}
}

func requireGradsBitwise(t *testing.T, a, b *Grads) {
	t.Helper()
	for g := Gate(0); g < NumGates; g++ {
		requireBitwise(t, "δW["+g.String()+"]", a.W[g], b.W[g])
		requireBitwise(t, "δU["+g.String()+"]", a.U[g], b.U[g])
		for j := range a.B[g] {
			if tensor.ULPDiff32(a.B[g][j], b.B[g][j]) != 0 {
				t.Errorf("δB[%s][%d]: %v vs %v", g, j, a.B[g][j], b.B[g][j])
			}
		}
	}
}

// runBoth runs the dense and sparse BP kernels on the same (possibly
// pruned) P1 set and asserts every output bitwise identical.
func runBoth(t *testing.T, c *sparseCell, th float32, topK int, in BPInput) {
	t.Helper()
	ws := tensor.NewWorkspace()
	h, s, p1 := ForwardWithP1(ws, c.p, c.x, c.h0, c.s0)
	if th > 0 {
		pruneP1(p1, th)
	}
	dGrads := NewGrads(c.p)
	sGrads := NewGrads(c.p)
	dOut := BackwardFromP1(ws, c.p, dGrads, c.x, c.h0, p1, in)
	sOut := BackwardFromP1Sparse(ws, c.p, sGrads, c.x, c.h0, p1, in, topK)
	requireBitwise(t, "δX", dOut.DX, sOut.DX)
	requireBitwise(t, "δH_{t-1}", dOut.DHPrev, sOut.DHPrev)
	requireBitwise(t, "δS_{t-1}", dOut.DSPrev, sOut.DSPrev)
	requireGradsBitwise(t, dGrads, sGrads)
	ws.PutAll(h, s, dOut.DX, dOut.DHPrev, dOut.DSPrev, sOut.DX, sOut.DHPrev, sOut.DSPrev)
	p1.Release(ws)
}

// The sparse kernels must be bitwise identical to the dense P1 path on
// an unpruned set (threshold 0: nothing skipped except exact zeros)
// and on sets pruned at every threshold the harness sweeps — the
// skipped terms are exact zeros in the dense kernel either way.
func TestSparseBackwardBitwise(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	c := newSparseCell(11, 12, 20, 5)
	full := BPInput{DY: c.dy, DH: c.dh, DS: c.ds}
	for _, th := range []float32{0, 0.05, 0.1, 0.3, 0.9} {
		runBoth(t, c, th, 0, full)
	}
	// Boundary BPInput shapes: last timestamp (no DH/DS), inner layers
	// (no DY).
	runBoth(t, c, 0.1, 0, BPInput{DY: c.dy})
	runBoth(t, c, 0.1, 0, BPInput{DH: c.dh, DS: c.ds})
}

// Parallel kernel dispatch must not change the sparse path's results
// (the sparse kernels are serial per cell; the dense comparison baseline
// may shard rows — results are identical either way).
func TestSparseBackwardBitwiseParallelWorkers(t *testing.T) {
	prev := tensor.SetWorkers(4)
	defer tensor.SetWorkers(prev)
	c := newSparseCell(13, 24, 48, 8)
	runBoth(t, c, 0.1, 0, BPInput{DY: c.dy, DH: c.dh, DS: c.ds})
}

// k = rowlen (and anything ≥ hidden) makes the top-k weight-gradient
// sparsifier the identity, bitwise.
func TestSparseTopKRowLenIdentity(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	c := newSparseCell(17, 10, 16, 4)
	for _, th := range []float32{0, 0.1} {
		runBoth(t, c, th, 16, BPInput{DY: c.dy, DH: c.dh, DS: c.ds}) // k == hidden
		runBoth(t, c, th, 999, BPInput{DY: c.dy, DH: c.dh, DS: c.ds})
	}
}

// With 0 < k < rowlen the weight gradients diverge from dense (that is
// the approximation), but the propagated gradients must stay bitwise —
// top-k only applies to the weight-gradient side.
func TestSparseTopKPropagatedGradientsExact(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	c := newSparseCell(19, 12, 20, 5)
	ws := tensor.NewWorkspace()
	h, s, p1 := ForwardWithP1(ws, c.p, c.x, c.h0, c.s0)
	pruneP1(p1, 0.05)
	in := BPInput{DY: c.dy, DH: c.dh, DS: c.ds}
	dGrads, sGrads := NewGrads(c.p), NewGrads(c.p)
	dOut := BackwardFromP1(ws, c.p, dGrads, c.x, c.h0, p1, in)
	sOut := BackwardFromP1Sparse(ws, c.p, sGrads, c.x, c.h0, p1, in, 4)
	requireBitwise(t, "δX", dOut.DX, sOut.DX)
	requireBitwise(t, "δH_{t-1}", dOut.DHPrev, sOut.DHPrev)
	requireBitwise(t, "δS_{t-1}", dOut.DSPrev, sOut.DSPrev)
	// And the weight gradients must actually differ — k=4 of 20 columns
	// drops real mass; if they match, the sparsifier silently never ran.
	diff := false
	for g := Gate(0); g < NumGates && !diff; g++ {
		diff = maxULPDiff(dGrads.W[g], sGrads.W[g]) != 0
	}
	if !diff {
		t.Error("top-k with k << rowlen left every weight gradient identical — the sparsifier is disconnected")
	}
	ws.PutAll(h, s, dOut.DX, dOut.DHPrev, dOut.DSPrev, sOut.DX, sOut.DHPrev, sOut.DSPrev)
	p1.Release(ws)
}

// The kernels must degrade gracefully without a workspace (every Get
// becomes a plain allocation).
func TestSparseBackwardNilWorkspace(t *testing.T) {
	c := newSparseCell(23, 8, 12, 3)
	h, s, p1 := ForwardWithP1(nil, c.p, c.x, c.h0, c.s0)
	pruneP1(p1, 0.1)
	grads := NewGrads(c.p)
	out := BackwardFromP1Sparse(nil, c.p, grads, c.x, c.h0, p1, BPInput{DY: c.dy}, 3)
	if out.DX == nil || out.DHPrev == nil || out.DSPrev == nil {
		t.Fatal("nil-workspace sparse backward returned nil gradients")
	}
	_ = h
	_ = s
}

// TopKFilter properties: identity at k ≥ len (same slice, not a copy),
// the kept set is exactly the k largest magnitudes (validated against a
// sort-based reference), ascending index order, and deterministic
// lowest-index tie-breaking.
func TestTopKFilterProperties(t *testing.T) {
	sel := &TopKSelector{}
	r := rng.New(29)
	for trial := 0; trial < 200; trial++ {
		n := 1 + int(r.Uint64()%24)
		row := make([]float32, 64)
		idx := make([]int32, 0, n)
		for len(idx) < n {
			j := int32(r.Uint64() % 64)
			dup := false
			for _, e := range idx {
				if e == j {
					dup = true
				}
			}
			if !dup {
				idx = append(idx, j)
			}
		}
		sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
		for _, j := range idx {
			// Quantized values force plenty of |v| ties.
			row[j] = float32(int64(r.Uniform(-3, 3))) / 2
		}
		k := int(r.Uint64() % uint64(n+2))

		got := sel.Filter(idx, row, k)
		if k <= 0 || k >= n {
			if len(got) != n {
				t.Fatalf("k=%d of %d: expected identity, got %d entries", k, n, len(got))
			}
			continue
		}
		if len(got) != k {
			t.Fatalf("k=%d of %d: kept %d", k, n, len(got))
		}
		// Reference: stable sort by (|v| desc, index asc); keep first k.
		ref := append([]int32(nil), idx...)
		abs := func(j int32) float64 { return math.Abs(float64(row[j])) }
		sort.SliceStable(ref, func(a, b int) bool {
			if abs(ref[a]) != abs(ref[b]) {
				return abs(ref[a]) > abs(ref[b])
			}
			return ref[a] < ref[b]
		})
		want := append([]int32(nil), ref[:k]...)
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d of %d: kept %v, want %v (row %v idx %v)", k, n, got, want, row, idx)
			}
		}
		// Re-running the same selection must be deterministic.
		again := append([]int32(nil), sel.Filter(idx, row, k)...)
		for i := range again {
			if got[i] != again[i] {
				t.Fatal("Filter is nondeterministic across calls")
			}
		}
	}
}

// The warm sparse BP cell loop — encode + sparse BP-EW-P2 + sparse
// BP-MatMul, with and without top-k — must allocate nothing, recorder
// off or on (the PR 2 convention TestWarmCellLoopAllocs set).
func TestWarmSparseCellLoopAllocs(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)

	c := newSparseCell(31, 16, 16, 4)
	grads := NewGrads(c.p)
	ws := tensor.NewWorkspace()

	cycle := func(topK int) func() {
		return func() {
			h, s, p1 := ForwardWithP1(ws, c.p, c.x, c.h0, c.s0)
			pruneP1(p1, 0.1)
			out := BackwardFromP1Sparse(ws, c.p, grads, c.x, c.h0, p1, BPInput{DY: c.dy, DS: c.ds}, topK)
			ws.PutAll(h, s, out.DX, out.DHPrev, out.DSPrev)
			p1.Release(ws)
		}
	}
	plain, topk := cycle(0), cycle(8)

	plain()
	topk()
	if avg := testing.AllocsPerRun(50, plain); avg > 0 {
		t.Errorf("warm sparse BP cycle (recorder off) allocates %.2f times, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, topk); avg > 0 {
		t.Errorf("warm sparse+topk BP cycle (recorder off) allocates %.2f times, want 0", avg)
	}

	ws.SetRecorder(obs.NewRecorder())
	defer ws.SetRecorder(nil)
	plain()
	topk()
	if avg := testing.AllocsPerRun(50, plain); avg > 0 {
		t.Errorf("warm sparse BP cycle (recorder on) allocates %.2f times, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, topk); avg > 0 {
		t.Errorf("warm sparse+topk BP cycle (recorder on) allocates %.2f times, want 0", avg)
	}
	if n := ws.Recorder().Snapshot().N; n[obs.PhaseBPEWP1] == 0 || n[obs.PhaseBPEWP2] == 0 || n[obs.PhaseBPMatMul] == 0 {
		t.Error("sparse cycles recorded no spans — instrumentation is disconnected")
	}
}

// phaseTotal sums the recorded wall time of the named phases.
func phaseTotal(rec *obs.Recorder, names ...string) time.Duration {
	var tot time.Duration
	for _, st := range rec.Breakdown() {
		for _, n := range names {
			if st.Phase == n {
				tot += st.Total
			}
		}
	}
	return tot
}

// The acceptance criterion behind the -sparse flag: at the default MS1
// threshold, the sparse kernels' BP-EW-P2 + BP-MatMul span time must
// drop by at least half the measured prune ratio versus the dense P1
// kernels on the same pruned sets. Timing-based, so it retries a few
// times before declaring failure.
func TestSparseBackwardPhaseSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)

	const input, hidden, batch, iters = 96, 160, 32, 12
	c := newSparseCell(37, input, hidden, batch)
	in := BPInput{DY: c.dy, DH: c.dh, DS: c.ds}
	grads := NewGrads(c.p)
	ws := tensor.NewWorkspace()

	run := func(sparse bool) (time.Duration, float64) {
		rec := obs.NewRecorder()
		ws.SetRecorder(rec)
		defer ws.SetRecorder(nil)
		var prune float64
		for it := 0; it < iters; it++ {
			h, s, p1 := ForwardWithP1(ws, c.p, c.x, c.h0, c.s0)
			prune = pruneP1(p1, 0.1)
			var out BPOutput
			if sparse {
				out = BackwardFromP1Sparse(ws, c.p, grads, c.x, c.h0, p1, in, 0)
			} else {
				out = BackwardFromP1(ws, c.p, grads, c.x, c.h0, p1, in)
			}
			ws.PutAll(h, s, out.DX, out.DHPrev, out.DSPrev)
			p1.Release(ws)
		}
		return phaseTotal(rec, obs.PhaseBPEWP2.String(), obs.PhaseBPMatMul.String()), prune
	}

	var lastMsg string
	for attempt := 0; attempt < 3; attempt++ {
		run(false) // warm both paths before measuring
		run(true)
		dense, prune := run(false)
		sparseT, _ := run(true)
		if prune < 0.3 {
			t.Fatalf("prune ratio %.2f too low for the speedup contract to be meaningful", prune)
		}
		limit := time.Duration(float64(dense) * (1 - 0.5*prune))
		if sparseT <= limit {
			return
		}
		lastMsg = fmt.Sprintf("%v > %v (dense %v, prune ratio %.2f)", sparseT, limit, dense, prune)
	}
	t.Errorf("sparse BP-EW-P2+BP-MatMul span time did not drop by ≥ 0.5×prune ratio: %s", lastMsg)
}

// BenchmarkWarmSparseCellCycle is the sparse counterpart of
// BenchmarkWarmCellCycle: the warm reordered FW + pruned sparse BP
// cycle, reporting allocs (which must be 0 in the steady state).
func BenchmarkWarmSparseCellCycle(b *testing.B) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)

	c := newSparseCell(31, 16, 16, 4)
	grads := NewGrads(c.p)
	ws := tensor.NewWorkspace()
	for _, bc := range []struct {
		name string
		topK int
	}{
		{"sparse", 0},
		{"sparse-topk8", 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cycle := func() {
				h, s, p1 := ForwardWithP1(ws, c.p, c.x, c.h0, c.s0)
				pruneP1(p1, 0.1)
				out := BackwardFromP1Sparse(ws, c.p, grads, c.x, c.h0, p1, BPInput{DY: c.dy, DS: c.ds}, bc.topK)
				ws.PutAll(h, s, out.DX, out.DHPrev, out.DSPrev)
				p1.Release(ws)
			}
			cycle() // warm the free lists outside the timed region
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
	}
}

// maxULPDiff returns the largest per-element ULP distance between
// same-shaped a and b.
func maxULPDiff(a, b *tensor.Matrix) int64 {
	var mx int64
	for i, v := range a.Data {
		mx = max(mx, tensor.ULPDiff32(v, b.Data[i]))
	}
	return mx
}
