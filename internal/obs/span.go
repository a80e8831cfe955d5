package obs

import (
	"fmt"
	"strings"
	"time"
)

// Phase identifies one stage of a training step, following the paper's
// execution-order diagram (Fig. 2 / Sec. IV-A): the FW pass, the two
// halves of the reordered BP element-wise stage, the BP matrix
// multiplies, and the step-level stages around them.
type Phase uint8

const (
	// PhaseFW covers FW-MatMul + FW-EW (one forward cell), plus the
	// output projection.
	PhaseFW Phase = iota
	// PhaseBPEWP1 is the gradient-independent half of BP-EW — under MS1
	// it runs inside the FW pass (execution reordering), which is
	// exactly what the span placement shows.
	PhaseBPEWP1
	// PhaseBPEWP2 is the gradient-dependent half of BP-EW (the whole
	// BP-EW stage in the unreordered baseline flow).
	PhaseBPEWP2
	// PhaseBPMatMul covers Eq. 2/Eq. 3: propagated gradients and weight
	// gradient accumulation.
	PhaseBPMatMul
	// PhaseRecomputeFW is the checkpointed-BPTT segment replay: the FW
	// cells re-executed during BP to regenerate the intermediates that a
	// memory budget kept us from storing. It is extra work the
	// full-storage flow never does, so it gets its own row rather than
	// inflating PhaseFW.
	PhaseRecomputeFW
	// PhaseAllReduce is the data-parallel gradient merge (tree reduce).
	PhaseAllReduce
	// PhaseOptimizer is the reducer stage: averaging, clipping, and the
	// weight update.
	PhaseOptimizer

	// NumPhases bounds the phase enum.
	NumPhases
)

// String implements fmt.Stringer with the paper's stage names.
func (p Phase) String() string {
	switch p {
	case PhaseFW:
		return "FW"
	case PhaseBPEWP1:
		return "BP-EW-P1"
	case PhaseBPEWP2:
		return "BP-EW-P2"
	case PhaseBPMatMul:
		return "BP-MatMul"
	case PhaseRecomputeFW:
		return "recompute-FW"
	case PhaseAllReduce:
		return "all-reduce"
	case PhaseOptimizer:
		return "optimizer"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Recorder accumulates per-phase wall time and span counts in fixed
// storage — Begin/End never allocate, whether the recorder is present
// or nil. Like a tensor.Workspace, a Recorder is confined to one
// goroutine at a time (one per trainer replica, the master network's
// included); aggregation across goroutines happens by Add after the
// goroutines are joined, never concurrently.
//
// The disabled path is a nil *Recorder: Begin returns the zero Span
// without reading the clock, End returns immediately — a pointer test
// per phase boundary, which is what keeps the hot path's 0 allocs/op
// guarantee (and its latency) intact when telemetry is off.
type Recorder struct {
	ns [NumPhases]int64
	n  [NumPhases]int64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Span is an in-flight phase measurement. The zero Span (from a nil
// recorder) is valid and End on it is a no-op.
type Span struct {
	r     *Recorder
	phase Phase
	t0    time.Time
}

// Begin opens a span for phase p. On a nil recorder it is free: no
// clock read, no allocation.
func (r *Recorder) Begin(p Phase) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, phase: p, t0: time.Now()}
}

// End closes the span, folding its elapsed wall time into the recorder.
func (s Span) End() {
	if s.r == nil {
		return
	}
	s.r.ns[s.phase] += int64(time.Since(s.t0))
	s.r.n[s.phase]++
}

// Observe folds an externally measured duration into phase p (used
// where the caller already holds timestamps, e.g. the per-replica
// all-reduce wait).
func (r *Recorder) Observe(p Phase, d time.Duration) {
	if r == nil || d < 0 {
		return
	}
	r.ns[p] += int64(d)
	r.n[p]++
}

// Add merges another recorder's accumulated spans into r (replica
// recorders folding into the trainer's aggregate after an epoch).
func (r *Recorder) Add(o *Recorder) {
	if r == nil || o == nil {
		return
	}
	for p := Phase(0); p < NumPhases; p++ {
		r.ns[p] += o.ns[p]
		r.n[p] += o.n[p]
	}
}

// Reset zeroes the recorder.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	*r = Recorder{}
}

// PhaseSnapshot is a point-in-time copy of a recorder's accumulators.
// Two snapshots bracketing a sweep or an optimizer step Delta into the
// per-phase wall time of exactly that unit of work — which is how the
// tracing layer folds recorder phases into a span tree without adding
// any bookkeeping to the hot path.
type PhaseSnapshot struct {
	Ns [NumPhases]int64
	N  [NumPhases]int64
}

// Snapshot copies the accumulators (zero value on a nil recorder).
func (r *Recorder) Snapshot() PhaseSnapshot {
	if r == nil {
		return PhaseSnapshot{}
	}
	return PhaseSnapshot{Ns: r.ns, N: r.n}
}

// Delta returns s - prev per phase: the work recorded between the two
// snapshots.
func (s PhaseSnapshot) Delta(prev PhaseSnapshot) PhaseSnapshot {
	var d PhaseSnapshot
	for p := Phase(0); p < NumPhases; p++ {
		d.Ns[p] = s.Ns[p] - prev.Ns[p]
		d.N[p] = s.N[p] - prev.N[p]
	}
	return d
}

// PhaseStat is one row of a span breakdown.
type PhaseStat struct {
	Phase string
	Count int64
	Total time.Duration
}

// Breakdown returns the recorded phases in execution order, skipping
// phases that never ran.
func (r *Recorder) Breakdown() []PhaseStat {
	if r == nil {
		return nil
	}
	out := make([]PhaseStat, 0, NumPhases)
	for p := Phase(0); p < NumPhases; p++ {
		if r.n[p] == 0 {
			continue
		}
		out = append(out, PhaseStat{Phase: p.String(), Count: r.n[p], Total: time.Duration(r.ns[p])})
	}
	return out
}

// BreakdownTable renders phase stats as an aligned text table with each
// phase's share of the total recorded time — the etabench -phases
// output.
func BreakdownTable(rows []PhaseStat) string {
	var total time.Duration
	for _, r := range rows {
		total += r.Total
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %12s %7s\n", "phase", "spans", "total", "share")
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = 100 * float64(r.Total) / float64(total)
		}
		fmt.Fprintf(&b, "%-12s %10d %12s %6.1f%%\n",
			r.Phase, r.Count, r.Total.Round(time.Microsecond), share)
	}
	fmt.Fprintf(&b, "%-12s %10s %12s\n", "total", "", total.Round(time.Microsecond))
	return b.String()
}
