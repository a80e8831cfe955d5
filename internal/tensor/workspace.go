package tensor

import (
	"math/bits"

	"etalstm/internal/obs"
)

// Workspace is an allocation arena for the FW/BP hot path: a set of
// size-bucketed free lists that recycle Matrix buffers (and, through
// the opaque object slots, the small cache headers the lstm package
// wraps around them). The training loops re-allocate the same few
// scratch shapes per cell per timestep per minibatch; routing those
// through a workspace turns steady-state training into near-zero
// allocation, the Go-runtime analogue of the intermediate-variable DRAM
// pressure the paper attacks.
//
// Contract:
//
//   - Get returns a zeroed rows×cols matrix, so a recycled buffer is
//     indistinguishable from a fresh tensor.New — callers that relied
//     on zero initialization stay bitwise identical.
//   - Put hands a buffer back for reuse. The caller must guarantee no
//     live reference remains; a double Put (or a Put of a buffer that
//     is still reachable) silently aliases two future Gets onto the
//     same storage. Ownership rules for the training stack are spelled
//     out in DESIGN.md ("The workspace layer").
//   - Put accepts foreign matrices (built by New) as well as
//     workspace-born ones, and losing a buffer is always safe: an
//     un-Put matrix is simply garbage collected.
//   - A nil *Workspace is valid everywhere: Get degrades to New, Put
//     and the object slots to no-ops. Kernels therefore accept a nil
//     workspace from callers that do not manage lifetimes.
//
// A Workspace is confined to one goroutine at a time — one per serial
// trainer, one per data-parallel replica worker. It is NOT safe for
// concurrent use; the goroutines a tensor kernel fans out to never
// touch the workspace.
type Workspace struct {
	// free buckets recycled matrices by the power-of-two floor of
	// cap(Data), so every list member can back any request that rounds
	// up into the bucket.
	free map[int][]*Matrix
	// objs recycles small pointer-shaped headers (lstm's FWCache/P1)
	// keyed by a caller-chosen slot. Pointers stored in an interface do
	// not allocate, keeping GetObj/PutObj on the zero-alloc path.
	objs map[uint8][]any

	// rec, when set, receives the phase spans of every kernel running
	// on this workspace. The workspace is the natural vehicle: it is
	// already threaded through the whole FW/BP hot path and confined to
	// one goroutine, exactly the confinement obs.Recorder requires. nil
	// (the default) disables span recording at a pointer test per phase
	// boundary.
	rec *obs.Recorder

	// stages are helper arenas for work the owner splits across
	// goroutines (model's layer wavefront runs each layer on its own).
	// Each is confined to the one goroutine its work runs on; they carry
	// no recorder, and the owner's Stats, Retained and Reset cover them.
	stages []*Workspace

	stats WorkspaceStats
}

// WorkspaceStats counts workspace traffic, for tests and profiling.
type WorkspaceStats struct {
	Gets   int64 // matrices handed out
	Hits   int64 // Gets served from a free list
	Puts   int64 // matrices handed back
	Misses int64 // Gets that had to allocate
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{
		free: make(map[int][]*Matrix),
		objs: make(map[uint8][]any),
	}
}

// bucketFor is the power-of-two ceiling of n — the bucket a request for
// n elements is served from.
func bucketFor(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// bucketOf is the power-of-two floor of a buffer's capacity — the
// bucket whose every member has cap >= bucket, so Get's round-up lookup
// always finds a large-enough buffer.
func bucketOf(c int) int {
	if c <= 1 {
		return 1
	}
	return 1 << (bits.Len(uint(c)) - 1)
}

// Get returns a zeroed rows×cols matrix, recycling a free buffer when
// one of sufficient capacity is available. On a nil workspace it is
// exactly New.
func (w *Workspace) Get(rows, cols int) *Matrix {
	if w == nil {
		return New(rows, cols)
	}
	n := rows * cols
	w.stats.Gets++
	b := bucketFor(n)
	if list := w.free[b]; len(list) > 0 {
		m := list[len(list)-1]
		w.free[b] = list[:len(list)-1]
		w.stats.Hits++
		m.Rows, m.Cols = rows, cols
		m.Data = m.Data[:n]
		m.Zero()
		return m
	}
	w.stats.Misses++
	// Allocate at full bucket capacity so the buffer rounds back into
	// the same bucket on Put regardless of the shape it served.
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, n, b)}
}

// Put returns m's storage to the workspace. m must have no other live
// references. nil workspace and nil matrix are no-ops.
func (w *Workspace) Put(m *Matrix) {
	if w == nil || m == nil || cap(m.Data) == 0 {
		return
	}
	w.stats.Puts++
	b := bucketOf(cap(m.Data))
	w.free[b] = append(w.free[b], m)
}

// PutAll returns every non-nil matrix in ms to the workspace.
func (w *Workspace) PutAll(ms ...*Matrix) {
	for _, m := range ms {
		w.Put(m)
	}
}

// GetObj pops a recycled header from slot, or returns nil when the slot
// is empty (the caller then allocates). Headers are opaque to the
// workspace; each slot must only ever hold one concrete type.
func (w *Workspace) GetObj(slot uint8) any {
	if w == nil {
		return nil
	}
	list := w.objs[slot]
	if len(list) == 0 {
		return nil
	}
	v := list[len(list)-1]
	list[len(list)-1] = nil
	w.objs[slot] = list[:len(list)-1]
	return v
}

// PutObj recycles a header into slot. The caller must clear the
// header's fields first; the workspace does not inspect it.
func (w *Workspace) PutObj(slot uint8, v any) {
	if w == nil || v == nil {
		return
	}
	w.objs[slot] = append(w.objs[slot], v)
}

// SetRecorder attaches (or, with nil, detaches) a phase-span recorder.
// The recorder inherits the workspace's goroutine confinement. No-op on
// a nil workspace.
func (w *Workspace) SetRecorder(r *obs.Recorder) {
	if w == nil {
		return
	}
	w.rec = r
}

// Recorder returns the attached span recorder (nil when recording is
// off or the workspace is nil). Kernels call it once per pass and open
// spans through the nil-safe obs.Recorder.Begin.
func (w *Workspace) Recorder() *obs.Recorder {
	if w == nil {
		return nil
	}
	return w.rec
}

// Stage returns helper arena i of w, creating it (and any below it) on
// first use; nil on a nil workspace. Call it on w's goroutine before
// handing the arena to the goroutine that will use it: from then until
// that goroutine is joined, the stage belongs to it alone.
func (w *Workspace) Stage(i int) *Workspace {
	if w == nil {
		return nil
	}
	for len(w.stages) <= i {
		w.stages = append(w.stages, NewWorkspace())
	}
	return w.stages[i]
}

// Stats returns a snapshot of the traffic counters of the workspace and
// its stage arenas.
func (w *Workspace) Stats() WorkspaceStats {
	if w == nil {
		return WorkspaceStats{}
	}
	st := w.stats
	for _, s := range w.stages {
		st.Gets += s.stats.Gets
		st.Hits += s.stats.Hits
		st.Puts += s.stats.Puts
		st.Misses += s.stats.Misses
	}
	return st
}

// Retained returns the number of matrices currently sitting in the free
// lists of the workspace and its stage arenas, and their total element
// capacity — the arena's resident size.
func (w *Workspace) Retained() (buffers int, elements int64) {
	if w == nil {
		return 0, 0
	}
	for _, list := range w.free {
		buffers += len(list)
		for _, m := range list {
			elements += int64(cap(m.Data))
		}
	}
	for _, s := range w.stages {
		b, e := s.Retained()
		buffers, elements = buffers+b, elements+e
	}
	return buffers, elements
}

// Reset drops every free list of the workspace and its stage arenas,
// releasing the retained storage to the garbage collector. Outstanding
// buffers are unaffected.
func (w *Workspace) Reset() {
	if w == nil {
		return
	}
	w.free = make(map[int][]*Matrix)
	w.objs = make(map[uint8][]any)
	for _, s := range w.stages {
		s.Reset()
	}
}
