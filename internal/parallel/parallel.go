// Package parallel is the data-parallel training engine: it shards an
// epoch's minibatches across N replica workers, runs FW+BP concurrently
// on each replica, and merges the results through a deterministic tree
// all-reduce before a single optimizer step per group.
//
// Execution model. Batches are processed in groups of Workers: within a
// group, worker i runs the caller-supplied BatchFn on batch g*W+i using
// its own deep-copied model.Network replica (so no weight memory is
// shared during concurrent passes), then the W gradient sets are merged
// through a train.GradientSync transport — by default dist.Inproc, the
// deterministic pairwise tree all-reduce (dist.TreeReduce) — and handed to a
// train.Reducer for averaging/clipping/the optimizer step. Replicas are
// re-synchronized from the master network before the next group. A
// distributed sync (dist.Worker) extends the same group step across
// processes: the merged set then carries remote contributions too, and
// the reducer averages by the sync's reported contribution count.
//
// Determinism. The batch→worker assignment, the tree reduction order,
// and the order in which per-batch statistics (losses, prune counters,
// calibration magnitudes) are folded are all functions of the batch
// index alone, never of goroutine scheduling. A run with a fixed worker
// count is therefore reproducible bit-for-bit, and a run with
// Workers == 1 is exactly the serial trainer: one batch per group, an
// identity reduce, and the same fold order the serial loop uses.
//
// MS1/MS2 compose cleanly: the skip plan and storage policy are
// per-epoch read-only state shared by all replicas, MS1's prune
// statistics are Add-merged in batch order, and MS2's calibration
// magnitudes are summed in batch order — the same bookkeeping the
// serial η-LSTM trainer keeps, just gathered from replicas.
package parallel

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"etalstm/internal/dist"
	"etalstm/internal/model"
	"etalstm/internal/obs"
	"etalstm/internal/reorder"
	"etalstm/internal/rtrace"
	"etalstm/internal/train"
)

// BatchResult is what one replica produced from one minibatch. Grads is
// consumed by the all-reduce; the remaining fields are epoch statistics
// folded in batch order.
type BatchResult struct {
	// Grads is the batch's accumulated weight gradients (after any
	// per-replica editing such as MS2's convergence-aware scaling).
	Grads *model.Gradients
	// Loss is the batch's scalar training loss.
	Loss float64
	// Prune reports what MS1's near-zero pruning removed on this batch.
	Prune reorder.PruneStats
	// Observed carries optional per-cell gradient magnitudes
	// ([layer][t], summed over the batch) during MS2's epoch-0
	// calibration; nil otherwise.
	Observed [][]float64
	// PeakStored is the measured peak of stored activation bytes during
	// the batch's FW+BP; Recomputed counts the FW cells replayed during
	// BP (0 under full storage).
	PeakStored int64
	Recomputed int
}

// BatchFn runs FW+BP for one minibatch on the given network (a replica
// owned exclusively by the calling worker for the duration of the call)
// and returns the gradients plus statistics. index is the global batch
// index within the epoch. BatchFn must not mutate net's parameters.
type BatchFn func(net *model.Network, b train.Batch, index int) (BatchResult, error)

// EpochResult aggregates a full epoch, folded in batch order.
type EpochResult struct {
	Batches       int
	TotalLoss     float64
	Prune         reorder.PruneStats
	SkippedCells  int
	ExecutedCells int
	// Observed is the element-wise sum of every batch's Observed grid
	// (nil when no batch reported one).
	Observed [][]float64
	// PeakStored is the max over batches of the measured peak stored
	// bytes (each replica has its own arena, so the epoch's true peak is
	// the worst single batch); RecomputedCells sums the FW cells
	// replayed during BP across the epoch.
	PeakStored      int64
	RecomputedCells int
}

// Engine executes epochs data-parallel over a fixed replica set.
type Engine struct {
	master   *model.Network
	replicas []*model.Network
	reducer  train.Reducer

	// Rec, when non-nil, receives the coordinator-side phase spans (the
	// tree all-reduce and the optimizer step). It is used only from the
	// goroutine calling RunEpoch, matching obs.Recorder's confinement.
	Rec *obs.Recorder
	// OnStep, when non-nil, observes each optimizer step's wall time —
	// one step per batch group, measured from re-sync to weight update.
	OnStep func(d time.Duration)
	// OnWait, when non-nil, observes the per-replica straggler wait:
	// how long each finished worker sat idle before the group's last
	// worker finished and the all-reduce could begin. Every worker that
	// ran a batch in the group reports exactly once — including the
	// group's last finisher, which reports a zero duration — so each
	// group contributes a complete sample set.
	OnWait func(replica int, d time.Duration)
	// Sync is the gradient transport the engine merges each group
	// through (nil = dist.Inproc, the deterministic in-process tree
	// all-reduce). Distributed trainers plug a dist.Worker or
	// dist.Compressed in here; the reducer then averages by the
	// contribution count the sync reports, which may exceed the local
	// replica count when remote processes contribute.
	Sync train.GradientSync
}

// New builds an engine with `workers` replicas of net (clamped to >= 1).
// net stays the single source of truth for weights: the reducer's
// optimizer step mutates only net, and replicas are re-synced from it
// between batch groups.
func New(net *model.Network, workers int, reducer train.Reducer) *Engine {
	if workers < 1 {
		workers = 1
	}
	e := &Engine{master: net, reducer: reducer}
	for i := 0; i < workers; i++ {
		e.replicas = append(e.replicas, net.Clone())
	}
	return e
}

// Workers returns the engine's replica count.
func (e *Engine) Workers() int { return len(e.replicas) }

// Replicas exposes the engine's replica networks so the trainer can
// attach per-replica state (phase recorders on their workspaces, arena
// accounting). The slice is owned by the engine; replicas must only be
// touched between epochs, never while RunEpoch is in flight.
func (e *Engine) Replicas() []*model.Network { return e.replicas }

// RunEpoch shards p's batches into groups of Workers, runs fn on each
// group concurrently, tree-reduces the gradients and applies them
// through the reducer — one optimizer step per group. ctx is checked
// between batch groups and before each worker launch; on cancellation
// the epoch stops without applying the in-flight group and returns
// ctx.Err() alongside the statistics folded so far.
func (e *Engine) RunEpoch(ctx context.Context, p train.Provider, fn BatchFn) (EpochResult, error) {
	var res EpochResult
	w := len(e.replicas)
	n := p.NumBatches()
	rtr := rtrace.Default()
	repBefore := make([]obs.PhaseSnapshot, w)
	for lo := 0; lo < n; lo += w {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		hi := lo + w
		if hi > n {
			hi = n
		}
		stepStart := time.Now()
		// The group's step span: one optimizer step. Straggler waits land
		// as events, each replica's FW/BP phase wall time and the
		// coordinator-side all-reduce/optimizer phases as child spans.
		var sp *rtrace.Span
		var recBefore obs.PhaseSnapshot
		if rtr != nil {
			sp = rtr.StartSpan("train.step")
			sp.Attr("batches", fmt.Sprintf("%d-%d", lo, hi-1))
			sp.Attr("workers", strconv.Itoa(hi-lo))
			recBefore = e.Rec.Snapshot()
			for i := 0; i < hi-lo; i++ {
				repBefore[i] = e.replicas[i].Workspace().Recorder().Snapshot()
			}
		}
		// Re-sync replica weights from the master. The clone geometry
		// always matches, so the error path is unreachable in practice.
		for i := 0; i < hi-lo; i++ {
			if err := e.replicas[i].CopyWeightsFrom(e.master); err != nil {
				sp.FinishErr(err)
				return res, err
			}
		}

		results := make([]BatchResult, hi-lo)
		errs := make([]error, hi-lo)
		finished := make([]time.Time, hi-lo)
		var wg sync.WaitGroup
		for b := lo; b < hi; b++ {
			slot := b - lo
			// The provider is consulted serially from this goroutine;
			// only the returned batches are held concurrently.
			batch := p.Batch(b)
			if err := ctx.Err(); err != nil {
				errs[slot] = err
				break
			}
			wg.Add(1)
			go func(slot, index int, batch train.Batch) {
				defer wg.Done()
				results[slot], errs[slot] = fn(e.replicas[slot], batch, index)
				finished[slot] = time.Now()
			}(slot, b, batch)
		}
		wg.Wait()
		if e.OnWait != nil || sp != nil {
			// The group's all-reduce begins when its last worker lands;
			// every earlier finisher waited for the stragglers.
			var last time.Time
			for _, t := range finished {
				if t.After(last) {
					last = t
				}
			}
			for slot, t := range finished {
				if t.IsZero() {
					continue
				}
				wait := last.Sub(t)
				if e.OnWait != nil {
					e.OnWait(slot, wait)
				}
				if sp != nil && wait > 0 {
					sp.Event("straggler-wait",
						"replica", strconv.Itoa(slot),
						"wait_ms", strconv.FormatFloat(float64(wait)/1e6, 'f', 3, 64))
				}
			}
		}
		if sp != nil {
			// Each replica's FW/BP phase wall time, measured by its
			// workspace recorder during the concurrent passes.
			for i := 0; i < hi-lo; i++ {
				rec := e.replicas[i].Workspace().Recorder()
				rtrace.FoldPhases(sp, stepStart, rec.Snapshot().Delta(repBefore[i]),
					"replica", strconv.Itoa(i))
			}
		}

		// Fold statistics and surface errors in batch order, so the
		// reported state is identical to a serial run that stopped at
		// the first failing batch.
		grads := make([]*model.Gradients, 0, hi-lo)
		for slot := range results {
			if errs[slot] != nil {
				sp.FinishErr(errs[slot])
				return res, errs[slot]
			}
			r := results[slot]
			res.Batches++
			res.TotalLoss += r.Loss
			res.Prune = res.Prune.Add(r.Prune)
			if r.Grads != nil {
				res.SkippedCells += r.Grads.SkippedCells
				res.ExecutedCells += r.Grads.ExecutedCells
				grads = append(grads, r.Grads)
			}
			if r.Observed != nil {
				res.Observed = addObserved(res.Observed, r.Observed)
			}
			if r.PeakStored > res.PeakStored {
				res.PeakStored = r.PeakStored
			}
			res.RecomputedCells += r.Recomputed
		}
		if len(grads) == 0 {
			sp.Finish()
			continue
		}
		sync := e.Sync
		if sync == nil {
			sync = dist.Inproc{}
		}
		if s, ok := sync.(dist.StepSpanSetter); ok {
			s.SetStepSpan(sp)
		}
		psp := e.Rec.Begin(obs.PhaseAllReduce)
		merged, contribs, err := sync.Reduce(grads)
		psp.End()
		if err != nil {
			sp.FinishErr(err)
			return res, err
		}
		psp = e.Rec.Begin(obs.PhaseOptimizer)
		e.reducer.Apply(e.master, merged, contribs)
		psp.End()
		if sp != nil {
			// Coordinator-side phases (all-reduce, optimizer) recorded on
			// the engine's own recorder during this group.
			rtrace.FoldPhases(sp, stepStart, e.Rec.Snapshot().Delta(recBefore))
			sp.Finish()
		}
		if e.OnStep != nil {
			e.OnStep(time.Since(stepStart))
		}
	}
	return res, nil
}

// addObserved element-wise adds src into dst (allocating dst on first
// use), preserving the [layer][t] shape.
func addObserved(dst, src [][]float64) [][]float64 {
	if dst == nil {
		dst = make([][]float64, len(src))
		for l := range src {
			dst[l] = make([]float64, len(src[l]))
		}
	}
	for l := range src {
		for t := range src[l] {
			dst[l][t] += src[l][t]
		}
	}
	return dst
}

// Validate sanity-checks an engine configuration before an epoch runs.
func (e *Engine) Validate() error {
	if e.master == nil {
		return fmt.Errorf("parallel: engine requires a master network")
	}
	if e.reducer == nil {
		return fmt.Errorf("parallel: engine requires a reducer")
	}
	return nil
}
