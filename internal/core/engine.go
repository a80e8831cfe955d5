package core

import (
	"context"
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

// The step loop runs an epoch over a fixed replica set. Batches are
// processed in groups of len(replicas): slot i runs the epoch's batchFn
// on batch g*W+i with replica i, the group's gradient sets merge
// through a train.GradientSync (dist.Inproc, the deterministic tree
// all-reduce, when none is configured), and one clip-then-step update
// lands on the master network.
//
// Replica 0 is the master network itself and runs on the calling
// goroutine; replicas 1…W−1 are clones with private weights and
// workspaces, re-synced from the master before each group and run on
// goroutines of their own. One replica is therefore the classic serial
// trainer: no goroutine, no clone, an identity reduce.
//
// Determinism. The batch→slot assignment, the tree reduction order and
// the fold order of per-batch statistics (losses, prune counters,
// calibration magnitudes) are functions of the batch index alone, never
// of goroutine scheduling, so a run with a fixed replica count is
// reproducible bit for bit. A distributed sync (dist.Worker) extends
// the same step across processes; the clip-then-step then averages by
// the contribution count the sync reports.

// batchResult is what one replica produced from one minibatch. Grads
// is consumed by the all-reduce; the other fields are epoch statistics
// folded in batch order.
type batchResult struct {
	Grads *model.Gradients
	Loss  float64
	Prune reorder.PruneStats
	// Observed carries per-cell gradient magnitudes ([layer][t], summed
	// over the batch) during MS2's epoch-0 calibration; nil otherwise.
	Observed [][]float64
	// PeakStored is the measured peak of stored activation bytes during
	// the batch's FW+BP; Recomputed counts the FW cells replayed in BP.
	PeakStored int64
	Recomputed int
}

// batchFn runs FW+BP for batch index on net (a replica owned by the
// calling goroutine for the duration of the call). It must not mutate
// net's parameters.
type batchFn func(net *model.Network, b train.Batch, index int) (batchResult, error)

// epochResult aggregates an epoch's batchResults, folded in batch order.
type epochResult struct {
	Batches      int
	TotalLoss    float64
	Prune        reorder.PruneStats
	SkippedCells int
	// Observed is the element-wise sum of every batch's Observed grid.
	Observed [][]float64
	// PeakStored is the worst single batch's peak (each replica has its
	// own arena); RecomputedCells sums over the epoch.
	PeakStored      int64
	RecomputedCells int
}

// setReplicas sizes the replica set to Workers (at least one) with the
// master as replica 0, and attaches the phase recorders: the master's
// workspace carries tr.rec, each clone's a private recorder (same
// goroutine confinement) that RunEpoch folds into tr.rec afterwards.
func (tr *Trainer) setReplicas() {
	w := max(tr.Workers, 1)
	if len(tr.replicas) != w || tr.replicas[0] != tr.Net {
		tr.replicas = []*model.Network{tr.Net}
		tr.grads = []*model.Gradients{tr.Net.NewGradients()}
		for len(tr.replicas) < w {
			tr.replicas = append(tr.replicas, tr.Net.Clone())
			tr.grads = append(tr.grads, tr.Net.NewGradients())
		}
	}
	tr.Net.Workspace().SetRecorder(tr.rec)
	for _, rep := range tr.replicas[1:] {
		if tr.rec != nil && rep.Workspace().Recorder() == nil {
			rep.Workspace().SetRecorder(&obs.Recorder{})
		}
	}
}

// runSteps trains one epoch over p, one optimizer step per batch group.
// ctx is checked between groups and before each batch launch; on
// cancellation the in-flight group is not applied and ctx.Err() returns
// alongside the statistics folded so far.
func (tr *Trainer) runSteps(ctx context.Context, p train.Provider, fn batchFn, epoch int) (epochResult, error) {
	var res epochResult
	reps := tr.replicas
	master := reps[0]
	w, n := len(reps), p.NumBatches()
	ins := tr.instruments()
	red := tr.clipStep()
	gs := tr.Sync
	if gs == nil {
		gs = dist.Inproc{}
	}
	spanSync, _ := gs.(dist.StepSpanSetter)
	rtr := rtrace.Default()
	before := make([]obs.PhaseSnapshot, w)
	for lo := 0; lo < n; lo += w {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		k := min(w, n-lo)
		start := time.Now()
		// The step span: one optimizer step. Straggler waits land as
		// events, each replica's FW/BP phases and the master's
		// all-reduce/optimizer phases as child spans. Disabled tracing
		// keeps it a nil span — pointer tests only.
		var sp *rtrace.Span
		if rtr != nil {
			sp = rtr.StartSpan("train.step")
			sp.Attr("epoch", strconv.Itoa(epoch))
			sp.Attr("batch", strconv.Itoa(lo))
			sp.Attr("workers", strconv.Itoa(k))
			for i := 0; i < k; i++ {
				before[i] = reps[i].Workspace().Recorder().Snapshot()
			}
		}
		for i := 1; i < k; i++ {
			if err := reps[i].CopyWeightsFrom(master); err != nil {
				sp.FinishErr(err)
				return res, err
			}
		}

		results := make([]batchResult, k)
		errs := make([]error, k)
		finished := make([]time.Time, k)
		run := func(i int, b train.Batch) {
			results[i], errs[i] = fn(reps[i], b, lo+i)
			finished[i] = time.Now()
		}
		// Batches are fetched serially in index order; each clone starts
		// as soon as its batch is out, and slot 0 runs here after them.
		var wg sync.WaitGroup
		var first train.Batch
		for i := 0; i < k; i++ {
			b := p.Batch(lo + i)
			if err := ctx.Err(); err != nil {
				errs[i] = err
				break
			}
			if i == 0 {
				first = b
				continue
			}
			wg.Add(1)
			go func(i int, b train.Batch) {
				defer wg.Done()
				run(i, b)
			}(i, b)
		}
		if errs[0] == nil {
			run(0, first)
		}
		wg.Wait()
		joined, joinedAt := tr.rec.Snapshot(), time.Now()

		// The all-reduce begins when the group's last replica lands; every
		// earlier finisher idled for the stragglers. Each replica that ran
		// reports once, the last finisher with a zero wait.
		var last time.Time
		for _, t := range finished {
			if t.After(last) {
				last = t
			}
		}
		for i, t := range finished {
			if t.IsZero() {
				continue
			}
			wait := last.Sub(t)
			ins.AllReduceWait.Observe(wait.Seconds())
			if wait > 0 {
				sp.Event("straggler-wait", "replica", strconv.Itoa(i),
					"wait_ms", strconv.FormatFloat(float64(wait)/1e6, 'f', 3, 64))
			}
		}
		if sp != nil {
			for i := 0; i < k; i++ {
				d := reps[i].Workspace().Recorder().Snapshot().Delta(before[i])
				rtrace.FoldPhases(sp, start, d, "replica", strconv.Itoa(i))
			}
		}

		// Fold statistics and surface errors in batch order, so the
		// reported state is that of a run stopped at the first failure.
		grads := make([]*model.Gradients, 0, k)
		for i, r := range results {
			if errs[i] != nil {
				sp.FinishErr(errs[i])
				return res, errs[i]
			}
			res.Batches++
			res.TotalLoss += r.Loss
			res.Prune = res.Prune.Add(r.Prune)
			res.SkippedCells += r.Grads.SkippedCells
			res.Observed = addObserved(res.Observed, r.Observed)
			res.PeakStored = max(res.PeakStored, r.PeakStored)
			res.RecomputedCells += r.Recomputed
			grads = append(grads, r.Grads)
		}

		if spanSync != nil {
			spanSync.SetStepSpan(sp)
		}
		ph := tr.rec.Begin(obs.PhaseAllReduce)
		merged, contribs, err := gs.Reduce(grads)
		ph.End()
		if err != nil {
			sp.FinishErr(err)
			return res, err
		}
		ph = tr.rec.Begin(obs.PhaseOptimizer)
		red.Apply(master, merged, contribs)
		ph.End()
		// The master's recorder also carries replica 0's FW/BP, so the
		// coordinator-side fold starts from the post-join snapshot.
		rtrace.FoldPhases(sp, joinedAt, tr.rec.Snapshot().Delta(joined))
		sp.Finish()
		ins.StepLatency.Observe(time.Since(start).Seconds())
	}
	return res, nil
}

// addObserved element-wise adds src into dst (allocating dst on first
// use), preserving the [layer][t] shape; a nil src is a no-op.
func addObserved(dst, src [][]float64) [][]float64 {
	if src == nil {
		return dst
	}
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
