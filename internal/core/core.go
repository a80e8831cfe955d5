// Package core integrates η-LSTM's software optimizations into a
// complete training loop — the cross-stack "η-LSTM" of the paper, on
// the software side. It composes:
//
//   - MS1 (internal/reorder): the FW pass computes and near-zero-prunes
//     the BP-EW-P1 products instead of storing raw gates;
//   - MS2 (internal/skip): per-epoch skip plans from the Eq. 4
//     magnitude predictor gated by the Eq. 5 loss prediction, with
//     convergence-aware gradient rescaling;
//   - the bookkeeping (footprint, data movement, skip statistics) the
//     experiment harnesses report.
//
// The hardware side (internal/arch) consumes the same optimization
// parameters; OperatingPoint/FootprintMode bridge the two by exposing
// this training run's measured operating point to the cost models.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"etalstm/internal/lstm"
	"etalstm/internal/memplan"
	"etalstm/internal/model"
	"etalstm/internal/obs"
	"etalstm/internal/reorder"
	"etalstm/internal/rtrace"
	"etalstm/internal/skip"
	"etalstm/internal/tensor"
	"etalstm/internal/train"
)

// Config selects which optimizations run and their knobs.
type Config struct {
	// EnableMS1 turns on execution reordering + P1 pruning.
	EnableMS1 bool
	// EnableMS2 turns on BP-cell skipping.
	EnableMS2 bool

	// PruneThreshold is MS1's near-zero cutoff (0 = 0.1, the paper's
	// operating point).
	PruneThreshold float32
	// SparseBackward routes the backward pass through the pair-driven
	// sparse kernels: BP-EW-P2 touches only the P1 pairs that survived
	// MS1's pruning and BP-MatMul gathers over each gate's surviving
	// columns, so BP compute shrinks with the measured prune ratio.
	// Requires EnableMS1 (no-op otherwise); at PruneThreshold → 0 the
	// sparse path is bitwise identical to the dense one.
	SparseBackward bool
	// BackwardTopK, when positive (with SparseBackward), additionally
	// caps each batch row of the weight-gradient MatMuls to its
	// BackwardTopK largest-|δgate| columns (structurally sparsified
	// backward propagation, Zhu et al. arXiv:1806.00512). Propagated
	// gradients keep the full pattern; ≥ hidden size is the identity.
	BackwardTopK int
	// StoreF16 stores MS1's pruned P1 intermediates rounded to binary16
	// precision (compute stays float32): each surviving value makes a
	// float32→float16→float32 round trip right after pruning, halving
	// what the compressed pair store would hold. Requires EnableMS1.
	StoreF16 bool

	// SkipThreshold is MS2's relative significance cutoff used to set
	// the absolute bar at calibration (0 = skip.DefaultThreshold).
	SkipThreshold float64
	// MaxSkipFrac caps the skipped share per layer (0 = skip default).
	MaxSkipFrac float64
	// WarmupEpochs run unskipped while Eq. 5 gathers loss history
	// (the paper's "first three epochs will not perform the
	// prediction"). 0 means 3.
	WarmupEpochs int

	// MemoryBudget caps the stored activation bytes of one FW+BP pass
	// (per replica). 0 (or a budget the full-storage peak already fits)
	// trains with classic full-storage BPTT, the one-segment plan;
	// otherwise memplan.Plan picks checkpoint columns and BP recomputes
	// the segments before the last. Gradients and losses are bitwise
	// identical either way.
	MemoryBudget int64
}

func (c Config) warmup() int {
	if c.WarmupEpochs == 0 {
		return 3
	}
	return c.WarmupEpochs
}

// Stats accumulates what the optimizations did across an epoch.
type Stats struct {
	Epoch        int
	MeanLoss     float64
	PruneStats   reorder.PruneStats
	SkippedCells int
	TotalCells   int
	SkipFrac     float64
	ScaleApplied bool
	// Wall is the epoch's wall-clock duration.
	Wall time.Duration
	// PeakStoredBytes is the measured peak of stored activation bytes of
	// the epoch's worst batch, under every plan; RecomputedCells counts
	// FW cells replayed during BP across the epoch (0 under full
	// storage).
	PeakStoredBytes int64
	RecomputedCells int
}

// MeasuredSkipFrac returns the skipped share of BP cells the epoch
// actually saw (SkipFrac is the plan's intent; this is the outcome).
func (s Stats) MeasuredSkipFrac() float64 {
	if s.TotalCells == 0 {
		return 0
	}
	return float64(s.SkippedCells) / float64(s.TotalCells)
}

// RecomputeRatio returns the fraction of FW cells the epoch re-executed
// during BP (0 under full storage).
func (s Stats) RecomputeRatio() float64 {
	if s.TotalCells == 0 {
		return 0
	}
	return float64(s.RecomputedCells) / float64(s.TotalCells)
}

// Trainer is the η-LSTM training driver.
//
// Scratch memory: every replica reuses its embedded tensor.Workspace
// across the whole run, so steady-state epochs recycle the same FW/BP
// buffers instead of reallocating them. Replica 0 is Net itself; the
// other replicas are clones with private workspaces (see engine.go), so
// no arena is ever shared between goroutines.
type Trainer struct {
	Net  *model.Network
	Opt  train.Optimizer
	Clip float64 // max gradient L2 norm; <= 0 disables clipping
	Cfg  Config

	// Workers is the data-parallel replica count (clamped to >= 1). One
	// replica is Net itself: one optimizer step per minibatch, with no
	// goroutine and no clone. More replicas shard each epoch's
	// minibatches into groups of Workers, one optimizer step per group,
	// gradients merged by a deterministic tree all-reduce.
	Workers int
	// Sync is the gradient transport each optimizer step's contributions
	// merge through. nil selects dist.Inproc, the deterministic
	// in-process tree all-reduce (the identity for one replica). A
	// non-nil sync (dist.Compressed, dist.Worker) routes the step
	// through GradientSync.Reduce, and the clip-then-step averages by the
	// contribution count the sync reports — which is how one process's
	// trainer joins a multi-process data-parallel run.
	Sync train.GradientSync

	// RecordPhases enables phase-span recording (FW / BP-EW-P1 /
	// BP-EW-P2 / BP-MatMul / all-reduce / optimizer). Off by default:
	// disabled recording costs one nil test per phase boundary.
	RecordPhases bool

	history   skip.LossHistory
	predictor *skip.Predictor
	// absBar is the calibrated absolute significance threshold; set
	// after the first epoch's magnitude calibration.
	absBar float64
	// replicas is the replica set of the step loop: Net, then
	// Workers-1 clones (built by the first epoch; see setReplicas).
	replicas []*model.Network
	// grads holds one gradient set per replica slot. A slot's set is
	// zeroed and refilled by every batch the slot runs, so a step
	// allocates no gradients.
	grads []*model.Gradients
	// placement is the cached checkpoint placement for Cfg.MemoryBudget
	// (nil until first resolved; see Placement).
	placement *memplan.Placement

	// ins are the telemetry instruments (lazily bound to obs.Default).
	ins *obs.Train
	// rec aggregates phase spans across epochs: it rides Net's
	// workspace, and the clones' recorders fold into it after each epoch.
	rec *obs.Recorder
	// arenaHits/arenaMisses remember the workspace counters already
	// exported, so each epoch adds only the delta to the cumulative
	// arena instruments.
	arenaHits, arenaMisses int64
	// lastPred is the Eq. 5 loss extrapolation used for the current
	// epoch's plan; compared against the realized loss afterwards.
	lastPred   float64
	lastPredOK bool

	// EpochStats records per-epoch optimization behaviour.
	EpochStats []Stats
}

// New builds an η-LSTM trainer.
func New(net *model.Network, opt train.Optimizer, clip float64, cfg Config) *Trainer {
	return &Trainer{
		Net: net, Opt: opt, Clip: clip, Cfg: cfg,
		predictor: skip.NewPredictor(net.Cfg.Loss, net.Cfg.Layers, net.Cfg.SeqLen),
	}
}

// instruments lazily binds the trainer's telemetry bundle to the
// process-wide registry. Instruments are always live — they are atomic
// writes on a path that runs once per step or epoch, far off the
// per-cell hot path the span switch guards.
func (tr *Trainer) instruments() *obs.Train {
	if tr.ins == nil {
		tr.ins = obs.NewTrain(obs.Default)
	}
	return tr.ins
}

// Phases returns the accumulated phase-span breakdown (nil unless
// RecordPhases was set before training).
func (tr *Trainer) Phases() []obs.PhaseStat {
	if tr.rec == nil {
		return nil
	}
	return tr.rec.Breakdown()
}

// clipStep returns the clip-then-step stage wired to the gradient-norm
// instruments.
func (tr *Trainer) clipStep() train.ClipStep {
	ins := tr.instruments()
	return train.ClipStep{Opt: tr.Opt, Clip: tr.Clip, OnApply: func(norm float64, clipped bool) {
		ins.GradNorm.Set(norm)
		if clipped {
			ins.ClipEvents.Inc()
		}
	}}
}

// baseStore is the storage mode for executed cells.
func (tr *Trainer) baseStore() model.CellStore {
	if tr.Cfg.EnableMS1 {
		return model.StoreP1
	}
	return model.StoreRaw
}

// planFor builds the epoch's skip plan (or a no-skip plan during
// warmup / when MS2 is off).
func (tr *Trainer) planFor(epoch int) *skip.Plan {
	cfg := tr.Net.Cfg
	if !tr.Cfg.EnableMS2 || epoch < tr.Cfg.warmup() || tr.absBar <= 0 {
		return skip.NoSkip(cfg.Layers, cfg.SeqLen, tr.baseStore())
	}
	predLoss, ok := tr.history.Predict()
	if !ok {
		predLoss = tr.history.Last()
	}
	// Remember the extrapolation so the epoch's realized loss can score
	// it (the etalstm_ms2_pred_loss_error gauge).
	tr.lastPred, tr.lastPredOK = predLoss, ok
	return skip.Build(tr.predictor, predLoss, skip.Config{
		Threshold:         tr.Cfg.SkipThreshold,
		AbsoluteThreshold: tr.absBar,
		MaxFrac:           tr.Cfg.MaxSkipFrac,
		Base:              tr.baseStore(),
	})
}

// batchFn builds the per-minibatch FW+BP closure for one epoch: run
// forward under the epoch's storage policy and checkpoint plan,
// backpropagate with MS1's near-zero pruning applied to every P1 set
// through the OnP1 hook (collecting calibration magnitudes when
// requested), and apply MS2's convergence-aware scaling.
func (tr *Trainer) batchFn(epoch int, plan *skip.Plan, policy model.StoragePolicy, calibrating bool, boundaries []int) batchFn {
	return func(net *model.Network, batch train.Batch, b int) (batchResult, error) {
		var out batchResult
		// Slot i runs batch g·W+i (see engine.go), so the batches of one
		// group never share a set.
		grads := tr.grads[b%len(tr.grads)]
		grads.Zero()
		opts := model.BackwardOpts{
			SparseBP: tr.Cfg.SparseBackward && tr.Cfg.EnableMS1,
			TopK:     tr.Cfg.BackwardTopK,
		}
		if tr.Cfg.EnableMS1 {
			// MS1's pruning (and, under StoreF16, the binary16 storage
			// rounding of the survivors): the approximation the
			// compressed store introduces, applied once per P1 set
			// whether the main FW sweep stored it or BP regenerated it.
			pcfg := reorder.Config{Threshold: tr.Cfg.PruneThreshold}
			opts.OnP1 = func(_, _ int, p1 *lstm.P1) {
				out.Prune = out.Prune.Add(reorder.PruneInPlace(p1, pcfg))
				if tr.Cfg.StoreF16 {
					for _, m := range p1.Matrices() {
						tensor.QuantizeF16(m)
					}
				}
			}
		}
		if calibrating {
			cfg := net.Cfg
			out.Observed = make([][]float64, cfg.Layers)
			for l := range out.Observed {
				out.Observed[l] = make([]float64, cfg.SeqLen)
			}
			opts.OnCell = func(l, t int, cell *lstm.Grads) {
				out.Observed[l][t] += cell.AbsSum()
			}
		}

		res, _, err := net.ForwardCheckpointed(batch.Inputs, batch.Targets, policy, nil, boundaries)
		if err != nil {
			return out, fmt.Errorf("core: epoch %d batch %d forward: %w", epoch, b, err)
		}
		if math.IsNaN(res.Loss) || math.IsInf(res.Loss, 0) {
			return out, fmt.Errorf("core: epoch %d batch %d: non-finite loss %v (diverged; lower the learning rate)",
				epoch, b, res.Loss)
		}
		out.Loss = res.Loss
		if err := net.BackwardCheckpointed(res, policy, grads, opts); err != nil {
			return out, fmt.Errorf("core: epoch %d batch %d backward: %w", epoch, b, err)
		}
		out.PeakStored = res.PeakStoredBytes()
		out.Recomputed = res.RecomputedCells()

		if plan.SkippedFrac() > 0 {
			if err := plan.ApplyScaling(grads); err != nil {
				return out, err
			}
		}
		out.Grads = grads
		return out, nil
	}
}

// Placement resolves (and caches) the checkpoint placement for the
// configured MemoryBudget. With no budget — or one the full-storage
// peak already fits — the returned placement is a single segment and
// training runs classic full-storage BPTT. The placement depends only
// on the network geometry and the MS1 flag, both fixed at construction,
// so it is computed once.
func (tr *Trainer) Placement() *memplan.Placement {
	if tr.placement == nil {
		pl := memplan.Plan(tr.Net.Cfg, tr.FootprintMode(), tr.Cfg.MemoryBudget)
		tr.placement = &pl
	}
	return tr.placement
}

// RunEpoch trains one epoch over p. During epoch 0 it calibrates the
// Eq. 4 predictor's α from observed per-cell gradient magnitudes and
// fixes the absolute significance bar. ctx cancels the epoch between
// minibatch groups; the returned error is then ctx.Err() and no further
// optimizer steps are applied.
func (tr *Trainer) RunEpoch(ctx context.Context, p train.Provider, epoch int) (Stats, error) {
	if tr.Net == nil || tr.Opt == nil {
		return Stats{}, fmt.Errorf("core: Trainer requires Net and Opt")
	}
	cfg := tr.Net.Cfg
	start := time.Now()
	ins := tr.instruments()
	// Phase recording feeds two consumers: the explicit RecordPhases
	// breakdown and — when a process-default tracer is installed — the
	// per-step trace's phase child spans (rtrace.FoldPhases).
	if (tr.RecordPhases || rtrace.Default() != nil) && tr.rec == nil {
		tr.rec = &obs.Recorder{}
	}
	plan := tr.planFor(epoch)
	policy := plan.Policy()

	placement := tr.Placement()
	if !placement.Feasible {
		return Stats{}, fmt.Errorf("core: memory budget %d B is infeasible: even per-step checkpoints peak at %d B (cfg %+v)",
			tr.Cfg.MemoryBudget, placement.PredictedPeak, cfg)
	}

	st := Stats{Epoch: epoch, SkipFrac: plan.SkippedFrac()}

	calibrating := tr.Cfg.EnableMS2 && epoch == 0
	fn := tr.batchFn(epoch, plan, policy, calibrating, placement.Boundaries)

	tr.setReplicas()
	epochRes, err := tr.runSteps(ctx, p, fn, epoch)
	for _, rep := range tr.replicas[1:] {
		r := rep.Workspace().Recorder()
		tr.rec.Add(r)
		r.Reset()
	}
	st.PruneStats = epochRes.Prune
	st.SkippedCells = epochRes.SkippedCells
	st.TotalCells = epochRes.Batches * cfg.Cells()
	st.PeakStoredBytes = epochRes.PeakStored
	st.RecomputedCells = epochRes.RecomputedCells
	if plan.SkippedFrac() > 0 && epochRes.Batches > 0 {
		st.ScaleApplied = true
	}
	if err != nil {
		return st, err
	}

	batches := epochRes.Batches
	if batches > 0 {
		st.MeanLoss = epochRes.TotalLoss / float64(batches)
	}
	tr.history.Record(st.MeanLoss)

	if calibrating && epochRes.Observed != nil {
		observed := epochRes.Observed
		for l := range observed {
			for t := range observed[l] {
				observed[l][t] /= float64(batches)
			}
		}
		tr.predictor.Calibrate(st.MeanLoss, observed)
		// The absolute bar: SkipThreshold × the largest calibrated
		// magnitude. Cells predicted below it are insignificant.
		th := tr.Cfg.SkipThreshold
		if th == 0 {
			th = skip.DefaultThreshold
		}
		mx := 0.0
		for l := 0; l < cfg.Layers; l++ {
			for t := 0; t < cfg.SeqLen; t++ {
				if m := tr.predictor.Magnitude(st.MeanLoss, l, t); m > mx {
					mx = m
				}
			}
		}
		tr.absBar = th * mx
	}

	st.Wall = time.Since(start)
	ins.Epochs.Inc()
	ins.EpochLoss.Set(st.MeanLoss)
	ins.EpochSeconds.Set(st.Wall.Seconds())
	ins.MS1PruneRatio.Set(st.PruneStats.Frac())
	ins.MS1StoredPairs.Add(st.PruneStats.Kept())
	if tr.Cfg.SparseBackward && tr.Cfg.EnableMS1 {
		ins.SparseBPDensity.Set(1 - st.PruneStats.Frac())
	}
	ins.MS2SkipRatio.Set(st.MeasuredSkipFrac())
	ins.CkptColumns.Set(float64(len(placement.Boundaries)))
	ins.CkptBytes.Set(float64(placement.CheckpointBytes))
	ins.PeakStored.Set(float64(st.PeakStoredBytes))
	ins.RecomputeRatio.Set(st.RecomputeRatio())
	if tr.lastPredOK {
		ins.MS2PredLossError.Set(math.Abs(tr.lastPred - st.MeanLoss))
		tr.lastPredOK = false
	}
	tr.observeArenas(ins)

	tr.EpochStats = append(tr.EpochStats, st)
	return st, nil
}

// observeArenas folds the workspace traffic of every replica (the
// master included, once) into the cumulative arena instruments. The
// workspace counters are lifetime totals, so only the delta since the
// previous call is added; a rebuilt replica set makes the total shrink
// momentarily, which Counter.Add ignores until the new clones catch up.
func (tr *Trainer) observeArenas(ins *obs.Train) {
	var hits, misses, elems int64
	for _, rep := range tr.replicas {
		ws := rep.Workspace()
		s := ws.Stats()
		hits += s.Hits
		misses += s.Misses
		_, el := ws.Retained()
		elems += el
	}
	ins.ArenaHits.Add(hits - tr.arenaHits)
	ins.ArenaMisses.Add(misses - tr.arenaMisses)
	tr.arenaHits, tr.arenaMisses = hits, misses
	ins.ArenaBytes.Set(float64(elems) * 4) // float32 elements
}

// Run trains for the given number of epochs, stopping early (with
// ctx.Err()) when ctx is cancelled.
func (tr *Trainer) Run(ctx context.Context, p train.Provider, epochs int) ([]Stats, error) {
	out := make([]Stats, 0, epochs)
	for e := 0; e < epochs; e++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		st, err := tr.RunEpoch(ctx, p, e)
		if err != nil {
			return out, err
		}
		out = append(out, st)
	}
	return out, nil
}

// Losses returns the recorded per-epoch mean losses.
func (tr *Trainer) Losses() []float64 {
	out := make([]float64, 0, len(tr.EpochStats))
	for _, s := range tr.EpochStats {
		out = append(out, s.MeanLoss)
	}
	return out
}

// OperatingPoint returns the trainer's measured optimization operating
// point: the P1 near-zero sparsity accumulated over every epoch so far
// (0 when MS1 is off) and the latest epoch's planned skip fraction
// (0 when MS2 is off). Both analytic cost models — footprint and DRAM
// traffic — are parameterized by exactly these two numbers.
func (tr *Trainer) OperatingPoint() (p1Sparsity, skipFrac float64) {
	var lastSkip float64
	var prune reorder.PruneStats
	for _, s := range tr.EpochStats {
		prune = prune.Add(s.PruneStats)
		lastSkip = s.SkipFrac
	}
	if tr.Cfg.EnableMS1 {
		p1Sparsity = prune.Frac()
	}
	if tr.Cfg.EnableMS2 {
		skipFrac = lastSkip
	}
	return p1Sparsity, skipFrac
}

// FootprintMode returns the memplan mode matching the configuration.
func (tr *Trainer) FootprintMode() memplan.Mode {
	switch {
	case tr.Cfg.EnableMS1 && tr.Cfg.EnableMS2:
		return memplan.Combined
	case tr.Cfg.EnableMS1:
		return memplan.MS1
	case tr.Cfg.EnableMS2:
		return memplan.MS2
	}
	return memplan.Baseline
}
