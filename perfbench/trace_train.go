package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"etalstm"
	"etalstm/internal/lstm"
	"etalstm/internal/memplan"
	"etalstm/internal/model"
	"etalstm/internal/obs"
	"etalstm/internal/reorder"
	"etalstm/internal/skip"
	"etalstm/internal/train"
)

// The traced training run cannot put spans inside the program's step
// loop, so it drives the same step itself: stepper repeats the serial
// trainer's step (internal/core's batch function and serial loop) call
// for call through the layers' public functions, with a span around
// each call. Its losses must equal the untraced trainer's bit for bit
// (checked), which shows the per-layer numbers describe the step the
// end-to-end run measures.
type stepper struct {
	net        *model.Network
	ms1, ms2   bool
	sparseBP   bool
	boundaries []int
	red        train.Reducer
	sync       train.GradientSync
	spans      *spanLog

	predictor *skip.Predictor
	history   skip.LossHistory
	absBar    float64

	prune reorder.PruneStats
	// sample is a copy of the last layer's last-timestep P1 set as the
	// latest step pruned it: the sparse-cell probe's operand, so that
	// probe runs at the prune ratio training reached.
	sample *lstm.P1
	// rec is the program's own phase recorder, attached to the
	// network's workspace on a checkpointed run: its recompute-FW phase
	// is the only view of the segment replays inside
	// BackwardCheckpointed.
	rec        *obs.Recorder
	peakStored int64
	recomputed int
	cells      int
	skipped    int
}

// newStepper plans the memory budget (timed as memplan.plan) and builds
// a stepper with the trainer's defaults: Adam(lr=0.01), clip 5.
func newStepper(net *model.Network, mode etalstm.Mode, sparseBP bool, budget int64, gs train.GradientSync, spans *spanLog) (*stepper, error) {
	ms1 := mode == etalstm.MS1 || mode == etalstm.Combined
	ms2 := mode == etalstm.MS2 || mode == etalstm.Combined
	pmode := memplan.Baseline
	switch {
	case ms1 && ms2:
		pmode = memplan.Combined
	case ms1:
		pmode = memplan.MS1
	case ms2:
		pmode = memplan.MS2
	}
	sp := spans.root("memplan.plan")
	pl := memplan.Plan(net.Cfg, pmode, budget)
	spans.end(sp)
	if !pl.Feasible {
		return nil, fmt.Errorf("memory budget %d B is infeasible", budget)
	}
	m := &stepper{
		net: net, ms1: ms1, ms2: ms2, sparseBP: sparseBP && ms1, boundaries: pl.Boundaries,
		red:  train.ClipStep{Opt: &train.Adam{LR: 0.01}, Clip: 5},
		sync: gs, spans: spans,
		predictor: skip.NewPredictor(net.Cfg.Loss, net.Cfg.Layers, net.Cfg.SeqLen),
	}
	if len(pl.Boundaries) > 1 {
		m.rec = obs.NewRecorder()
		net.Workspace().SetRecorder(m.rec)
	}
	return m, nil
}

func (m *stepper) baseStore() model.CellStore {
	if m.ms1 {
		return model.StoreP1
	}
	return model.StoreRaw
}

// plan is the epoch's MS2 skip plan, as the trainer builds it.
func (m *stepper) plan(epoch int) *skip.Plan {
	cfg := m.net.Cfg
	if !m.ms2 || epoch < warmupEpochs || m.absBar <= 0 {
		return skip.NoSkip(cfg.Layers, cfg.SeqLen, m.baseStore())
	}
	pred, ok := m.history.Predict()
	if !ok {
		pred = m.history.Last()
	}
	return skip.Build(m.predictor, pred, skip.Config{AbsoluteThreshold: m.absBar, Base: m.baseStore()})
}

// epoch trains one epoch over p and returns its mean loss.
func (m *stepper) epoch(p train.Provider, epoch int) (float64, error) {
	cfg := m.net.Cfg
	plan := m.plan(epoch)
	policy := plan.Policy()
	calibrating := m.ms2 && epoch == 0
	checkpointed := len(m.boundaries) > 1
	var observed [][]float64
	var total float64
	l := m.spans
	for b := 0; b < p.NumBatches(); b++ {
		step := l.root("step")
		sp := l.child(step, "core.fetch")
		batch := p.Batch(b)
		l.end(sp)

		grads := m.net.NewGradients()
		opts := model.BackwardOpts{SparseBP: m.sparseBP}
		var cellSums [][]float64
		if calibrating {
			cellSums = make([][]float64, cfg.Layers)
			for i := range cellSums {
				cellSums[i] = make([]float64, cfg.SeqLen)
			}
			opts.OnCell = func(l, t int, cell *lstm.Grads) { cellSums[l][t] += cell.AbsSum() }
		}
		var pruneParent *span
		prune := func(layer, t int, p1 *lstm.P1) {
			ps := l.child(pruneParent, "reorder.prune")
			m.prune = m.prune.Add(reorder.PruneInPlace(p1, reorder.Config{}))
			l.end(ps)
			if layer == cfg.Layers-1 && t == cfg.SeqLen-1 {
				m.sample = &lstm.P1{Pf: p1.Pf.Clone(), Pi: p1.Pi.Clone(), Pc: p1.Pc.Clone(),
					Po: p1.Po.Clone(), Ps: p1.Ps.Clone(), Pfs: p1.Pfs.Clone()}
			}
		}
		var loss float64
		if checkpointed {
			if m.ms1 {
				opts.OnP1 = prune
			}
			sp = l.child(step, "model.ckpt_fw")
			res, _, err := m.net.ForwardCheckpointed(batch.Inputs, batch.Targets, policy, nil, m.boundaries)
			l.end(sp)
			if err != nil {
				return 0, err
			}
			if loss = res.Loss; math.IsNaN(loss) || math.IsInf(loss, 0) {
				return 0, fmt.Errorf("epoch %d batch %d: non-finite loss", epoch, b)
			}
			sp = l.child(step, "model.ckpt_bp")
			pruneParent = sp
			err = m.net.BackwardCheckpointed(res, policy, grads, opts)
			l.end(sp)
			if err != nil {
				return 0, err
			}
			if pk := res.PeakStoredBytes(); pk > m.peakStored {
				m.peakStored = pk
			}
			m.recomputed += res.RecomputedCells()
		} else {
			sp = l.child(step, "model.fw")
			res, err := m.net.Forward(batch.Inputs, batch.Targets, policy)
			l.end(sp)
			if err != nil {
				return 0, err
			}
			if loss = res.Loss; math.IsNaN(loss) || math.IsInf(loss, 0) {
				return 0, fmt.Errorf("epoch %d batch %d: non-finite loss", epoch, b)
			}
			if m.ms1 {
				pruneParent = step
				for layer := range res.P1 {
					for t, p1 := range res.P1[layer] {
						if p1 != nil {
							prune(layer, t, p1)
						}
					}
				}
			}
			sp = l.child(step, "model.bp")
			err = m.net.Backward(res, policy, grads, opts)
			l.end(sp)
			if err != nil {
				return 0, err
			}
		}
		if plan.SkippedFrac() > 0 {
			sp = l.child(step, "skip.scale")
			err := plan.ApplyScaling(grads)
			l.end(sp)
			if err != nil {
				return 0, err
			}
		}
		applied, contribs := grads, 1
		if m.sync != nil {
			sp = l.child(step, "dist.reduce")
			merged, n, err := m.sync.Reduce([]*model.Gradients{grads})
			l.end(sp)
			if err != nil {
				return 0, err
			}
			applied, contribs = merged, n
		}
		sp = l.child(step, "train.apply")
		m.red.Apply(m.net, applied, contribs)
		l.end(sp)
		l.end(step)

		total += loss
		m.cells += cfg.Cells()
		m.skipped += grads.SkippedCells
		if cellSums != nil {
			if observed == nil {
				observed = cellSums
			} else {
				for i := range cellSums {
					for t := range cellSums[i] {
						observed[i][t] += cellSums[i][t]
					}
				}
			}
		}
	}
	batches := p.NumBatches()
	mean := total / float64(batches)
	m.history.Record(mean)
	if calibrating && observed != nil {
		for i := range observed {
			for t := range observed[i] {
				observed[i][t] /= float64(batches)
			}
		}
		m.predictor.Calibrate(mean, observed)
		mx := 0.0
		for i := 0; i < cfg.Layers; i++ {
			for t := 0; t < cfg.SeqLen; t++ {
				mx = math.Max(mx, m.predictor.Magnitude(mean, i, t))
			}
		}
		m.absBar = skip.DefaultThreshold * mx
	}
	return mean, nil
}

// stepTotals sums the named child spans per step and returns the
// per-step sums (steps without such a child count as zero).
func stepTotals(l *spanLog, name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	parentOf := map[int64]int64{}
	var steps []int64
	for _, s := range l.spans {
		parentOf[s.ID] = s.Parent
		if s.Name == "step" {
			steps = append(steps, s.ID)
		}
	}
	rootOf := func(id int64) int64 {
		for parentOf[id] != 0 {
			id = parentOf[id]
		}
		return id
	}
	sum := map[int64]float64{}
	for _, s := range l.spans {
		if s.Name == name && s.End > 0 {
			sum[rootOf(s.ID)] += float64(s.End - s.Start)
		}
	}
	out := make([]float64, len(steps))
	for i, id := range steps {
		out[i] = sum[id]
	}
	return out
}

// nsToMs converts span nanoseconds to milliseconds.
func nsToMs(v float64) float64 { return v / 1e6 }

// reportSteps sets the per-layer metrics the traced steps produced.
func reportSteps(r *run, m *stepper) {
	l := r.spans
	med := func(name string) float64 { return nsToMs(median(stepTotals(l, name))) }
	steps := l.durations("step")
	r.set("core.step_ms", "ms", nsToMs(median(steps)))
	r.set("core.step_ms_p90", "ms", nsToMs(quantile(steps, 0.9)))
	r.set("core.fetch_us", "us", med("core.fetch")*1000)
	r.set("core.unattributed_ms", "ms", nsToMs(median(l.selfTimes("step"))))
	r.set("train.apply_ms", "ms", med("train.apply"))
	if len(m.boundaries) > 1 {
		r.set("model.ckpt_fw_ms", "ms", med("model.ckpt_fw"))
		r.set("model.ckpt_bp_ms", "ms", med("model.ckpt_bp"))
		r.set("model.recompute_ratio", "ratio", float64(m.recomputed)/float64(m.cells))
		r.set("model.stored_mb_peak", "MB", float64(m.peakStored)/(1<<20))
		r.set("memplan.ckpt_columns", "count", float64(len(m.boundaries)-1))
		if m.recomputed > 0 {
			ns := m.rec.Snapshot().Ns[obs.PhaseRecomputeFW]
			r.set("lstm.recompute_cell_us", "us", float64(ns)/1e3/float64(m.recomputed))
		}
	} else {
		r.set("model.fw_ms", "ms", med("model.fw"))
		r.set("model.bp_ms", "ms", med("model.bp"))
	}
	r.set("memplan.plan_ms", "ms", nsToMs(median(l.durations("memplan.plan"))))
	if m.ms1 {
		r.set("reorder.prune_ms", "ms", med("reorder.prune"))
		r.set("reorder.prune_ratio", "ratio", m.prune.Frac())
	}
	if m.ms2 {
		r.set("skip.skip_frac", "ratio", float64(m.skipped)/float64(m.cells))
	}
	reportArena(r, m.net.Workspace())
}

// traceOverhead returns the mean of the first len(plain) traced steps
// (round 0, the same job the untraced steps ran) over the mean of the
// untraced steps (ms), less one, in per cent.
func traceOverhead(plain []float64, l *spanLog) float64 {
	traced := l.durations("step") // nanoseconds, in start order
	n := min(len(plain), len(traced))
	if n == 0 {
		return 0
	}
	return 100 * (sum(traced[:n])/1e6/sum(plain[:n]) - 1)
}

// checkMirror checks the traced stepper's losses for round i against
// the untraced trainer's, bitwise.
func checkMirror(r *run, got, want []float64) {
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = math.Float64bits(got[i]) == math.Float64bits(want[i])
	}
	r.check(same, "traced step losses %v differ from the trainer's %v", got, want)
}

// untracedPart runs round 0 of a training workload through the public
// Trainer, untraced, on a copy of r, keeps the metrics it measures
// (throughput, step time, held-out loss) and returns the round's totals.
func untracedPart(r *run, fn func(*run) (*trainTotals, error)) (*trainTotals, error) {
	plain := *r
	plain.metrics = map[string]metric{}
	tot, err := fn(&plain)
	if err != nil {
		return nil, err
	}
	r.attempted, r.failed, r.problems = plain.attempted, plain.failed, plain.problems
	for k, v := range plain.metrics {
		r.metrics[k] = v
	}
	return tot, nil
}

// tracedSerial is the traced run of a single-worker workload: round 0
// untraced through the public Trainer (the baseline for the tracing
// overhead and the losses the traced steps must reproduce), then rounds
// of the traced stepper until 0.8 of the window (at least one, later
// ones cut between epochs), then the layer probes.
func tracedSerial(r *run, spec serialSpec) error {
	tot, err := untracedPart(r, func(p *run) (*trainTotals, error) { return trainSerial(p, spec, time.Now()) })
	if err != nil {
		return err
	}
	job := serialJob()
	cfg := job.bench.Cfg
	opts := spec.opts(cfg)
	var last *stepper
	var prov etalstm.Provider
	deadline := r.at(0.8)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		seed := roundSeed(r.seed, round)
		prov, _ = roundData(job.bench, job.batches, seed)
		net, err := etalstm.NewNetwork(cfg, netSeed(seed))
		if err != nil {
			return err
		}
		m, err := newStepper(net, spec.mode, opts.SparseBackward, opts.MemoryBudget, nil, r.spans)
		if err != nil {
			return err
		}
		var losses []float64
		for e := 0; e < job.epochs && (round == 0 || time.Now().Before(deadline)); e++ {
			loss, err := m.epoch(prov, e)
			if err != nil {
				return err
			}
			for range job.batches {
				r.op(nil)
			}
			losses = append(losses, loss)
		}
		if round == 0 {
			checkMirror(r, losses, tot.losses[0])
		}
		// The counters (prune, skip, recompute) describe whole jobs, so
		// they come from the last round that ran all its epochs.
		if len(losses) == job.epochs {
			last = m
		}
	}
	r.set("bench.trace_overhead_pct", "%", traceOverhead(tot.steps, r.spans))
	reportSteps(r, last)

	batch := prov.Batch(0)
	in := newCellInputs(last.net, batch.Inputs[0], r.seed)
	probeTensor(r, cfg.Batch, cfg.Hidden)
	if last.ms1 {
		probeSparseCells(r, last.net, in, last.sample)
	} else {
		probeDenseCells(r, last.net, in)
	}
	return nil
}

func trainDenseTraced(r *run) error { return tracedSerial(r, denseSpec) }
func trainEtaTraced(r *run) error   { return tracedSerial(r, etaSpec) }

// trainSyncTraced is train_sync's traced run: round 0 untraced, then
// rounds in which each worker runs the traced stepper with its
// GradientSync until 0.8 of the window, then the codec and cell probes.
func trainSyncTraced(r *run) error {
	tot, err := untracedPart(r, func(p *run) (*trainTotals, error) { return trainSyncUntil(p, time.Now()) })
	if err != nil {
		return err
	}
	job := syncJob()
	cfg := job.bench.Cfg
	var prov etalstm.Provider
	var wire, dense, lateFolds int64
	var last *stepper
	steps := 0
	deadline := r.at(0.8)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		seed := roundSeed(r.seed, round)
		prov, _ = roundData(job.bench, syncWorkers*job.batches, seed)
		s, err := setupSync(cfg, seed)
		if err != nil {
			return err
		}
		steppers := make([]*stepper, syncWorkers)
		for i, w := range s.workers {
			if steppers[i], err = newStepper(s.nets[i], etalstm.Baseline, false, 0, w, r.spans); err != nil {
				s.abort()
				return err
			}
		}
		losses := make([][]float64, syncWorkers)
		errs := make([]error, syncWorkers)
		var wg sync.WaitGroup
		for i := range steppers {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				p := shardProvider{p: prov, index: shard(prov.NumBatches(), i)}
				for e := 0; e < job.epochs; e++ {
					loss, err := steppers[i].epoch(p, e)
					if err != nil {
						errs[i] = err
						s.workers[i].Close()
						s.coord.Close()
						return
					}
					losses[i] = append(losses[i], loss)
				}
			}(i)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			s.abort()
			return err
		}
		for i, w := range s.workers {
			wire += w.WireBytes()
			dense += w.DenseBytes()
			steps += len(losses[i]) * job.batches
			for range len(losses[i]) * job.batches {
				r.op(nil)
			}
		}
		lateFolds += s.coord.LateFolds()
		if err := s.close(); err != nil {
			return fmt.Errorf("coordinator: %w", err)
		}
		if round == 0 {
			checkMirror(r, meanLosses(losses), tot.losses[0])
		}
		checkSync(r, s.nets)
		last = steppers[0]
	}
	r.set("bench.trace_overhead_pct", "%", traceOverhead(tot.steps, r.spans))
	reportSteps(r, last)
	reduce := r.spans.durations("dist.reduce")
	r.set("dist.reduce_ms_p50", "ms", nsToMs(quantile(reduce, 0.5)))
	r.set("dist.reduce_ms_p90", "ms", nsToMs(quantile(reduce, 0.9)))
	r.set("dist.wire_kb_per_step", "KiB", float64(wire)/1024/float64(steps))
	r.set("dist.late_folds", "count", float64(lateFolds))
	r.set("compress.ratio", "ratio", float64(dense)/float64(wire))

	grads := last.net.NewGradients()
	batch := prov.Batch(0)
	res, err := last.net.Forward(batch.Inputs, batch.Targets, model.BaselinePolicy())
	if err != nil {
		return err
	}
	if err := last.net.Backward(res, model.BaselinePolicy(), grads, model.BackwardOpts{}); err != nil {
		return err
	}
	probeCompress(r, grads, syncCompression.KeepFrac)
	probeTensor(r, cfg.Batch, cfg.Hidden)
	probeDenseCells(r, last.net, newCellInputs(last.net, batch.Inputs[0], r.seed))
	return nil
}
