package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"etalstm"
	"etalstm/internal/persist"
)

// Every training workload trains the IMDB task in rounds: a round is
// one complete user training job — set up a network and trainer, train
// epochs × batches minibatches from epoch 0, check the outcome. Rounds
// repeat, each on its own dataset, until the timed window is spent.
type trainJob struct {
	bench   etalstm.Benchmark
	epochs  int
	batches int // minibatches per epoch (per worker on train_sync)
}

// serialJob is train_dense's and train_eta's job: the task's full
// T=100 at H=64, D=16, L=3, B=16. At this length the stored
// intermediates are a visible share of the process's memory, so MS1/MS2
// footprint work shows in peak_rss_mb; six epochs let train_eta run
// half its steps after MS2's three warm-up epochs.
func serialJob() trainJob { return trainJob{bench: imdb(32, 100, 16), epochs: 6, batches: 2} }

// syncJob is train_sync's job: short steps (T=16, B=4), so the gradient
// exchange is a visible share of each one.
func syncJob() trainJob { return trainJob{bench: imdb(32, 16, 4), epochs: 6, batches: 8} }

const (
	// warmupEpochs is MS2's default warm-up (TrainerOptions.WarmupEpochs
	// = 0 means 3); train_eta checks skipping only after it.
	warmupEpochs = 3
	// An untraced run times set-up setupMin to setupMax times, for up to
	// setupBudget, before the first round; setup_s is the median.
	setupMin    = 21
	setupMax    = 401
	setupBudget = 800 * time.Millisecond
	// heldOutBatches is the size of the held-out set train.loss_final
	// is measured on.
	heldOutBatches = 4
)

// imdb returns the IMDB benchmark scaled as the workloads use it.
func imdb(hiddenDiv, seq, batch int) etalstm.Benchmark {
	b, err := etalstm.BenchmarkByName("IMDB")
	if err != nil {
		panic(err) // the suite always has IMDB
	}
	return b.Scaled(hiddenDiv, seq, batch)
}

// netSeed derives the weight-initialisation seed from a data seed.
func netSeed(seed uint64) uint64 { return seed*0x9E3779B97F4A7C15 + 1 }

// roundSeed derives round i's data seed from the workload seed. Each
// round trains its own dataset, so a run's throughput averages over as
// many datasets as it has rounds (MS1's prune ratio and MS2's skip plan,
// and with them the work per step, depend on the data).
func roundSeed(seed uint64, i int) uint64 { return seed*1000003 + uint64(i) }

// roundData generates a round's n training batches followed by the
// held-out batches train.loss_final is measured on. Both come from one
// provider, because a provider's seed also draws the task's token
// embedding: batches of another seed are another task.
func roundData(b etalstm.Benchmark, n int, seed uint64) (train, held etalstm.Provider) {
	p := b.Provider(n+heldOutBatches, seed)
	return window(p, 0, n), window(p, n, n+heldOutBatches)
}

// window is the provider of p's batches lo to hi-1.
func window(p etalstm.Provider, lo, hi int) etalstm.Provider {
	idx := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		idx = append(idx, i)
	}
	return shardProvider{p: p, index: idx}
}

// timeSetups times fn at least setupMin times, and more while the
// budget lasts, and returns the durations in seconds. Each set-up starts
// from a collected heap, as in a fresh process, so neither its time nor
// the process's peak memory depends on when the previous set-ups'
// garbage happens to be collected.
func timeSetups(fn func() error) ([]float64, error) {
	var out []float64
	start := time.Now()
	for len(out) < setupMin || (len(out) < setupMax && time.Since(start) < setupBudget) {
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// stepClock wraps a Provider and times each step from one Batch call to
// the next: the step time the trainer itself sees. finish closes the
// last step of an epoch once RunEpoch has returned.
type stepClock struct {
	p    etalstm.Provider
	last time.Time
	cur  []float64 // step times (ms) of the epoch in progress
	// epochs are the step times of each finished epoch.
	epochs [][]float64
}

func (c *stepClock) NumBatches() int { return c.p.NumBatches() }

func (c *stepClock) Batch(i int) etalstm.Batch {
	now := time.Now()
	if !c.last.IsZero() {
		c.cur = append(c.cur, ms(now.Sub(c.last)))
	}
	c.last = now
	return c.p.Batch(i)
}

func (c *stepClock) finish() {
	if !c.last.IsZero() {
		c.cur = append(c.cur, ms(time.Since(c.last)))
		c.last = time.Time{}
	}
	c.epochs = append(c.epochs, c.cur)
	c.cur = nil
}

// trainTotals accumulates what a training run's rounds measured.
type trainTotals struct {
	setups []float64 // seconds
	// best[e] holds the step times of the fastest finished instance of
	// epoch e over the run's rounds, bestMs[e] its duration.
	best   [][]float64
	bestMs []float64
	// seqs is the number of sequences one epoch trains.
	seqs int
	// losses[i] are round i's per-epoch mean losses (nil for a round
	// the deadline cut short).
	losses [][]float64
	// steps are the step times (ms) of round 0, which a traced run
	// compares its traced steps with.
	steps []float64
}

func newTrainTotals(job trainJob, seqs int) *trainTotals {
	return &trainTotals{best: make([][]float64, job.epochs), bestMs: make([]float64, job.epochs), seqs: seqs}
}

// epoch records a finished instance of epoch e that took dur ms.
func (t *trainTotals) epoch(e int, steps []float64, dur float64) {
	if t.best[e] == nil || dur < t.bestMs[e] {
		t.best[e], t.bestMs[e] = steps, dur
	}
	if len(t.losses) == 0 {
		t.steps = append(t.steps, steps...)
	}
}

// report sets the training metrics: setup_s on an untraced run, and on
// the untraced part of a traced run the throughput and step time of a
// round composed of each epoch's fastest instance across the run's
// rounds. Other tenants of the machine stall stretches of a run for a
// second or more, and the best of several instances of the same epoch
// is the steadiest measure of the program's own speed that still keeps
// every epoch, warm-up included, in its share.
func (t *trainTotals) report(r *run) {
	if !r.traced {
		r.set("setup_s", "s", median(t.setups))
		return
	}
	var steps []float64
	total := 0.0
	for e := range t.best {
		steps = append(steps, t.best[e]...)
		total += t.bestMs[e]
	}
	r.set("core.seq_per_s", "1/s", float64(len(t.best)*t.seqs)/(total/1000))
	r.set("core.step_ms_p50", "ms", median(steps))
}

// checkLosses checks that every epoch loss of a whole round is finite.
func checkLosses(r *run, losses []float64) {
	finite := true
	for _, l := range losses {
		finite = finite && !math.IsNaN(l) && !math.IsInf(l, 0)
	}
	r.check(finite, "non-finite epoch loss in %v", losses)
}

// checkImproved checks that training learns: over the run's whole
// rounds, the mean final-epoch loss beats the mean epoch-0 loss. A single
// short job on one small dataset may end no better than it began (its
// loss can sit at chance, or spike in the last epoch), so rounds that
// did not improve are noted on stderr, not failed.
func checkImproved(r *run, rounds [][]float64) {
	var first, final float64
	n := 0
	for i, l := range rounds {
		if l == nil {
			continue
		}
		first += l[0]
		final += l[len(l)-1]
		n++
		if l[len(l)-1] >= l[0] {
			fmt.Fprintf(os.Stderr, "perfbench: note: round %d did not improve: %v\n", i, l)
		}
	}
	r.check(n > 0 && final < first, "mean final-epoch loss %.4f does not beat mean epoch-0 loss %.4f over %d rounds",
		final/float64(n), first/float64(n), n)
}

// serialSpec is one single-worker training workload.
type serialSpec struct {
	mode etalstm.Mode
	opts func(cfg etalstm.Config) etalstm.TrainerOptions
	// check inspects each whole round's epoch stats (nil = none beyond
	// the loss checks).
	check func(r *run, cfg etalstm.Config, stats []etalstm.EpochStats)
}

// denseSpec is train_dense: Baseline mode, full-storage BPTT, dense BP,
// the CLI's serial trainer.
var denseSpec = serialSpec{
	mode: etalstm.Baseline,
	opts: func(etalstm.Config) etalstm.TrainerOptions { return etalstm.TrainerOptions{Workers: 1} },
}

// etaBudget is train_eta's memory budget: a third of the full-storage
// peak of the Combined-mode plan.
func etaBudget(cfg etalstm.Config) int64 {
	return etalstm.PlanFor(cfg, etalstm.Combined, 0).FullPeak / 3
}

// etaSpec is train_eta: Combined mode (MS1 prune at its default 0.1,
// MS2 with its default warm-up), sparse BP and checkpointed BPTT under
// a third of the full-storage peak.
var etaSpec = serialSpec{
	mode: etalstm.Combined,
	opts: func(cfg etalstm.Config) etalstm.TrainerOptions {
		return etalstm.TrainerOptions{Workers: 1, SparseBackward: true, MemoryBudget: etaBudget(cfg)}
	},
	check: func(r *run, cfg etalstm.Config, stats []etalstm.EpochStats) {
		budget := etaBudget(cfg)
		for _, st := range stats {
			r.check(st.PeakStoredBytes > 0 && st.PeakStoredBytes <= budget,
				"epoch %d stored %d B against a budget of %d B", st.Epoch, st.PeakStoredBytes, budget)
			if st.Epoch >= warmupEpochs {
				r.check(st.PruneStats.Frac() > 0, "epoch %d pruned nothing", st.Epoch)
				r.check(st.MeasuredSkipFrac() > 0, "epoch %d skipped no BP cell after warm-up", st.Epoch)
			}
		}
	},
}

func trainDense(r *run) error {
	_, err := trainSerial(r, denseSpec, r.at(1))
	return err
}

func trainEta(r *run) error {
	_, err := trainSerial(r, etaSpec, r.at(1))
	return err
}

// serialSetup builds round seed's network and trainer and plans its
// memory — everything before the first step.
func serialSetup(spec serialSpec, cfg etalstm.Config, seed uint64) (*etalstm.Network, *etalstm.Trainer, error) {
	net, err := etalstm.NewNetwork(cfg, netSeed(seed))
	if err != nil {
		return nil, nil, err
	}
	tr := etalstm.NewTrainer(net, spec.mode, spec.opts(cfg))
	if !tr.Plan().Feasible {
		return nil, nil, errors.New("memory budget is infeasible")
	}
	return net, tr, nil
}

// trainSerial runs the rounds of a single-worker training workload
// through the public Trainer API on its default settings until
// deadline, reports its metrics (see trainTotals.report) and returns the
// totals.
func trainSerial(r *run, spec serialSpec, deadline time.Time) (*trainTotals, error) {
	job := serialJob()
	cfg := job.bench.Cfg
	tot := newTrainTotals(job, job.batches*cfg.Batch)
	if !r.traced {
		var err error
		tot.setups, err = timeSetups(func() error {
			_, _, err := serialSetup(spec, cfg, roundSeed(r.seed, 0))
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	for len(tot.losses) == 0 || time.Now().Before(deadline) {
		seed := roundSeed(r.seed, len(tot.losses))
		prov, held := roundData(job.bench, job.batches, seed)
		net, tr, err := serialSetup(spec, cfg, seed)
		if err != nil {
			return nil, err
		}
		// The first round always completes, so every run checks one
		// whole job; later rounds stop at the deadline between steps.
		ctx, cancel := context.Background(), context.CancelFunc(func() {})
		if len(tot.losses) > 0 {
			ctx, cancel = context.WithDeadline(ctx, deadline)
		}
		clock := &stepClock{p: prov}
		var stats []etalstm.EpochStats
		var losses []float64
		cut := false
		for e := 0; e < job.epochs; e++ {
			st, err := tr.RunEpoch(ctx, clock, e)
			clock.finish()
			steps := clock.epochs[e]
			for range steps {
				r.op(nil)
			}
			if errors.Is(err, context.DeadlineExceeded) {
				cut = true
				break
			}
			if err != nil {
				cancel()
				return nil, fmt.Errorf("round %d epoch %d: %w", len(tot.losses), e, err)
			}
			tot.epoch(e, steps, sum(steps))
			stats = append(stats, st)
			losses = append(losses, st.MeanLoss)
		}
		cancel()
		if cut {
			losses = nil
		} else {
			checkLosses(r, losses)
			if spec.check != nil {
				spec.check(r, cfg, stats)
			}
		}
		if len(tot.losses) == 0 && r.traced {
			if err := reportLossFinal(r, net, held); err != nil {
				return nil, err
			}
		}
		tot.losses = append(tot.losses, losses)
	}
	checkImproved(r, tot.losses)
	tot.report(r)
	return tot, nil
}

// reportLossFinal sets train.loss_final: the held-out loss of round 0's
// network after its whole job — a fixed number of samples, so the
// window's length and the machine's speed cannot move it.
func reportLossFinal(r *run, net *etalstm.Network, held etalstm.Provider) error {
	loss, _, err := etalstm.Evaluate(net, held)
	if err != nil {
		return err
	}
	r.check(!math.IsNaN(loss) && !math.IsInf(loss, 0), "non-finite held-out loss %v", loss)
	r.set("train.loss_final", "loss", loss)
	return nil
}

// train_sync: two worker trainers joined by a loopback coordinator,
// each on a strided shard, compressed both ways.
var syncCompression = etalstm.CompressOptions{KeepFrac: 0.05, WarmupSteps: 4}

const syncWorkers = 2

// syncSession is one round's coordinator and joined workers.
type syncSession struct {
	coord    *etalstm.Coordinator
	workers  []*etalstm.WorkerSync
	nets     []*etalstm.Network
	trainers []*etalstm.Trainer
}

// setupSync starts a coordinator, joins syncWorkers workers to it and
// builds one serial trainer per worker around its sync.
func setupSync(cfg etalstm.Config, seed uint64) (*syncSession, error) {
	coord, err := etalstm.StartCoordinator("127.0.0.1:0", cfg, etalstm.CoordinatorOptions{
		ExpectWorkers: syncWorkers,
		Compression:   &syncCompression,
	})
	if err != nil {
		return nil, err
	}
	s := &syncSession{coord: coord, workers: make([]*etalstm.WorkerSync, syncWorkers)}
	errs := make([]error, syncWorkers)
	var wg sync.WaitGroup
	for i := range s.workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.workers[i], errs[i] = etalstm.DialSync(coord.Addr().String(), cfg,
				etalstm.WorkerSyncOptions{Compression: &syncCompression})
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		s.abort()
		return nil, err
	}
	// Order by the id the coordinator assigned, so worker i trains
	// shard i whichever connection won the race to join.
	ordered := make([]*etalstm.WorkerSync, syncWorkers)
	for _, w := range s.workers {
		ordered[w.ID()] = w
	}
	s.workers = ordered
	for _, w := range s.workers {
		net, err := etalstm.NewNetwork(cfg, netSeed(seed))
		if err != nil {
			s.abort()
			return nil, err
		}
		s.nets = append(s.nets, net)
		s.trainers = append(s.trainers, etalstm.NewTrainer(net, etalstm.Baseline,
			etalstm.TrainerOptions{Workers: 1, Sync: w}))
	}
	return s, nil
}

// close disconnects the workers and waits for the coordinator to end.
func (s *syncSession) close() error {
	for _, w := range s.workers {
		w.Close()
	}
	return s.coord.Wait()
}

// abort tears a session down after a failure: a worker that is gone
// may leave the coordinator waiting, so it is closed rather than
// awaited, which also fails any exchange a peer still has pending.
func (s *syncSession) abort() {
	for _, w := range s.workers {
		if w != nil {
			w.Close()
		}
	}
	s.coord.Close()
	s.coord.Wait()
}

// shard returns worker i's strided share of n batches.
func shard(n, i int) []int {
	var idx []int
	for j := i; j < n; j += syncWorkers {
		idx = append(idx, j)
	}
	return idx
}

// shardProvider visits the batches of p at the given indices.
type shardProvider struct {
	p     etalstm.Provider
	index []int
}

func (c shardProvider) NumBatches() int           { return len(c.index) }
func (c shardProvider) Batch(i int) etalstm.Batch { return c.p.Batch(c.index[i]) }

// checkSync checks that the workers finished in lockstep: bitwise
// identical weights.
func checkSync(r *run, nets []*etalstm.Network) {
	d0, err := persist.Digest(nets[0])
	for _, n := range nets[1:] {
		d, err2 := persist.Digest(n)
		r.check(err == nil && err2 == nil && d == d0, "worker weights diverged (digest %s vs %s)", d0, d)
	}
}

// syncRound trains one round on an open session: every worker runs the
// job's epochs on its shard concurrently. A round is short (about a
// second), so it is never cut at the deadline. It returns the workers' step clocks and the per-epoch losses
// averaged over the workers.
func syncRound(s *syncSession, job trainJob, prov etalstm.Provider) ([]*stepClock, []float64, error) {
	clocks := make([]*stepClock, syncWorkers)
	losses := make([][]float64, syncWorkers)
	errs := make([]error, syncWorkers)
	var wg sync.WaitGroup
	for i := range s.trainers {
		clocks[i] = &stepClock{p: shardProvider{p: prov, index: shard(prov.NumBatches(), i)}}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for e := 0; e < job.epochs; e++ {
				st, err := s.trainers[i].RunEpoch(context.Background(), clocks[i], e)
				clocks[i].finish()
				if err != nil {
					errs[i] = fmt.Errorf("worker %d epoch %d: %w", i, e, err)
					// Disconnect and stop the coordinator, so the peer's
					// pending exchange fails instead of waiting for this
					// worker forever.
					s.workers[i].Close()
					s.coord.Close()
					return
				}
				losses[i] = append(losses[i], st.MeanLoss)
			}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return clocks, nil, err
	}
	return clocks, meanLosses(losses), nil
}

// meanLosses averages per-epoch losses over the workers.
func meanLosses(losses [][]float64) []float64 {
	mean := make([]float64, len(losses[0]))
	for e := range mean {
		for i := range losses {
			mean[e] += losses[i][e] / float64(len(losses))
		}
	}
	return mean
}

// trainSync runs train_sync's rounds: session set-up (coordinator, two
// joined workers, their trainers) then the job's epochs.
func trainSync(r *run) error {
	_, err := trainSyncUntil(r, r.at(1))
	return err
}

func trainSyncUntil(r *run, deadline time.Time) (*trainTotals, error) {
	job := syncJob()
	cfg := job.bench.Cfg
	tot := newTrainTotals(job, syncWorkers*job.batches*cfg.Batch)
	if !r.traced {
		var err error
		tot.setups, err = timeSetups(func() error {
			s, err := setupSync(cfg, roundSeed(r.seed, 0))
			if err != nil {
				return err
			}
			return s.close()
		})
		if err != nil {
			return nil, err
		}
	}
	for len(tot.losses) == 0 || time.Now().Before(deadline) {
		seed := roundSeed(r.seed, len(tot.losses))
		prov, held := roundData(job.bench, syncWorkers*job.batches, seed)
		s, err := setupSync(cfg, seed)
		if err != nil {
			return nil, err
		}
		clocks, losses, err := syncRound(s, job, prov)
		for _, c := range clocks {
			for _, steps := range c.epochs {
				for range steps {
					r.op(nil)
				}
			}
		}
		if err != nil {
			s.abort()
			return nil, err
		}
		if err := s.close(); err != nil {
			return nil, fmt.Errorf("coordinator: %w", err)
		}
		// The workers step in lockstep, so an epoch lasts as long as its
		// slower worker took.
		for e := 0; e < job.epochs; e++ {
			var steps []float64
			dur := 0.0
			for _, c := range clocks {
				steps = append(steps, c.epochs[e]...)
				dur = max(dur, sum(c.epochs[e]))
			}
			tot.epoch(e, steps, dur)
		}
		checkLosses(r, losses)
		checkSync(r, s.nets)
		if len(tot.losses) == 0 && r.traced {
			if err := reportLossFinal(r, s.nets[0], held); err != nil {
				return nil, err
			}
		}
		tot.losses = append(tot.losses, losses)
	}
	checkImproved(r, tot.losses)
	tot.report(r)
	return tot, nil
}
