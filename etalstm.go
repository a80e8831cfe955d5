// Package etalstm is the public API of the η-LSTM reproduction: a pure
// Go library for training large LSTM models with the paper's
// memory-saving optimizations (MS1 execution reordering + compression,
// MS2 BP-cell skipping), plus the accelerator and GPU cost models that
// regenerate every table and figure of the paper's evaluation.
//
// Quickstart:
//
//	bench, _ := etalstm.BenchmarkByName("IMDB")
//	small := bench.Scaled(64, 16, 8)
//	net, _ := etalstm.NewNetwork(small.Cfg, 42)
//	tr := etalstm.NewTrainer(net, etalstm.Combined, etalstm.TrainerOptions{})
//	stats, _ := tr.Run(context.Background(), small.Provider(4, 1), 10)
//
// Training is data-parallel: TrainerOptions.Workers shards each epoch's
// minibatches across replica workers with a deterministic gradient
// all-reduce (see TrainerOptions.Workers and SetWorkers for the two
// parallelism levels). The experiment harnesses are exposed through
// RunExperiment; the architecture comparison through CompareScenarios.
// See README.md for the full tour and DESIGN.md for the system
// inventory.
package etalstm

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"

	"etalstm/internal/core"
	"etalstm/internal/corpus"
	"etalstm/internal/dist"
	"etalstm/internal/memplan"
	"etalstm/internal/model"
	"etalstm/internal/persist"
	"etalstm/internal/rng"
	"etalstm/internal/serve"
	"etalstm/internal/tensor"
	"etalstm/internal/traffic"
	"etalstm/internal/train"
	"etalstm/internal/workload"
)

// Config describes a stacked LSTM model (hidden size, layer number,
// layer length, batch, loss topology).
type Config = model.Config

// LossKind selects the loss topology (single, per-timestamp,
// regression) — the property that determines which BP cells MS2 may
// skip.
type LossKind = model.LossKind

// The three loss topologies.
const (
	SingleLoss       = model.SingleLoss
	PerTimestampLoss = model.PerTimestampLoss
	RegressionLoss   = model.RegressionLoss
)

// Network is a stacked LSTM with a linear output projection.
type Network = model.Network

// Targets carries minibatch supervision.
type Targets = model.Targets

// Batch is one minibatch of inputs and supervision.
type Batch = train.Batch

// Provider supplies the minibatches of an epoch.
type Provider = train.Provider

// Optimizer applies gradients; SGD and Adam are provided.
type Optimizer = train.Optimizer

// SGD is stochastic gradient descent with optional momentum.
type SGD = train.SGD

// Adam is the Adam optimizer.
type Adam = train.Adam

// Benchmark couples a paper Table I geometry with a synthetic task
// generator.
type Benchmark = workload.Benchmark

// NewNetwork builds a stacked LSTM with seeded initialization.
func NewNetwork(cfg Config, seed uint64) (*Network, error) {
	return model.NewNetwork(cfg, rng.New(seed))
}

// Benchmarks returns the six Table I benchmarks with the paper's exact
// geometry.
func Benchmarks() []Benchmark { return workload.Suite() }

// BenchmarkByName looks a benchmark up by its paper name (TREC-10,
// PTB, IMDB, WAYMO, WMT, BABI).
func BenchmarkByName(name string) (Benchmark, error) { return workload.ByName(name) }

// Mode selects which of η-LSTM's software optimizations a Trainer
// applies.
type Mode int

// Training modes, mirroring the paper's comparison cases.
const (
	// Baseline stores raw intermediates and executes every BP cell.
	Baseline Mode = iota
	// MS1 reorders execution: BP-EW-P1 is computed during FW and
	// near-zero pruned (Sec. IV-A).
	MS1
	// MS2 predicts and skips insignificant BP cells (Sec. IV-B).
	MS2
	// Combined applies both (the paper's Combine-MS).
	Combined
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Baseline:
		return "Baseline"
	case MS1:
		return "MS1"
	case MS2:
		return "MS2"
	case Combined:
		return "Combine-MS"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// NoClip disables gradient clipping when assigned to
// TrainerOptions.Clip (any negative value works; this constant is the
// readable spelling).
const NoClip = -1

// GradientSync is the transport seam of a training step: the stage
// that merges one step's gradient contributions, possibly across
// processes. Supply one through TrainerOptions.Sync; nil keeps the
// built-in deterministic in-process all-reduce. NewCompressedSync and
// DialSync build the provided implementations.
type GradientSync = train.GradientSync

// CompressOptions tunes gradient compression on syncs that support it:
// top-k fraction or MS1-style near-zero threshold.
type CompressOptions = dist.CompressOptions

// CompressedSync sparsifies each replica's gradient contribution with
// per-replica error feedback before merging — MS1's (value, index)
// compression applied to all-reduce traffic. Its byte accounting (and
// the etalstm_dist_* instruments) reports the wire cost the payloads
// would have on the TCP transport.
type CompressedSync = dist.Compressed

// Coordinator is the merge hub of multi-process data-parallel
// training: it collects worker gradient frames, merges them
// deterministically, and broadcasts the result. It never trains.
type Coordinator = dist.Coordinator

// CoordinatorOptions configures a Coordinator: worker count, quorum +
// deadline for bounded-staleness admission, downlink compression.
type CoordinatorOptions = dist.CoordinatorOptions

// WorkerSync is the worker-process side of the TCP gradient transport;
// it implements GradientSync.
type WorkerSync = dist.Worker

// WorkerSyncOptions configures a WorkerSync (uplink compression, dial
// timeout).
type WorkerSyncOptions = dist.WorkerOptions

// NewCompressedSync builds an in-process compressed gradient sync.
func NewCompressedSync(opts CompressOptions) *CompressedSync {
	return &dist.Compressed{Opts: opts}
}

// StartCoordinator starts a gradient-merge coordinator for a
// multi-process run of cfg-shaped models. It returns once the listener
// is bound; the session serves in the background until every worker
// disconnects (Coordinator.Wait returns nil) or Close is called.
func StartCoordinator(addr string, cfg Config, opts CoordinatorOptions) (*Coordinator, error) {
	return dist.StartCoordinator(addr, cfg, opts)
}

// DialSync connects a worker process to a coordinator and blocks until
// the full worker set has joined. Plug the returned sync into
// TrainerOptions.Sync; its ID/Total report this process's position for
// sharding the data provider.
func DialSync(addr string, cfg Config, opts WorkerSyncOptions) (*WorkerSync, error) {
	return dist.Dial(addr, cfg, opts)
}

// TrainerOptions tunes a Trainer; zero values select the paper's
// operating points.
type TrainerOptions struct {
	// Optimizer defaults to Adam(lr=0.01).
	Optimizer Optimizer
	// Clip is the max gradient L2 norm (0 = 5; negative, e.g. NoClip,
	// disables clipping entirely).
	Clip float64
	// Workers is the data-parallel replica count. 0 derives a count
	// from runtime.NumCPU() (capped at 8); 1 is one replica, the network
	// itself (one optimizer step per minibatch, bitwise identical to the
	// classic serial loop); > 1 shards each epoch's minibatches across
	// that many replicas with one optimizer step per group of Workers
	// batches, merged by a deterministic tree all-reduce — reproducible
	// run-to-run for any fixed worker count. Replica workers multiply
	// with the kernel-level parallelism set by SetWorkers; see
	// SetWorkers for the combined tuning story.
	Workers int
	// PruneThreshold is MS1's near-zero cutoff (0 = 0.1).
	PruneThreshold float32
	// SparseBackward routes BP through the pair-driven sparse kernels,
	// which touch only the P1 pairs surviving MS1's pruning — BP-EW-P2
	// and BP-MatMul time shrinks with the measured prune ratio. Only
	// meaningful in MS1/Combined modes; at a zero effective threshold
	// the result is bitwise identical to the dense path.
	SparseBackward bool
	// BackwardTopK, with SparseBackward, caps each batch row of the
	// weight-gradient MatMuls to its BackwardTopK largest-|δgate|
	// columns (Zhu et al., arXiv:1806.00512). 0 disables; ≥ hidden size
	// is the identity.
	BackwardTopK int
	// StoreF16 rounds the stored P1 intermediates to float16 precision
	// (compute stays float32), halving what the compressed activation
	// store holds. Only meaningful in MS1/Combined modes.
	StoreF16 bool
	// SkipThreshold is MS2's significance cutoff (0 = 0.08).
	SkipThreshold float64
	// MaxSkipFrac caps MS2's skipped share per layer (0 = 0.5).
	MaxSkipFrac float64
	// WarmupEpochs run unskipped before Eq. 5 has history (0 = 3).
	WarmupEpochs int
	// MemoryBudget caps the stored activation bytes of one FW+BP pass
	// per replica (0 = classic full-storage BPTT). A positive budget
	// below the full-storage peak switches the trainer to checkpointed
	// BPTT: only the placement's (h,s) columns are kept through FW and
	// the segments between them are recomputed during BP, with losses
	// and gradients bitwise identical to full storage. PlanFor previews
	// the placement a budget buys; Trainer.Plan returns the one in use.
	// An infeasible budget (below even per-step checkpointing) fails at
	// the first RunEpoch with a diagnostic.
	MemoryBudget int64
	// RecordPhases enables per-phase span recording (see
	// Trainer.Phases). Off by default; disabled recording costs one nil
	// test per phase boundary, so the FW/BP hot path stays
	// allocation-free either way.
	RecordPhases bool
	// Sync routes each optimizer step's gradient merge through a
	// transport (NewCompressedSync for in-process compression, DialSync
	// to join a multi-process run). nil keeps the built-in deterministic
	// in-process tree all-reduce. The trainer owns the averaging: it
	// divides by the contribution count the sync reports, so a
	// distributed sync makes this trainer one member of a larger
	// data-parallel group.
	Sync GradientSync
}

// Trainer trains a Network under the selected optimization mode.
type Trainer struct {
	inner *core.Trainer
	mode  Mode
}

// EpochStats reports one epoch's loss and optimization behaviour.
type EpochStats = core.Stats

// defaultReplicaWorkers derives the replica count for Workers == 0: one
// replica per CPU, capped so replica- and kernel-level parallelism do
// not oversubscribe wildly on very wide machines.
func defaultReplicaWorkers() int {
	w := runtime.NumCPU()
	if w > 8 {
		w = 8
	}
	if w < 1 {
		w = 1
	}
	return w
}

// NewTrainer builds a trainer for net in the given mode.
func NewTrainer(net *Network, mode Mode, opts TrainerOptions) *Trainer {
	opt := opts.Optimizer
	if opt == nil {
		opt = &train.Adam{LR: 0.01}
	}
	clip := opts.Clip
	switch {
	case clip == 0:
		clip = 5
	case clip < 0:
		clip = 0 // an explicit "no clipping" request
	}
	workers := opts.Workers
	if workers == 0 {
		workers = defaultReplicaWorkers()
	}
	cfg := core.Config{
		EnableMS1:      mode == MS1 || mode == Combined,
		EnableMS2:      mode == MS2 || mode == Combined,
		PruneThreshold: opts.PruneThreshold,
		SparseBackward: opts.SparseBackward,
		BackwardTopK:   opts.BackwardTopK,
		StoreF16:       opts.StoreF16,
		SkipThreshold:  opts.SkipThreshold,
		MaxSkipFrac:    opts.MaxSkipFrac,
		WarmupEpochs:   opts.WarmupEpochs,
		MemoryBudget:   opts.MemoryBudget,
	}
	inner := core.New(net, opt, clip, cfg)
	inner.Workers = workers
	inner.Sync = opts.Sync
	inner.RecordPhases = opts.RecordPhases
	return &Trainer{inner: inner, mode: mode}
}

// Mode returns the trainer's optimization mode.
func (t *Trainer) Mode() Mode { return t.mode }

// Workers returns the trainer's resolved data-parallel replica count.
func (t *Trainer) Workers() int { return t.inner.Workers }

// Run trains for epochs epochs over p. ctx cancels training between
// minibatch groups; the returned error is then ctx.Err() and the stats
// of fully completed epochs are still returned.
func (t *Trainer) Run(ctx context.Context, p Provider, epochs int) ([]EpochStats, error) {
	return t.inner.Run(ctx, p, epochs)
}

// RunEpoch trains a single epoch, honouring ctx as Run does.
func (t *Trainer) RunEpoch(ctx context.Context, p Provider, epoch int) (EpochStats, error) {
	return t.inner.RunEpoch(ctx, p, epoch)
}

// Losses returns the recorded per-epoch mean losses.
func (t *Trainer) Losses() []float64 { return t.inner.Losses() }

// Plan returns the checkpoint placement this trainer uses for its
// MemoryBudget. With no budget (or one the full-storage peak fits) the
// placement is a single segment and Plan().FullStorage() is true.
func (t *Trainer) Plan() Plan { return *t.inner.Placement() }

// Analyze evaluates both analytic cost models — per-step DRAM traffic
// and training memory footprint — for this trainer's own network at its
// measured operating point (the P1 sparsity its pruning actually
// achieved, the skip fraction its latest plan actually chose), rather
// than the paper's defaults the package-level Analyze assumes.
func (t *Trainer) Analyze() Analysis {
	sparsity, skipFrac := t.inner.OperatingPoint()
	return analyzeAt(t.inner.Net.Cfg, t.mode, sparsity, skipFrac)
}

// Footprint is a memory footprint split by the paper's categories
// (bytes).
type Footprint struct {
	Parameter    int64
	Activations  int64
	Intermediate int64
}

// Total returns the summed footprint.
func (f Footprint) Total() int64 { return f.Parameter + f.Activations + f.Intermediate }

// Evaluate runs forward-only over p and returns mean loss and
// classification accuracy (0 for regression models).
func Evaluate(net *Network, p Provider) (meanLoss, accuracy float64, err error) {
	return train.Evaluate(net, p)
}

// EvaluateMAE returns the mean absolute error of a regression model.
func EvaluateMAE(net *Network, p Provider) (float64, error) {
	return train.EvaluateMAE(net, p)
}

// Movement is DRAM traffic in bytes by category.
type Movement struct {
	Weights       int64
	Activations   int64
	Intermediates int64
}

// Total returns the summed traffic.
func (m Movement) Total() int64 { return m.Weights + m.Activations + m.Intermediates }

// Analysis couples the two analytic cost models for one configuration
// under one optimization mode: the per-step DRAM traffic (Movement) and
// the training memory footprint (Footprint), both at the paper's
// operating points (65 % P1 sparsity, geometry-derived skip fraction).
type Analysis struct {
	Cfg       Config
	Mode      Mode
	Movement  Movement
	Footprint Footprint
}

// memMode maps a public training Mode onto the memplan cost-model mode.
func memMode(mode Mode) memplan.Mode {
	switch mode {
	case MS1:
		return memplan.MS1
	case MS2:
		return memplan.MS2
	case Combined:
		return memplan.Combined
	}
	return memplan.Baseline
}

// analyzeAt evaluates both analytic models at an explicit operating
// point — the shared core of Analyze (paper defaults) and
// Trainer.Analyze (measured values).
func analyzeAt(cfg Config, mode Mode, p1Sparsity, skipFrac float64) Analysis {
	var m traffic.Movement
	switch mode {
	case MS1:
		m = traffic.WithMS1(cfg, p1Sparsity)
	case MS2:
		m = traffic.WithMS2(cfg, skipFrac)
	case Combined:
		m = traffic.Combined(cfg, p1Sparsity, skipFrac)
	default:
		m = traffic.Baseline(cfg)
	}
	mp := memplan.Params{P1KeepRatio: memplan.FromSparsity(p1Sparsity), SkipFrac: skipFrac}
	b := memplan.Footprint(cfg, memMode(mode), mp)
	return Analysis{
		Cfg:       cfg,
		Mode:      mode,
		Movement:  Movement{Weights: m.Weights, Activations: m.Activations, Intermediates: m.Intermediates},
		Footprint: Footprint{Parameter: b.Parameter, Activations: b.Activations, Intermediate: b.Intermediate},
	}
}

// Analyze models cfg under mode and returns both the DRAM traffic and
// the memory footprint in one call, at the paper's operating points
// (65 % P1 sparsity, geometry-derived skip fraction). Use Trainer.Analyze for a trained run's measured operating point, and
// PlanFor for what a memory budget does to the training loop itself.
func Analyze(cfg Config, mode Mode) Analysis {
	p := defaultOptParams(cfg)
	return analyzeAt(cfg, mode, p.P1Sparsity, p.SkipFrac)
}

// Plan is a checkpointed-BPTT placement: which (h,s) columns FW keeps
// resident, the segments recomputed during BP, and the predicted peak
// bytes / recompute overhead that buys. Produce one with PlanFor or
// read a trainer's active placement with Trainer.Plan.
type Plan = memplan.Placement

// PlanFor plans checkpointed BPTT for cfg under mode within budget
// bytes — the planning half of TrainerOptions.MemoryBudget, exposed so
// callers can preview what a budget costs (Plan.RecomputeRatio,
// Plan.PredictedPeak) before committing to a training run. budget <= 0,
// or one the full-storage peak already fits, returns the trivial
// single-segment placement (Plan.FullStorage() == true); a budget no
// placement can satisfy returns Plan.Feasible == false.
func PlanFor(cfg Config, mode Mode, budget int64) Plan {
	return memplan.Plan(cfg, memMode(mode), budget)
}

// SetWorkers sets the kernel-level parallelism: how many goroutines a
// single tensor kernel (MatMul, element-wise ops) may fan out to
// (clamped to >= 1). It returns the previous value. This is the inner
// of the two parallelism levels — TrainerOptions.Workers controls the
// outer, replica level. The two multiply: total concurrency is roughly
// replicas × kernel workers, so on a machine with C cores the usual
// tunings are {Workers: C, SetWorkers(1)} for epoch throughput on small
// models (replica parallelism has less synchronization overhead than
// per-kernel fan-out) or {Workers: 1, SetWorkers(C)} for the lowest
// single-batch latency on large models. The default — Workers derived
// from NumCPU and kernel workers at GOMAXPROCS — oversubscribes mildly,
// which the Go scheduler absorbs; pin one of the two levels to 1 when
// profiling.
func SetWorkers(n int) int { return tensor.SetWorkers(n) }

// Workers returns the current kernel-level parallelism (see SetWorkers).
func Workers() int { return tensor.Workers() }

// SaveNetwork writes a trained network to path in the versioned binary
// checkpoint format (CRC-protected, atomic rename).
func SaveNetwork(path string, net *Network) error {
	return persist.SaveFile(path, net)
}

// LoadNetwork reads a checkpoint written by SaveNetwork.
func LoadNetwork(path string) (*Network, error) {
	return persist.LoadFile(path)
}

// CheckConfig compares a loaded checkpoint's geometry against the
// caller's expectation and reports every differing field by name with
// got/want values (nil when they match).
func CheckConfig(got, want Config) error { return persist.CheckConfig(got, want) }

// Server is a model inference server: it loads one checkpoint and
// serves it over HTTP+JSON, coalescing concurrent requests into dense
// micro-batches (see internal/serve and DESIGN.md §9).
type Server = serve.Server

// ServeOptions tunes a Server; zero values select sensible defaults
// (MaxBatch 32; Window 0 = dispatch as soon as a worker is free; worker
// pool sized from NumCPU).
type ServeOptions = serve.Options

// ServeStats is a Server's self-reported operational snapshot (also
// served as JSON at /statz).
type ServeStats = serve.Stats

// InferResult is one inference answer: the final-timestep output
// vector and the argmax class (-1 for regression models).
type InferResult = serve.Result

// NewServer builds an inference server around a trained network. The
// caller owns shutdown: either cancel the context given to
// Server.Serve or call Server.Close.
func NewServer(net *Network, opts ServeOptions) *Server { return serve.New(net, "", opts) }

// Infer answers a batch of variable-length sequences in one packed
// sweep — the library-level entry to the serving path, without the
// HTTP server or micro-batching queue.
func Infer(net *Network, seqs [][][]float32) ([]InferResult, error) {
	return serve.Infer(net, seqs)
}

// State carries recurrent state across sequence chunks for truncated
// BPTT (see Network.ForwardCheckpointed / Network.ZeroState).
type State = model.State

// ForwardResult is one forward pass (see Network.Forward).
type ForwardResult = model.ForwardResult

// Gradients collects a backward pass's weight gradients.
type Gradients = model.Gradients

// BackwardOpts tunes Network.Backward.
type BackwardOpts = model.BackwardOpts

// StoragePolicy selects per-cell storage for manual training loops;
// most users should use Trainer instead.
type StoragePolicy = model.StoragePolicy

// Matrix is the dense float32 matrix inputs and targets are built from.
type Matrix = tensor.Matrix

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix { return tensor.New(rows, cols) }

// Corpus is tokenized user text for byte-level language modeling.
type Corpus = corpus.Corpus

// LoadCorpus tokenizes text from r for next-byte prediction with the
// given embedding width.
func LoadCorpus(r io.Reader, embedDim int, seed uint64) (*Corpus, error) {
	return corpus.Load(r, embedDim, seed)
}

// LoadCorpusFile tokenizes a text file.
func LoadCorpusFile(path string, embedDim int, seed uint64) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return corpus.Load(f, embedDim, seed)
}
