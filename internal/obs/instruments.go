package obs

// Training instrument names — the stable metric surface the README and
// the obs-smoke target grep for. Declared as constants so tests, CLIs
// and docs cannot drift from the registration site.
const (
	MetricEpochsTotal      = "etalstm_epochs_total"
	MetricEpochLoss        = "etalstm_epoch_loss"
	MetricEpochSeconds     = "etalstm_epoch_seconds"
	MetricGradNorm         = "etalstm_grad_norm"
	MetricClipEventsTotal  = "etalstm_clip_events_total"
	MetricStepLatency      = "etalstm_step_latency_seconds"
	MetricMS1PruneRatio    = "etalstm_ms1_prune_ratio"
	MetricMS1StoredPairs   = "etalstm_ms1_stored_pairs_total"
	MetricSparseBPDensity  = "etalstm_sparse_bp_density"
	MetricMS2SkipRatio     = "etalstm_ms2_skip_ratio"
	MetricMS2PredLossError = "etalstm_ms2_pred_loss_error"
	MetricArenaHitsTotal   = "etalstm_arena_hits_total"
	MetricArenaMissesTotal = "etalstm_arena_misses_total"
	MetricArenaBytesHeld   = "etalstm_arena_bytes_held"
	MetricAllReduceWait    = "etalstm_allreduce_wait_seconds"
	MetricCkptColumns      = "etalstm_ckpt_columns"
	MetricCkptStoredBytes  = "etalstm_ckpt_stored_bytes"
	MetricPeakStoredBytes  = "etalstm_bptt_peak_stored_bytes"
	MetricRecomputeRatio   = "etalstm_recompute_ratio"

	// Gradient-sync (internal/dist) instrument names.
	MetricDistWireBytes    = "etalstm_dist_wire_bytes_total"
	MetricDistDenseBytes   = "etalstm_dist_dense_bytes_total"
	MetricDistCompression  = "etalstm_dist_compression_ratio"
	MetricDistSteps        = "etalstm_dist_steps_total"
	MetricDistStaleSteps   = "etalstm_dist_stale_steps_total"
	MetricDistLateContribs = "etalstm_dist_late_contribs_total"
)

// Train bundles the training-side instruments. One bundle is created
// per trainer against a registry (normally Default); because the
// registry upserts by name, several trainers in one process share the
// counters and the latest writer owns each gauge.
type Train struct {
	// Epochs counts completed epochs; EpochLoss and EpochSeconds hold
	// the latest epoch's mean loss and wall time.
	Epochs       *Counter
	EpochLoss    *Gauge
	EpochSeconds *Gauge

	// GradNorm is the last pre-clip global gradient L2 norm;
	// ClipEvents counts optimizer steps where clipping actually
	// rescaled (norm exceeded the limit).
	GradNorm   *Gauge
	ClipEvents *Counter

	// StepLatency is the per-optimizer-step wall time (one step per
	// minibatch serial, one per group data-parallel).
	StepLatency *Histogram

	// MS1: the near-zero prune ratio of the latest epoch and the
	// cumulative value+index pairs the compressed P1 store holds
	// (kept = seen − pruned).
	MS1PruneRatio  *Gauge
	MS1StoredPairs *Counter

	// SparseBPDensity is the fraction of P1 operands the sparse backward
	// kernels actually touched in the latest epoch (1 − prune ratio;
	// stays 0 unless the trainer runs with SparseBackward). BP-EW-P2 and
	// BP-MatMul span time should track this gauge.
	SparseBPDensity *Gauge

	// MS2: the measured skipped-BP-cell ratio of the latest epoch and
	// the absolute error of the Eq. 5 loss extrapolation against the
	// loss the epoch actually produced.
	MS2SkipRatio     *Gauge
	MS2PredLossError *Gauge

	// Workspace arenas, aggregated over the master network and every
	// replica: cumulative free-list hits/misses and the bytes currently
	// held in free lists.
	ArenaHits   *Counter
	ArenaMisses *Counter
	ArenaBytes  *Gauge

	// AllReduceWait is the per-replica straggler wait: how long each
	// finished replica sat idle before its group's all-reduce began.
	AllReduceWait *Histogram

	// BPTT storage: the active plan's segment starts and the bytes its
	// checkpoint columns pin, the measured peak of stored activation
	// bytes over the latest epoch (max across replicas), and the
	// fraction of FW cells re-executed during BP. Published for every
	// plan; full storage is one segment with no pinned columns and no
	// recompute.
	CkptColumns    *Gauge
	CkptBytes      *Gauge
	PeakStored     *Gauge
	RecomputeRatio *Gauge
}

// Dist bundles the gradient-sync instruments: what the all-reduce
// transport seam (internal/dist) put on the wire and how staleness
// admission behaved. One bundle is created per sync against a registry
// (normally Default).
type Dist struct {
	// WireBytes counts gradient payload bytes actually shipped (both
	// directions for the TCP transport; the bytes the encoding would
	// ship for the in-process compressed mode). DenseBytes counts what
	// the same payloads would cost uncompressed, so WireBytes/DenseBytes
	// is the cumulative on-wire ratio.
	WireBytes  *Counter
	DenseBytes *Counter
	// Compression is the latest step's dense/wire payload ratio (≥ 1;
	// higher is better, 1 means no saving).
	Compression *Gauge
	// Steps counts merged optimizer steps the sync served; StaleSteps
	// counts the subset admitted without every replica (bounded
	// staleness); LateContribs counts late gradient sets folded into a
	// following step.
	Steps        *Counter
	StaleSteps   *Counter
	LateContribs *Counter
}

// NewDist registers (or re-binds) the gradient-sync instruments on r.
func NewDist(r *Registry) *Dist {
	return &Dist{
		WireBytes:    r.Counter(MetricDistWireBytes, "gradient payload bytes put on the wire by the sync transport"),
		DenseBytes:   r.Counter(MetricDistDenseBytes, "bytes the same gradient payloads would cost dense"),
		Compression:  r.Gauge(MetricDistCompression, "latest step's dense/wire gradient payload ratio"),
		Steps:        r.Counter(MetricDistSteps, "optimizer steps merged through the gradient sync"),
		StaleSteps:   r.Counter(MetricDistStaleSteps, "steps admitted without every replica (bounded staleness)"),
		LateContribs: r.Counter(MetricDistLateContribs, "late gradient contributions folded into a following step"),
	}
}

// NewTrain registers (or re-binds) the training instruments on r.
func NewTrain(r *Registry) *Train {
	return &Train{
		Epochs:       r.Counter(MetricEpochsTotal, "completed training epochs"),
		EpochLoss:    r.Gauge(MetricEpochLoss, "mean loss of the latest completed epoch"),
		EpochSeconds: r.Gauge(MetricEpochSeconds, "wall time of the latest completed epoch"),
		GradNorm:     r.Gauge(MetricGradNorm, "pre-clip global gradient L2 norm of the latest step"),
		ClipEvents:   r.Counter(MetricClipEventsTotal, "optimizer steps where gradient clipping rescaled"),
		StepLatency: r.Histogram(MetricStepLatency, "optimizer step wall time in seconds",
			0, 2.5, 50, 4096),
		MS1PruneRatio:    r.Gauge(MetricMS1PruneRatio, "MS1 near-zero P1 prune ratio of the latest epoch"),
		MS1StoredPairs:   r.Counter(MetricMS1StoredPairs, "cumulative value+index pairs kept by the compressed P1 store"),
		SparseBPDensity:  r.Gauge(MetricSparseBPDensity, "fraction of P1 operands touched by the sparse backward kernels"),
		MS2SkipRatio:     r.Gauge(MetricMS2SkipRatio, "MS2 skipped BP-cell ratio of the latest epoch"),
		MS2PredLossError: r.Gauge(MetricMS2PredLossError, "absolute error of the Eq. 5 loss extrapolation"),
		ArenaHits:        r.Counter(MetricArenaHitsTotal, "workspace arena free-list hits"),
		ArenaMisses:      r.Counter(MetricArenaMissesTotal, "workspace arena allocations (free-list misses)"),
		ArenaBytes:       r.Gauge(MetricArenaBytesHeld, "bytes currently held in workspace free lists"),
		AllReduceWait: r.Histogram(MetricAllReduceWait, "per-replica wait before the group all-reduce in seconds",
			0, 1, 50, 4096),
		CkptColumns:    r.Gauge(MetricCkptColumns, "checkpoint (h,s) columns kept by the active memory plan"),
		CkptBytes:      r.Gauge(MetricCkptStoredBytes, "bytes pinned by the checkpoint columns of the active plan"),
		PeakStored:     r.Gauge(MetricPeakStoredBytes, "measured peak stored activation bytes of the latest epoch"),
		RecomputeRatio: r.Gauge(MetricRecomputeRatio, "fraction of FW cells re-executed during BP of the latest epoch"),
	}
}
