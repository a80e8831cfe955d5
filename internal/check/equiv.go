package check

import (
	"fmt"
	"math"
	"sync"

	"etalstm/internal/dist"
	"etalstm/internal/model"
	"etalstm/internal/skip"
	"etalstm/internal/tensor"
	"etalstm/internal/train"
)

// PathSpec selects one way of executing a training scenario. The
// equivalence engine runs the same scenario under several specs and
// compares the results.
//
// Group semantics: every path processes the scenario's batches in
// fixed-size groups with one optimizer step per group (gradients
// tree-reduced in slot order, averaged over the group, clipped,
// applied). Workers controls only *how* the group's gradients are
// computed — sequentially on the master network, or concurrently on
// per-worker clones. Because the group size and the reduce order are
// path-independent, a serial and a parallel path follow the exact same
// float operation sequence, and their results must agree bitwise.
type PathSpec struct {
	Name string
	// Store is the per-cell storage mode for executed cells: StoreRaw
	// (baseline Forward+Backward) or StoreP1 (MS1's reordered
	// ForwardWithP1+BackwardFromP1).
	Store model.CellStore
	// Workers > 1 computes each group's gradients concurrently on that
	// many replica clones; <= 1 computes them sequentially on the master.
	Workers int
	// NoArena disables the workspace arena on every network the path
	// touches, so all scratch comes from fresh allocations.
	NoArena bool
	// PruneThreshold > 0 applies MS1's near-zero pruning to the P1 sets
	// between FW and BP (requires Store == StoreP1). 0 disables pruning,
	// making the P1 path an exact reordering of the baseline.
	PruneThreshold float32
	// SparseBP routes BP-cells through the pair-driven sparse kernels
	// (requires Store == StoreP1). Against the dense path consuming the
	// same (possibly pruned, possibly f16-stored) P1 sets it is a pure
	// skip of exact-zero terms, so the contract is bitwise at every
	// threshold — not just 0.
	SparseBP bool
	// TopK, with SparseBP, caps each batch row of the weight-gradient
	// MatMuls to its TopK largest-|δgate| columns. 0 disables; ≥ hidden
	// is the identity (bitwise).
	TopK int
	// F16 stores the P1 intermediates rounded through binary16 between
	// FW and BP (after pruning, compute stays float32) — the storage
	// precision axis. Losses stay exact (FW is untouched); gradients
	// move within a ULP-derived band.
	F16 bool
	// Plan, when non-nil, supplies MS2's skip grid and post-BP
	// convergence-aware scaling. The plan's base store must match Store.
	Plan *skip.Plan
	// Boundaries, when it names more than one segment, runs the batch
	// under that checkpoint plan with the storage transforms applied
	// through BackwardOpts.OnP1 (ckptBatchGrads). nil or a single [0]
	// runs full storage with the transforms applied to the stored P1
	// sets between FW and BP (batchGrads) — the reference the hook is
	// compared against.
	Boundaries []int
	// Sync, when non-nil, merges each group's gradients through this
	// transport instead of the direct tree all-reduce, and the reducer
	// averages by the contribution count the sync reports — the seam the
	// sync-equivalence contracts exercise. nil keeps the classic path.
	Sync train.GradientSync
}

// PathResult captures what one path produced: per-batch losses, the
// last group's merged gradients (snapshotted before the reducer mutates
// them), and the post-training network.
type PathResult struct {
	Losses []float64
	// Grads is the last group's tree-reduced gradient sum, cloned
	// before averaging/clipping/stepping.
	Grads *model.Gradients
	// Net holds the post-training weights.
	Net *model.Network
}

// RunPath executes the scenario under one path spec: groups of
// groupSize batches, one ClipStep(SGD) optimizer step per group.
func RunPath(s *Scenario, p PathSpec, groupSize int) (*PathResult, error) {
	if groupSize < 1 {
		groupSize = 1
	}
	net, err := s.NewNetwork()
	if err != nil {
		return nil, err
	}
	if p.NoArena {
		net.DisableWorkspace()
	}
	policy := storePolicy(p)
	red := train.ClipStep{Opt: &train.SGD{LR: 0.05}, Clip: 5}
	batches := s.Batches()

	var replicas []*model.Network
	if p.Workers > 1 {
		for i := 0; i < groupSize; i++ {
			c := net.Clone()
			if p.NoArena {
				c.DisableWorkspace()
			}
			replicas = append(replicas, c)
		}
	}

	res := &PathResult{Net: net}
	for lo := 0; lo < len(batches); lo += groupSize {
		hi := lo + groupSize
		if hi > len(batches) {
			hi = len(batches)
		}
		group := batches[lo:hi]
		grads := make([]*model.Gradients, len(group))
		losses := make([]float64, len(group))
		errs := make([]error, len(group))

		if p.Workers > 1 {
			// Concurrent: one clone per slot, weights re-synced from the
			// master, at most Workers slots in flight at a time.
			for i := range group {
				if err := replicas[i].CopyWeightsFrom(net); err != nil {
					return nil, err
				}
			}
			sem := make(chan struct{}, p.Workers)
			var wg sync.WaitGroup
			for i := range group {
				wg.Add(1)
				sem <- struct{}{}
				go func(i int) {
					defer wg.Done()
					defer func() { <-sem }()
					grads[i], losses[i], errs[i] = pathBatchGrads(replicas[i], group[i], policy, p)
				}(i)
			}
			wg.Wait()
		} else {
			// Sequential: every batch runs on the master; weights are
			// only mutated after the whole group is reduced, so the
			// per-batch math is identical to the concurrent variant.
			for i := range group {
				grads[i], losses[i], errs[i] = pathBatchGrads(net, group[i], policy, p)
			}
		}
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("check: path %s batch %d: %w", p.Name, lo+i, err)
			}
			res.Losses = append(res.Losses, losses[i])
		}
		var merged *model.Gradients
		contribs := len(group)
		if p.Sync != nil {
			m, n, err := p.Sync.Reduce(grads)
			if err != nil {
				return nil, fmt.Errorf("check: path %s sync: %w", p.Name, err)
			}
			merged, contribs = m, n
		} else {
			merged = dist.TreeReduce(grads)
		}
		res.Grads = merged.Clone()
		red.Apply(net, merged, contribs)
	}
	return res, nil
}

func storePolicy(p PathSpec) model.StoragePolicy {
	if p.Plan != nil {
		return p.Plan.Policy()
	}
	switch p.Store {
	case model.StoreP1:
		return model.P1Policy()
	default:
		return model.BaselinePolicy()
	}
}

func pathBatchGrads(net *model.Network, b train.Batch, policy model.StoragePolicy, p PathSpec) (*model.Gradients, float64, error) {
	var (
		grads *model.Gradients
		loss  float64
		err   error
	)
	if len(p.Boundaries) > 1 {
		grads, loss, err = ckptBatchGrads(net, b, policy, p)
	} else {
		grads, loss, err = batchGrads(net, b, policy, p)
	}
	if err != nil {
		return nil, 0, err
	}
	if p.Plan != nil && p.Plan.SkippedFrac() > 0 {
		if err := p.Plan.ApplyScaling(grads); err != nil {
			return nil, 0, err
		}
	}
	return grads, loss, nil
}

// Tol bounds agreement between two gradient or weight sets. A pair of
// entries agrees when it is within Abs absolutely (covers near-zero
// values, where ULP spacing is denormal-fine) or within MaxULP
// representable values (covers everything else, scale-free).
type Tol struct {
	MaxULP int64
	Abs    float64
}

// Bitwise is the tolerance for paths that must not change the math at
// all: arena on/off and serial/parallel evaluation.
var Bitwise = Tol{MaxULP: 0, Abs: 0}

// Reassociated is the tolerance for paths that compute the same values
// with a different association order — the P1-factored BP-EW versus the
// baseline expressions. Each element-wise product differs by a few
// ULPs; the matmul reductions and the BPTT recurrence compound that
// across timestamps, so the bound is generous but still catches any
// real formula error (which shows up orders of magnitude above it).
var Reassociated = Tol{MaxULP: 4096, Abs: 1e-5}

func (tol Tol) close(a, b float32) bool {
	if math.Abs(float64(a)-float64(b)) <= tol.Abs {
		return true
	}
	return tensor.WithinULP(a, b, tol.MaxULP)
}

// CompareGradients asserts a and b agree within tol, returning a
// descriptive error naming the first offending entry.
func CompareGradients(a, b *model.Gradients, tol Tol) error {
	if len(a.Layer) != len(b.Layer) {
		return fmt.Errorf("check: gradient layer count %d vs %d", len(a.Layer), len(b.Layer))
	}
	cmp := func(name string, x, y []float32) error {
		if len(x) != len(y) {
			return fmt.Errorf("check: %s length %d vs %d", name, len(x), len(y))
		}
		for i := range x {
			if !tol.close(x[i], y[i]) {
				return fmt.Errorf("check: %s[%d] diverges: %v vs %v (ULP %d, |Δ| %g)",
					name, i, x[i], y[i], tensor.ULPDiff32(x[i], y[i]), math.Abs(float64(x[i])-float64(y[i])))
			}
		}
		return nil
	}
	for l := range a.Layer {
		for g := range a.Layer[l].W {
			if err := cmp(fmt.Sprintf("layer%d.W[%d]", l, g), a.Layer[l].W[g].Data, b.Layer[l].W[g].Data); err != nil {
				return err
			}
			if err := cmp(fmt.Sprintf("layer%d.U[%d]", l, g), a.Layer[l].U[g].Data, b.Layer[l].U[g].Data); err != nil {
				return err
			}
			if err := cmp(fmt.Sprintf("layer%d.B[%d]", l, g), a.Layer[l].B[g], b.Layer[l].B[g]); err != nil {
				return err
			}
		}
	}
	if err := cmp("proj", a.Proj.Data, b.Proj.Data); err != nil {
		return err
	}
	return cmp("projB", a.ProjB, b.ProjB)
}

// CompareWeights asserts two networks' parameters agree within tol.
func CompareWeights(a, b *model.Network, tol Tol) error {
	if a.Cfg != b.Cfg {
		return fmt.Errorf("check: network geometry %+v vs %+v", a.Cfg, b.Cfg)
	}
	cmp := func(name string, x, y []float32) error {
		for i := range x {
			if !tol.close(x[i], y[i]) {
				return fmt.Errorf("check: weight %s[%d] diverges: %v vs %v (ULP %d)",
					name, i, x[i], y[i], tensor.ULPDiff32(x[i], y[i]))
			}
		}
		return nil
	}
	for l := range a.Layer {
		for g := range a.Layer[l].W {
			if err := cmp(fmt.Sprintf("layer%d.W[%d]", l, g), a.Layer[l].W[g].Data, b.Layer[l].W[g].Data); err != nil {
				return err
			}
			if err := cmp(fmt.Sprintf("layer%d.U[%d]", l, g), a.Layer[l].U[g].Data, b.Layer[l].U[g].Data); err != nil {
				return err
			}
			if err := cmp(fmt.Sprintf("layer%d.B[%d]", l, g), a.Layer[l].B[g], b.Layer[l].B[g]); err != nil {
				return err
			}
		}
	}
	if err := cmp("proj", a.Proj.Data, b.Proj.Data); err != nil {
		return err
	}
	return cmp("projB", a.ProjB, b.ProjB)
}

// CompareLosses asserts two per-batch loss traces are identical. Losses
// come from the FW pass alone, and every path's FW pass computes
// bit-identical hidden states (pruning and skipping touch only BP), so
// this comparison is exact.
func CompareLosses(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("check: loss trace length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("check: batch %d loss diverges: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

// Equivalence runs the scenario under the full path matrix — baseline
// raw serial/arena against every optimized combination that must agree
// — and returns the first divergence. workers sets the concurrency of
// the parallel variants.
func Equivalence(s *Scenario, workers int) error {
	if workers < 2 {
		workers = 2
	}
	group := workers
	base, err := RunPath(s, PathSpec{Name: "raw/serial/arena", Store: model.StoreRaw}, group)
	if err != nil {
		return err
	}
	exact := []PathSpec{
		{Name: "raw/serial/noarena", Store: model.StoreRaw, NoArena: true},
		{Name: "raw/parallel/arena", Store: model.StoreRaw, Workers: workers},
		{Name: "raw/parallel/noarena", Store: model.StoreRaw, Workers: workers, NoArena: true},
	}
	for _, spec := range exact {
		got, err := RunPath(s, spec, group)
		if err != nil {
			return err
		}
		if err := comparePaths(base, got, spec.Name, Bitwise); err != nil {
			return err
		}
	}
	// The P1 reorder recomputes the same quantities in a different
	// association order: ULP-bounded, not bitwise. Its serial and
	// parallel variants must in turn agree bitwise with each other.
	p1, err := RunPath(s, PathSpec{Name: "p1/serial/arena", Store: model.StoreP1}, group)
	if err != nil {
		return err
	}
	if err := comparePaths(base, p1, "p1/serial/arena", Reassociated); err != nil {
		return err
	}
	p1par, err := RunPath(s, PathSpec{Name: "p1/parallel/noarena", Store: model.StoreP1, Workers: workers, NoArena: true}, group)
	if err != nil {
		return err
	}
	return comparePaths(p1, p1par, "p1/parallel/noarena", Bitwise)
}

func comparePaths(want, got *PathResult, name string, tol Tol) error {
	if err := CompareLosses(want.Losses, got.Losses); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if err := CompareGradients(want.Grads, got.Grads, tol); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if err := CompareWeights(want.Net, got.Net, tol); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// GradDistance returns the relative L2 distance between two gradient
// sets: ‖a−b‖₂ / max(‖a‖₂, tiny). The bounded-divergence checks use it
// as the scalar "how wrong did the approximation make us" metric.
func GradDistance(a, b *model.Gradients) float64 {
	var num, den float64
	acc := func(x, y []float32) {
		for i := range x {
			d := float64(x[i]) - float64(y[i])
			num += d * d
			den += float64(x[i]) * float64(x[i])
		}
	}
	for l := range a.Layer {
		for g := range a.Layer[l].W {
			acc(a.Layer[l].W[g].Data, b.Layer[l].W[g].Data)
			acc(a.Layer[l].U[g].Data, b.Layer[l].U[g].Data)
			acc(a.Layer[l].B[g], b.Layer[l].B[g])
		}
	}
	acc(a.Proj.Data, b.Proj.Data)
	acc(a.ProjB, b.ProjB)
	if den == 0 {
		den = 1e-300
	}
	return math.Sqrt(num) / math.Sqrt(den)
}

// CheckPruneMonotone runs the P1 path across the pruning-threshold
// ladder and asserts the bounded-divergence contract: threshold 0
// diverges not at all from the baseline, and the divergence is monotone
// non-decreasing in the threshold (pruning at a higher threshold zeroes
// a superset of the entries). slack absorbs float measurement noise in
// the monotonicity comparison.
//
// The comparison covers exactly one optimizer step: pruning changes the
// gradients, so from the second step on the trajectories legitimately
// drift apart and the per-step distances are no longer structurally
// ordered by threshold.
func CheckPruneMonotone(s *Scenario, thresholds []float32, slack float64) ([]float64, error) {
	one := *s
	one.NumBatches = 1
	s = &one
	group := 1
	base, err := RunPath(s, PathSpec{Name: "prune-base", Store: model.StoreP1}, group)
	if err != nil {
		return nil, err
	}
	dists := make([]float64, len(thresholds))
	for i, th := range thresholds {
		got, err := RunPath(s, PathSpec{Name: fmt.Sprintf("prune-%g", th), Store: model.StoreP1, PruneThreshold: th}, group)
		if err != nil {
			return nil, err
		}
		dists[i] = GradDistance(base.Grads, got.Grads)
	}
	for i, th := range thresholds {
		if th == 0 && dists[i] != 0 {
			return dists, fmt.Errorf("check: pruning at threshold 0 diverged (distance %g)", dists[i])
		}
		if i > 0 && thresholds[i] >= thresholds[i-1] && dists[i]+slack < dists[i-1] {
			return dists, fmt.Errorf("check: divergence not monotone: threshold %g → %g but distance %g → %g",
				thresholds[i-1], th, dists[i-1], dists[i])
		}
	}
	return dists, nil
}

// CheckScaledMass asserts MS2's convergence-aware scaling conserves
// gradient mass: for every layer the plan touches, the scaled surviving
// gradients' magnitude must land within a factor of band of the dense
// (no-skip) magnitude. The plan's scale factors are derived from
// *predicted* magnitudes, so the band is loose — but a corrupted or
// missing scaling lands far outside it, which is what the negative
// test pins.
func CheckScaledMass(dense, scaled *model.Gradients, plan *skip.Plan, band float64) error {
	if band <= 1 {
		return fmt.Errorf("check: band must exceed 1, got %g", band)
	}
	for l := range dense.Layer {
		skipped := 0
		for _, s := range plan.Skip[l] {
			if s {
				skipped++
			}
		}
		if skipped == 0 {
			continue // layer untouched: nothing to conserve
		}
		want := dense.Layer[l].AbsSum()
		got := scaled.Layer[l].AbsSum()
		if want == 0 {
			continue
		}
		ratio := got / want
		if ratio < 1/band || ratio > band {
			return fmt.Errorf("check: layer %d scaled gradient mass off by %.3gx (dense %g, scaled %g, band %g)",
				l, ratio, want, got, band)
		}
	}
	return nil
}
