package check

import (
	"fmt"

	"etalstm/internal/lstm"
	"etalstm/internal/memplan"
	"etalstm/internal/model"
	"etalstm/internal/reorder"
	"etalstm/internal/tensor"
	"etalstm/internal/train"
)

// ckptBatchGrads is batchGrads under a checkpoint plan. MS1's pruning
// (and the F16 storage rounding) moves into the OnP1 hook: the hook
// sees each P1 set exactly once — from the last stored segment before
// BP and from each replayed segment during BP — so BP consumes the same
// transformed products batchGrads applies to a full-storage result.
func ckptBatchGrads(net *model.Network, b train.Batch, policy model.StoragePolicy, p PathSpec) (*model.Gradients, float64, error) {
	res, _, err := net.ForwardCheckpointed(b.Inputs, b.Targets, policy, nil, p.Boundaries)
	if err != nil {
		return nil, 0, err
	}
	opts := model.BackwardOpts{SparseBP: p.SparseBP, TopK: p.TopK}
	if p.PruneThreshold > 0 || p.F16 {
		pcfg := reorder.Config{Threshold: p.PruneThreshold}
		opts.OnP1 = func(l, t int, p1 *lstm.P1) {
			if p.PruneThreshold > 0 {
				reorder.PruneInPlace(p1, pcfg)
			}
			if p.F16 {
				for _, m := range p1.Matrices() {
					tensor.QuantizeF16(m)
				}
			}
		}
	}
	grads := net.NewGradients()
	if err := net.BackwardCheckpointed(res, policy, grads, opts); err != nil {
		return nil, 0, err
	}
	return grads, res.Loss, nil
}

// BudgetRung is one rung of the checkpointed-equivalence ladder: a
// named checkpoint boundary set.
type BudgetRung struct {
	Name       string
	Boundaries []int
}

// BudgetLadder is the boundary-set ladder EquivalenceCheckpointed runs:
// the three budgets of the contract (∞ = full storage, mid = two
// segments, tiny = a checkpoint every step) plus, when feasible, the
// placement an actual quarter-peak byte budget buys from memplan.
func BudgetLadder(cfg model.Config, mode memplan.Mode) []BudgetRung {
	T := cfg.SeqLen
	out := []BudgetRung{{"inf", []int{0}}}
	if T >= 2 {
		out = append(out, BudgetRung{"mid", []int{0, T / 2}})
		per := make([]int, T)
		for t := range per {
			per[t] = t
		}
		out = append(out, BudgetRung{"tiny", per})
	}
	full := memplan.Plan(cfg, mode, 0)
	if pl := memplan.Plan(cfg, mode, full.FullPeak/4); pl.Feasible && !pl.FullStorage() {
		out = append(out, BudgetRung{"budget", pl.Boundaries})
	}
	return out
}

// EquivalenceCheckpointed asserts the checkpointed-BPTT contract: for
// every budget rung (∞ / mid / tiny / a real memplan placement), for
// raw and P1 storage (the latter with and without pruning), serial and
// parallel, the checkpointed path reproduces the full-storage path's
// per-batch losses, gradients and post-training weights bitwise.
// workers sets the concurrency of the parallel variants.
func EquivalenceCheckpointed(s *Scenario, workers int) error {
	if workers < 2 {
		workers = 2
	}
	group := workers
	type variant struct {
		name  string
		store model.CellStore
		mode  memplan.Mode
		prune float32
	}
	variants := []variant{
		{"raw", model.StoreRaw, memplan.Baseline, 0},
		{"p1", model.StoreP1, memplan.MS1, 0},
		{"p1-pruned", model.StoreP1, memplan.MS1, 0.1},
	}
	for _, v := range variants {
		base, err := RunPath(s, PathSpec{
			Name: v.name + "/full", Store: v.store, PruneThreshold: v.prune,
		}, group)
		if err != nil {
			return err
		}
		for _, rung := range BudgetLadder(s.Cfg, v.mode) {
			if len(rung.Boundaries) <= 1 {
				continue // ∞ rung: identical spec to base by construction
			}
			specs := []PathSpec{
				{Name: fmt.Sprintf("%s/ckpt-%s/serial", v.name, rung.Name),
					Store: v.store, PruneThreshold: v.prune, Boundaries: rung.Boundaries},
				{Name: fmt.Sprintf("%s/ckpt-%s/parallel", v.name, rung.Name),
					Store: v.store, PruneThreshold: v.prune, Boundaries: rung.Boundaries, Workers: workers},
				{Name: fmt.Sprintf("%s/ckpt-%s/noarena", v.name, rung.Name),
					Store: v.store, PruneThreshold: v.prune, Boundaries: rung.Boundaries, NoArena: true},
			}
			for _, spec := range specs {
				got, err := RunPath(s, spec, group)
				if err != nil {
					return err
				}
				if err := comparePaths(base, got, spec.Name, Bitwise); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// DecodeBudget extends DecodeScenario's byte mapping with a memory
// budget: the byte after the scenario prefix picks a divisor of the
// full-storage peak (1 = everything fits, up to 8 = a quarter-ish
// budget for small configs). Returns the budget in bytes for the
// decoded scenario under the given mode.
func DecodeBudget(data []byte, cfg model.Config, mode memplan.Mode) int64 {
	full := memplan.Plan(cfg, mode, 0)
	if len(data) < 11 {
		return 0
	}
	div := 1 + int64(data[10])%8
	return full.FullPeak / div
}
