// Package dist implements the gradient-sync transports behind the
// train.GradientSync seam — the all-reduce path of data-parallel
// training, kept out of the trainer's step loop so replicas can live in
// one process or many:
//
//   - Inproc is the deterministic in-process tree all-reduce the step
//     loop uses when no sync is configured (bitwise identical to the
//     pre-seam merge, pinned by the golden reproducibility tests).
//   - Compressed wraps any sync and sparsifies each replica's
//     contribution first — MS1's (value, index) encoding applied to
//     gradient traffic, with per-replica error feedback so dropped mass
//     carries into later steps instead of vanishing.
//   - Worker/Coordinator are the TCP transport: workers ship
//     length-prefixed gradient frames to a coordinator that merges in
//     worker-id order and broadcasts the result, optionally admitting a
//     step after a quorum when stragglers exceed a wait deadline
//     (bounded staleness; late gradients fold into the next step).
package dist

import (
	"etalstm/internal/model"
	"etalstm/internal/obs"
)

// TreeReduce merges the gradient sets pairwise with stride doubling
// (g[i] += g[i+s] for i ≡ 0 mod 2s, s = 1, 2, 4, …) and returns
// grads[0], which afterwards holds the element-wise sum of all inputs.
// The reduction order depends only on len(grads), giving bit-for-bit
// reproducible float accumulation for any fixed replica count; a
// single-element slice is returned untouched (the Workers == 1
// identity). The inputs are mutated.
func TreeReduce(grads []*model.Gradients) *model.Gradients {
	if len(grads) == 0 {
		return nil
	}
	for s := 1; s < len(grads); s *= 2 {
		for i := 0; i+s < len(grads); i += 2 * s {
			grads[i].Add(grads[i+s])
		}
	}
	return grads[0]
}

// Inproc is the in-process gradient sync: the deterministic tree
// all-reduce over the local replica contributions, nothing on any wire.
// It is the seam's identity transport and the default the trainer uses
// when no sync is configured.
type Inproc struct{}

// Reduce implements train.GradientSync.
func (Inproc) Reduce(local []*model.Gradients) (*model.Gradients, int, error) {
	return TreeReduce(local), len(local), nil
}

// Close implements train.GradientSync (no resources).
func (Inproc) Close() error { return nil }

// lazyDist binds ins to the process-wide registry on first use unless
// the caller injected a bundle (tests and experiments use private
// registries).
func lazyDist(ins **obs.Dist) *obs.Dist {
	if *ins == nil {
		*ins = obs.NewDist(obs.Default)
	}
	return *ins
}
