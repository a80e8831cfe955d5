package train

import "etalstm/internal/model"

// Reducer is the final stage of a training step: it receives the merged
// gradients of one optimizer step (the sum over one or more replica
// contributions) and is responsible for everything between BP and the
// weight update — averaging, clipping, and the optimizer application.
// The trainer's step loop (internal/core) feeds it the merged sum of
// one step's contributions — a single replica's gradients when it runs
// one replica. Implementing this interface is the extension point for
// future multi-backend or sharded reducers.
type Reducer interface {
	// Apply consumes grads (the summed contribution of `replicas`
	// gradient sets) and updates net. Implementations may mutate grads.
	Apply(net *model.Network, grads *model.Gradients, replicas int)
}

// ClipStep is the standard reducer: average the summed gradients over
// the contributing replicas, clip the global L2 norm to Clip (<= 0
// disables clipping), and apply Opt. With replicas == 1 the averaging
// is skipped entirely, so a serial step is bit-for-bit the classic
// clip-then-step sequence.
type ClipStep struct {
	Opt  Optimizer
	Clip float64

	// OnApply, when non-nil, observes each step's pre-clip global L2
	// norm and whether clipping actually rescaled. It is only invoked
	// when Clip > 0 — with clipping disabled the norm is never computed,
	// and the hook stays free.
	OnApply func(norm float64, clipped bool)
}

// Apply implements Reducer.
func (c ClipStep) Apply(net *model.Network, grads *model.Gradients, replicas int) {
	if replicas > 1 {
		grads.Scale(1 / float32(replicas))
	}
	if c.Clip > 0 {
		norm := ClipGradients(grads, c.Clip)
		if c.OnApply != nil {
			c.OnApply(norm, norm > c.Clip)
		}
	}
	c.Opt.Step(net, grads)
}
