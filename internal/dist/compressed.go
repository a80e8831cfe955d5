package dist

import (
	"etalstm/internal/compress"
	"etalstm/internal/model"
	"etalstm/internal/obs"
	"etalstm/internal/rtrace"
	"etalstm/internal/train"
)

// DefaultKeepFrac is the top-k fraction compressed syncs keep per
// tensor when neither KeepFrac nor Threshold is set: 5 % of entries,
// an 8-pair-per-element → ~10× payload reduction that error feedback
// keeps convergence-safe at training scale.
const DefaultKeepFrac = 0.05

// CompressOptions tunes gradient compression on any sync that supports
// it (Compressed, Worker uplink, Coordinator downlink).
type CompressOptions struct {
	// KeepFrac keeps the top fraction of entries per tensor by
	// compensated magnitude (0 = DefaultKeepFrac). Ignored when
	// Threshold is set.
	KeepFrac float64
	// Threshold, when positive, switches from top-k selection to MS1's
	// fixed near-zero cutoff: entries with compensated |v| below it are
	// dropped. Payload size then tracks the gradients' actual sparsity
	// instead of a fixed budget.
	Threshold float32
	// WarmupSteps ships the first N optimizer steps dense before
	// sparsification kicks in, the warm-up DGC-style systems use so the
	// optimizer's moment estimates settle on exact gradients. Both ends
	// of a wire transport derive the switch from the shared step
	// counter, so it never desynchronizes them.
	WarmupSteps int
}

// warm reports whether step is still inside the dense warm-up window.
func (o CompressOptions) warm(step int) bool { return step < o.WarmupSteps }

func (o CompressOptions) keep() float64 {
	if o.KeepFrac <= 0 {
		return DefaultKeepFrac
	}
	return o.KeepFrac
}

// Compressed is the in-process compressed gradient sync: each replica's
// contribution is sparsified — compensated by that replica's error
// feedback, top-k or threshold selected, and replaced by its (value,
// index) decoding — before the inner sync merges. The wire/dense byte
// accounting reports what the payloads would cost on the TCP transport,
// so the compression-ratio gauge means the same thing in and out of
// process.
type Compressed struct {
	// Inner merges the sparsified contributions (nil = Inproc).
	Inner train.GradientSync
	// Opts selects the compression mode and strength.
	Opts CompressOptions
	// Metrics overrides the obs bundle (nil = lazily bound to
	// obs.Default).
	Metrics *obs.Dist

	fb      [][]*compress.Feedback // per replica slot, per tensor
	views   []tensorViews          // per replica slot
	scratch compress.Sparse

	wire, dense int64
	steps       int64
}

// Reduce implements train.GradientSync.
func (c *Compressed) Reduce(local []*model.Gradients) (*model.Gradients, int, error) {
	var stepWire, stepDense int64
	warm := c.Opts.warm(int(c.steps))
	for len(c.views) < len(local) {
		c.views = append(c.views, tensorViews{})
	}
	for slot, g := range local {
		tensors := c.views[slot].of(g)
		for len(c.fb) <= slot {
			c.fb = append(c.fb, feedbackFor(tensors))
		}
		if warm {
			// Dense warm-up step: contributions pass through untouched
			// and would ship at full dense cost.
			stepWire += denseBytes(tensors)
			stepDense += denseBytes(tensors)
			continue
		}
		for i, m := range tensors {
			s := c.Opts.selectPairs(c.fb[slot][i], &c.scratch, m)
			// The replica's dense gradients become exactly what a wire
			// transport would deliver: the kept pairs, zeros elsewhere.
			s.MustDecode(m)
			stepWire += sparseWireBytes(s.NNZ())
			stepDense += 4 + 4*int64(len(m.Data))
		}
	}
	c.wire += stepWire
	c.dense += stepDense
	c.steps++
	ins := lazyDist(&c.Metrics)
	ins.WireBytes.Add(stepWire)
	ins.DenseBytes.Add(stepDense)
	ins.Steps.Inc()
	if stepWire > 0 {
		ins.Compression.Set(float64(stepDense) / float64(stepWire))
	}
	inner := c.Inner
	if inner == nil {
		inner = Inproc{}
	}
	return inner.Reduce(local)
}

// SetStepSpan forwards the trainer's step span to the inner sync when
// it supports the tracing seam (a wrapped TCP Worker does).
func (c *Compressed) SetStepSpan(sp *rtrace.Span) {
	if s, ok := c.Inner.(StepSpanSetter); ok {
		s.SetStepSpan(sp)
	}
}

// Close implements train.GradientSync.
func (c *Compressed) Close() error {
	if c.Inner != nil {
		return c.Inner.Close()
	}
	return nil
}

// WireBytes returns the cumulative gradient payload bytes the sync
// would have put on the wire; DenseBytes the uncompressed cost of the
// same payloads; Ratio their quotient (≥ 1, higher is better).
func (c *Compressed) WireBytes() int64  { return c.wire }
func (c *Compressed) DenseBytes() int64 { return c.dense }

// Ratio returns the cumulative dense/wire payload ratio (0 before any
// step).
func (c *Compressed) Ratio() float64 {
	if c.wire == 0 {
		return 0
	}
	return float64(c.dense) / float64(c.wire)
}
