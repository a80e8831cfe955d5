// Package train drives LSTM training: optimizers (SGD, momentum, Adam),
// gradient clipping, an epoch loop over minibatch providers, and the
// evaluation metrics of paper Table II (accuracy, perplexity, MAE, and
// a BLEU-style n-gram score).
package train

import (
	"fmt"
	"math"

	"etalstm/internal/model"
)

// Optimizer applies accumulated gradients to a network's parameters.
type Optimizer interface {
	// Step applies grads to net and advances the optimizer state.
	Step(net *model.Network, grads *model.Gradients)
	// Name identifies the optimizer in logs and experiment records.
	Name() string
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float32
	Momentum float32

	vel []float32 // momentum, laid out as net.Params()
}

// Name implements Optimizer.
func (s *SGD) Name() string { return fmt.Sprintf("sgd(lr=%g,mom=%g)", s.LR, s.Momentum) }

// Step implements Optimizer. Every product is rounded on its own before
// the add it feeds, so the step is bitwise the same on every target.
func (s *SGD) Step(net *model.Network, grads *model.Gradients) {
	param, grad := net.Params(), grads.Vec()
	param = param[:len(grad)]
	if s.Momentum != 0 && s.vel == nil {
		s.vel = make([]float32, len(param))
	}
	if vel := s.vel; vel != nil {
		vel = vel[:len(grad)]
		for i, g := range grad {
			vel[i] = float32(s.Momentum*vel[i]) + g
			param[i] -= float32(s.LR * vel[i])
		}
		return
	}
	for i, g := range grad {
		param[i] -= float32(s.LR * g)
	}
}

// Adam implements the Adam optimizer (Kingma & Ba). The zero value is
// not usable; set LR (and optionally the betas) before the first Step.
type Adam struct {
	LR    float32
	Beta1 float32 // default 0.9
	Beta2 float32 // default 0.999
	Eps   float32 // default 1e-8

	t    int
	m, v []float32 // moments, laid out as net.Params()
}

// Name implements Optimizer.
func (a *Adam) Name() string { return fmt.Sprintf("adam(lr=%g)", a.LR) }

// Step implements Optimizer. Every product is rounded on its own before
// the add it feeds, so the step is bitwise the same on every target.
func (a *Adam) Step(net *model.Network, grads *model.Gradients) {
	if a.Beta1 == 0 {
		a.Beta1 = 0.9
	}
	if a.Beta2 == 0 {
		a.Beta2 = 0.999
	}
	if a.Eps == 0 {
		a.Eps = 1e-8
	}
	param, grad := net.Params(), grads.Vec()
	param = param[:len(grad)]
	if a.m == nil {
		a.m = make([]float32, len(param))
		a.v = make([]float32, len(param))
	}
	a.t++
	bc1 := 1 - float32(math.Pow(float64(a.Beta1), float64(a.t)))
	bc2 := 1 - float32(math.Pow(float64(a.Beta2), float64(a.t)))
	m, v := a.m[:len(grad)], a.v[:len(grad)]
	for i, g := range grad {
		m[i] = float32(a.Beta1*m[i]) + float32((1-a.Beta1)*g)
		v[i] = float32(a.Beta2*v[i]) + float32((1-a.Beta2)*g*g)
		mh := m[i] / bc1
		vh := v[i] / bc2
		param[i] -= float32(a.LR*mh) / (float32(math.Sqrt(float64(vh))) + a.Eps)
	}
}

// ClipGradients rescales all gradients so their global L2 norm does not
// exceed maxNorm (the standard defence against LSTM gradient blow-up).
// It returns the pre-clip norm.
func ClipGradients(grads *model.Gradients, maxNorm float64) float64 {
	var sq float64
	for _, v := range grads.Vec() {
		sq += float64(float64(v) * float64(v))
	}
	norm := math.Sqrt(sq)
	if norm <= maxNorm || norm == 0 {
		return norm
	}
	grads.Scale(float32(maxNorm / norm))
	return norm
}
