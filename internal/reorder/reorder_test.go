package reorder

import (
	"math"
	"testing"

	"etalstm/internal/compress"
	"etalstm/internal/lstm"
	"etalstm/internal/rng"
	"etalstm/internal/tensor"
)

func makeP1(seed uint64, batch, hidden int) *lstm.P1 {
	r := rng.New(seed)
	p := lstm.NewParamsOn(make([]float32, lstm.LayerLen(hidden, hidden)), hidden, hidden)
	p.Init(r)
	x := tensor.New(batch, hidden)
	h0 := tensor.New(batch, hidden)
	s0 := tensor.New(batch, hidden)
	x.RandInit(r, 1)
	h0.RandInit(r, 0.5)
	s0.RandInit(r, 0.5)
	_, _, p1 := lstm.ForwardWithP1(nil, p, x, h0, s0)
	return p1
}

func TestPruneInPlaceThreshold(t *testing.T) {
	p1 := makeP1(1, 4, 16)
	st := PruneInPlace(p1, Config{Threshold: 0.1})
	if st.Elements != 6*4*16 {
		t.Fatalf("Elements: %d", st.Elements)
	}
	for _, m := range p1.Matrices() {
		for _, v := range m.Data {
			av := math.Abs(float64(v))
			if av != 0 && av < 0.1 {
				t.Fatalf("unpruned near-zero value %v", v)
			}
		}
	}
	if st.Frac() <= 0 {
		t.Fatal("pruning should remove something on realistic P1 data")
	}
}

func TestPruneDefaultThreshold(t *testing.T) {
	a := makeP1(2, 4, 16)
	b := makeP1(2, 4, 16)
	sa := PruneInPlace(a, Config{})
	sb := PruneInPlace(b, Config{Threshold: 0.1})
	if sa.Pruned != sb.Pruned {
		t.Fatal("zero config must default to threshold 0.1")
	}
}

// TestEncodeDecodeMatchesPruned: pruning in place leaves exactly what a
// roundtrip through the value+index codec would, which is why the
// trainer may skip the codec on the hot path.
func TestEncodeDecodeMatchesPruned(t *testing.T) {
	orig := makeP1(3, 4, 16)
	pruned := makeP1(3, 4, 16)
	PruneInPlace(pruned, Config{Threshold: 0.1})

	om, pm := orig.Matrices(), pruned.Matrices()
	for i := range om {
		var fb compress.Feedback
		var s compress.Sparse
		dec := fb.EncodeInto(&s, om[i], 0.1).MustDecode(nil)
		if !dec.Equal(pm[i], 0) {
			t.Fatalf("plane %d: codec path differs from in-place pruning", i)
		}
	}
}

// TestPrunedBPStillDescends: the headline MS1 claim in miniature —
// training with pruned P1 still reduces loss (approximate computing
// with negligible accuracy impact).
func TestPrunedBPStillDescends(t *testing.T) {
	const hidden, batch = 8, 4
	r := rng.New(10)
	p := lstm.NewParamsOn(make([]float32, lstm.LayerLen(hidden, hidden)), hidden, hidden)
	p.Init(r)
	x := tensor.New(batch, hidden)
	x.RandInit(r, 1)
	target := tensor.New(batch, hidden)
	target.RandInit(r, 0.5)

	loss := func() float64 {
		h0 := tensor.New(batch, hidden)
		s0 := tensor.New(batch, hidden)
		h, _, _ := lstm.Forward(nil, p, x, h0, s0)
		var l float64
		for k := range h.Data {
			d := float64(h.Data[k] - target.Data[k])
			l += d * d
		}
		return l
	}

	before := loss()
	for step := 0; step < 30; step++ {
		h0 := tensor.New(batch, hidden)
		s0 := tensor.New(batch, hidden)
		h, _, p1 := lstm.ForwardWithP1(nil, p, x, h0, s0)
		PruneInPlace(p1, Config{Threshold: 0.1})
		dy := tensor.New(batch, hidden)
		for k := range dy.Data {
			dy.Data[k] = 2 * (h.Data[k] - target.Data[k])
		}
		grads := lstm.NewGrads(p)
		lstm.BackwardFromP1(nil, p, grads, x, h0, p1, lstm.BPInput{DY: dy})
		const lr = 0.02
		for g := lstm.Gate(0); g < lstm.NumGates; g++ {
			for i := range p.W[g].Data {
				p.W[g].Data[i] -= lr * grads.W[g].Data[i]
			}
			for i := range p.U[g].Data {
				p.U[g].Data[i] -= lr * grads.U[g].Data[i]
			}
			for i := range p.B[g] {
				p.B[g][i] -= lr * grads.B[g][i]
			}
		}
	}
	after := loss()
	if after >= before*0.9 {
		t.Fatalf("pruned-P1 training failed to descend: %v -> %v", before, after)
	}
}

func TestPruneStatsAdd(t *testing.T) {
	a := PruneStats{Elements: 10, Pruned: 4}
	b := PruneStats{Elements: 20, Pruned: 6}
	c := a.Add(b)
	if c.Elements != 30 || c.Pruned != 10 {
		t.Fatalf("Add: %+v", c)
	}
	if math.Abs(c.Frac()-1.0/3) > 1e-9 {
		t.Fatalf("Frac: %v", c.Frac())
	}
	if (PruneStats{}).Frac() != 0 {
		t.Fatal("empty Frac must be 0")
	}
}
