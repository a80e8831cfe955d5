package dist

import (
	"testing"

	"etalstm/internal/model"
)

func newGradientSets(t *testing.T, n int) []*model.Gradients {
	t.Helper()
	grads := make([]*model.Gradients, n)
	for i := range grads {
		g, err := model.NewGradientsFor(testCfg())
		if err != nil {
			t.Fatal(err)
		}
		grads[i] = g
	}
	return grads
}

// TestTreeReduceExactSum feeds integer-valued gradients (exact in
// float32 regardless of summation order) through TreeReduce — the
// trainer's default merge — and checks the result equals the arithmetic
// sum, for every width including the identity case.
func TestTreeReduceExactSum(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8} {
		grads := newGradientSets(t, n)
		for i, g := range grads {
			g.Layer[0].W[0].Data[0] = float32(i + 1)
			g.ProjB[0] = float32(10 * (i + 1))
			g.SkippedCells = i
			g.ExecutedCells = 2 * i
		}
		first := grads[0]
		merged := TreeReduce(grads)
		if merged != first {
			t.Fatalf("n=%d: TreeReduce must reduce into grads[0]", n)
		}
		wantW := float32(n * (n + 1) / 2)
		if got := merged.Layer[0].W[0].Data[0]; got != wantW {
			t.Errorf("n=%d: W sum = %v, want %v", n, got, wantW)
		}
		if got := merged.ProjB[0]; got != 10*wantW {
			t.Errorf("n=%d: ProjB sum = %v, want %v", n, got, 10*wantW)
		}
		wantSkip := n * (n - 1) / 2
		if merged.SkippedCells != wantSkip || merged.ExecutedCells != 2*wantSkip {
			t.Errorf("n=%d: cell counters %d/%d, want %d/%d",
				n, merged.SkippedCells, merged.ExecutedCells, wantSkip, 2*wantSkip)
		}
	}
}

// TestTreeReduceDeterministic reduces the same irrational-valued
// gradient sets twice and demands bitwise-identical results — the tree
// order must be a function of the count alone.
func TestTreeReduceDeterministic(t *testing.T) {
	build := func() []*model.Gradients {
		grads := newGradientSets(t, 7)
		for i, g := range grads {
			fillGradients(g, uint64(99+i))
		}
		return grads
	}
	if !gradientsEqual(TreeReduce(build()), TreeReduce(build())) {
		t.Fatal("identical reductions differ bitwise")
	}
}
