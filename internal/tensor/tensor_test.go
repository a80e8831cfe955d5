package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"etalstm/internal/rng"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New must zero")
		}
	}
}

func TestNewFromDataPanicsOnLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFromData(2, 2, []float32{1, 2, 3})
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("At/Set roundtrip")
	}
	r := m.Row(1)
	if r[2] != 5 {
		t.Fatal("Row aliasing")
	}
	r[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("Row must alias storage")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := New(2, 2)
	m.Fill(3)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 3 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := NewFromData(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := NewFromData(3, 2, []float32{7, 8, 9, 10, 11, 12})
	got := MatMul(nil, a, b)
	want := NewFromData(2, 2, []float32{58, 64, 139, 154})
	if !got.Equal(want, 1e-6) {
		t.Fatalf("MatMul: got %v", got.Data)
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := rng.New(1)
	a := New(4, 4)
	a.RandInit(r, 1)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	got := MatMul(nil, a, id)
	if !got.Equal(a, 1e-6) {
		t.Fatal("A·I != A")
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(nil, New(2, 3), New(2, 3))
}

func TestMatMulTransA(t *testing.T) {
	r := rng.New(2)
	a := New(5, 3)
	b := New(5, 4)
	a.RandInit(r, 1)
	b.RandInit(r, 1)
	want := MatMul(nil, Transpose(nil, a), b)
	got := MatMulTransA(nil, a, b)
	if !got.Equal(want, 1e-4) {
		t.Fatal("MatMulTransA disagrees with explicit transpose")
	}
}

func TestMatMulTransB(t *testing.T) {
	r := rng.New(3)
	a := New(4, 6)
	b := New(5, 6)
	a.RandInit(r, 1)
	b.RandInit(r, 1)
	want := MatMul(nil, a, Transpose(nil, b))
	got := MatMulTransB(nil, a, b)
	if !got.Equal(want, 1e-4) {
		t.Fatal("MatMulTransB disagrees with explicit transpose")
	}
}

func TestAddMatMulTransAAccumulates(t *testing.T) {
	r := rng.New(4)
	a := New(3, 2)
	b := New(3, 5)
	a.RandInit(r, 1)
	b.RandInit(r, 1)
	dst := New(2, 5)
	dst.Fill(1)
	want := Add(nil, dst, MatMulTransA(nil, a, b))
	AddMatMulTransA(dst, a, b)
	if !dst.Equal(want, 1e-4) {
		t.Fatal("AddMatMulTransA accumulation wrong")
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(5)
	a := New(3, 7)
	a.RandInit(r, 1)
	tt := Transpose(nil, Transpose(nil, a))
	if !tt.Equal(a, 0) {
		t.Fatal("(Aᵀ)ᵀ != A")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := NewFromData(1, 4, []float32{1, 2, 3, 4})
	b := NewFromData(1, 4, []float32{10, 20, 30, 40})
	if got := Add(nil, a, b); got.Data[3] != 44 {
		t.Fatalf("Add: %v", got.Data)
	}
	if got := Sub(nil, b, a); got.Data[0] != 9 {
		t.Fatalf("Sub: %v", got.Data)
	}
	if got := Mul(nil, a, b); got.Data[2] != 90 {
		t.Fatalf("Mul: %v", got.Data)
	}
	if got := Scale(nil, a, 2); got.Data[1] != 4 {
		t.Fatalf("Scale: %v", got.Data)
	}
}

func TestAddInPlace(t *testing.T) {
	dst := NewFromData(1, 2, []float32{1, 2})
	a := NewFromData(1, 2, []float32{10, 20})
	AddInPlace(dst, a)
	if dst.Data[0] != 11 || dst.Data[1] != 22 {
		t.Fatalf("AddInPlace: %v", dst.Data)
	}
}

func TestAddRowVectorAndSumRows(t *testing.T) {
	a := New(3, 2)
	bias := []float32{1, -1}
	got := AddRowVector(nil, a, bias)
	for i := 0; i < 3; i++ {
		if got.At(i, 0) != 1 || got.At(i, 1) != -1 {
			t.Fatalf("AddRowVector row %d: %v", i, got.Row(i))
		}
	}
	vec := make([]float32, 2)
	SumRows(vec, got)
	if vec[0] != 3 || vec[1] != -3 {
		t.Fatalf("SumRows: %v", vec)
	}
}

func TestSigmoidTanhValues(t *testing.T) {
	if v := Sigmoid32(0); math.Abs(float64(v)-0.5) > 1e-6 {
		t.Fatalf("sigmoid(0)=%v", v)
	}
	if hi, lo := Sigmoid32(100), Sigmoid32(-100); hi < 0.999 || lo > 0.001 {
		t.Fatalf("sigmoid saturation: %v, %v", hi, lo)
	}
	if z, hi, lo := Tanh32(0), Tanh32(100), Tanh32(-100); z != 0 || hi < 0.999 || lo > -0.999 {
		t.Fatalf("tanh: %v, %v, %v", z, hi, lo)
	}
}

func TestSigmoidRange(t *testing.T) {
	r := rng.New(6)
	a := New(10, 10)
	a.RandInit(r, 20)
	for _, x := range a.Data {
		if v := Sigmoid32(x); v < 0 || v > 1 {
			t.Fatalf("sigmoid out of (0,1): %v", v)
		}
	}
}

func TestAbsSumMaxAbsFracBelow(t *testing.T) {
	m := NewFromData(1, 4, []float32{-1, 0.05, 2, -0.01})
	if got := m.AbsSum(); math.Abs(got-3.06) > 1e-6 {
		t.Fatalf("AbsSum: %v", got)
	}
	if m.MaxAbs() != 2 {
		t.Fatalf("MaxAbs: %v", m.MaxAbs())
	}
	if got := m.FracBelow(0.1); got != 0.5 {
		t.Fatalf("FracBelow: %v", got)
	}
}

func TestXavierInitScale(t *testing.T) {
	r := rng.New(7)
	m := New(64, 64)
	m.XavierInit(r, 64, 64)
	limit := float32(math.Sqrt(6.0 / 128.0))
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("Xavier value %v outside ±%v", v, limit)
		}
	}
	if m.MaxAbs() < limit/2 {
		t.Fatal("Xavier init suspiciously small")
	}
}

// Property: (A·B)·C == A·(B·C) within float tolerance.
func TestPropertyMatMulAssociativity(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a, b, c := New(3, 4), New(4, 5), New(5, 2)
		a.RandInit(r, 1)
		b.RandInit(r, 1)
		c.RandInit(r, 1)
		l := MatMul(nil, MatMul(nil, a, b), c)
		rm := MatMul(nil, a, MatMul(nil, b, c))
		return l.Equal(rm, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: MatMul distributes over Add.
func TestPropertyMatMulDistributive(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a, b1, b2 := New(3, 4), New(4, 3), New(4, 3)
		a.RandInit(r, 1)
		b1.RandInit(r, 1)
		b2.RandInit(r, 1)
		l := MatMul(nil, a, Add(nil, b1, b2))
		rm := Add(nil, MatMul(nil, a, b1), MatMul(nil, a, b2))
		return l.Equal(rm, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose identity (A·B)ᵀ == Bᵀ·Aᵀ.
func TestPropertyMatMulTransposeIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a, b := New(3, 5), New(5, 4)
		a.RandInit(r, 1)
		b.RandInit(r, 1)
		l := Transpose(nil, MatMul(nil, a, b))
		rm := MatMul(nil, Transpose(nil, b), Transpose(nil, a))
		return l.Equal(rm, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: sigmoid'(x) = σ(x)(1-σ(x)) numerically.
func TestPropertySigmoidDerivative(t *testing.T) {
	f := func(x float32) bool {
		if x > 10 || x < -10 {
			x = float32(math.Mod(float64(x), 10))
		}
		const h = 1e-3
		num := (Sigmoid32(x+h) - Sigmoid32(x-h)) / (2 * h)
		s := Sigmoid32(x)
		ana := s * (1 - s)
		return math.Abs(float64(num-ana)) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: tanh'(x) = 1 - tanh²(x) numerically.
func TestPropertyTanhDerivative(t *testing.T) {
	f := func(x float32) bool {
		if x > 10 || x < -10 {
			x = float32(math.Mod(float64(x), 10))
		}
		const h = 1e-3
		num := (Tanh32(x+h) - Tanh32(x-h)) / (2 * h)
		th := Tanh32(x)
		ana := 1 - th*th
		return math.Abs(float64(num-ana)) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBytes(t *testing.T) {
	if New(10, 10).Bytes() != 400 {
		t.Fatal("Bytes")
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if New(2, 3).Equal(New(3, 2), 1) {
		t.Fatal("Equal must reject shape mismatch")
	}
}
