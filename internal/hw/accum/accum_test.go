package accum

import (
	"math"
	"testing"
	"testing/quick"

	"etalstm/internal/rng"
)

func TestAccumulateCorrectSum(t *testing.T) {
	vals := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	sum, _ := Accumulate(vals, 2)
	if sum != 36 {
		t.Fatalf("sum: %v", sum)
	}
}

// TestFig11TimingChart reproduces the paper's Fig. 11 exactly: 8 values
// through a 2-cycle adder complete at cycle 12.
func TestFig11TimingChart(t *testing.T) {
	vals := []float32{1, 2, 4, 8, 16, 32, 64, 128} // "A".."H"
	sum, cycles := Accumulate(vals, 2)
	if sum != 255 {
		t.Fatalf("sum: %v", sum)
	}
	if cycles != 12 {
		t.Fatalf("Fig. 11: 8 values @ 2-cycle adder must finish at cycle 12, got %d", cycles)
	}
}

func TestEmptyStream(t *testing.T) {
	sum, cycles := Accumulate(nil, 8)
	if sum != 0 || cycles != 0 {
		t.Fatalf("empty: %v %d", sum, cycles)
	}
}

func TestSingleValue(t *testing.T) {
	sum, cycles := Accumulate([]float32{42}, 8)
	if sum != 42 {
		t.Fatalf("sum: %v", sum)
	}
	if cycles != 1 {
		t.Fatalf("single value should take 1 cycle, got %d", cycles)
	}
}

func TestTwoValues(t *testing.T) {
	sum, cycles := Accumulate([]float32{1, 2}, 8)
	if sum != 3 {
		t.Fatalf("sum: %v", sum)
	}
	// Issue at cycle 2, result after the 8-cycle adder latency.
	if cycles != 10 {
		t.Fatalf("two values @ 8-cycle adder: got %d want 10", cycles)
	}
}

func TestStreamingOneInputPerCycle(t *testing.T) {
	// The design's whole point: input acceptance never stalls — after
	// n pushes the model's clock reads exactly n.
	s := NewStreaming(8)
	for i := 0; i < 100; i++ {
		s.Push(1)
		if s.cycle != int64(i+1) {
			t.Fatalf("input stalled at cycle %d", s.cycle)
		}
	}
}

// TestOverheadBoundPaper reproduces Table III's latency discussion: the
// streaming design's overhead versus the Xilinx IP is below 2.87 % for
// streams of ≥ 1024 inputs with the paper's 8-cycle adder.
func TestOverheadBoundPaper(t *testing.T) {
	for _, n := range []int{1024, 2048, 4096} {
		ov := Overhead(n, 8, 20)
		if ov >= 0.0287 {
			t.Errorf("n=%d: overhead %.4f ≥ 2.87%%", n, ov)
		}
		if ov < 0 {
			t.Errorf("n=%d: negative overhead %.4f (model broken)", n, ov)
		}
	}
}

func TestOverheadLargerForShortStreams(t *testing.T) {
	short := Overhead(32, 8, 20)
	long := Overhead(4096, 8, 20)
	if short <= long {
		t.Fatalf("merge tail must hurt short streams more: %v vs %v", short, long)
	}
}

func TestIdealCycles(t *testing.T) {
	if IdealCycles(0, 20) != 0 {
		t.Fatal("empty ideal")
	}
	if IdealCycles(100, 20) != 120 {
		t.Fatalf("IdealCycles: %d", IdealCycles(100, 20))
	}
}

func TestNewStreamingValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewStreaming(0)
}

// Property: the streaming accumulator sums correctly for any stream and
// any adder latency 1..12.
func TestPropertySumCorrectness(t *testing.T) {
	f := func(seed uint64, latRaw uint8, nRaw uint16) bool {
		r := rng.New(seed)
		lat := 1 + int(latRaw)%12
		n := int(nRaw) % 500
		vals := make([]float32, n)
		var want float64
		for i := range vals {
			vals[i] = r.Uniform(-1, 1)
			want += float64(vals[i])
		}
		got, cycles := Accumulate(vals, lat)
		if n > 0 && cycles < int64(n) {
			return false // cannot finish before consuming the stream
		}
		return math.Abs(float64(got)-want) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: total cycles are n plus a merge tail bounded by
// O(addLatency · log2(n)) — the design's latency guarantee.
func TestPropertyTailBound(t *testing.T) {
	f := func(nRaw uint16, latRaw uint8) bool {
		n := 2 + int(nRaw)%2000
		lat := 1 + int(latRaw)%12
		_, cycles := Accumulate(make([]float32, n), lat)
		tail := cycles - int64(n)
		bound := int64(lat) * int64(3+log2ceil(n))
		return tail >= 0 && tail <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func log2ceil(n int) int {
	k := 0
	for v := 1; v < n; v <<= 1 {
		k++
	}
	return k
}

func TestTableIIIResources(t *testing.T) {
	ip := XilinxIP()
	ours := AdderBased()
	if ip.LUT != 821 || ip.FF != 969 {
		t.Fatalf("Xilinx IP resources: %+v", ip)
	}
	if ours.LUT != 463 || ours.FF != 608 {
		t.Fatalf("adder-based resources: %+v", ours)
	}
	if math.Abs(ip.TotalPower()-0.1) > 1e-9 {
		t.Fatalf("IP power: %v", ip.TotalPower())
	}
	if math.Abs(ours.TotalPower()-0.083) > 1e-9 {
		t.Fatalf("our power: %v", ours.TotalPower())
	}
}

// TestTableIIISavings asserts the paper's headline comparisons: 43.61 %
// LUT, 37.25 % FF and 17 % power savings, with the IP faster on the
// reference stream.
func TestTableIIISavings(t *testing.T) {
	s := Compare(XilinxIP(), AdderBased())
	if math.Abs(s.LUT-0.4361) > 0.005 {
		t.Errorf("LUT savings %.4f, paper 43.61%%", s.LUT)
	}
	if math.Abs(s.FF-0.3725) > 0.005 {
		t.Errorf("FF savings %.4f, paper 37.25%%", s.FF)
	}
	if math.Abs(s.Power-0.17) > 0.005 {
		t.Errorf("power savings %.4f, paper 17%%", s.Power)
	}
	if s.Latency >= 0 {
		t.Errorf("our design must be slower on the reference stream: %v", s.Latency)
	}
}
