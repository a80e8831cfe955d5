// Package omnipe models η-LSTM's universal processing element (paper
// Sec. V-B, Fig. 12): one multiplier and one pipelined adder, joined by
// MUXes so the same datapath serves every operation LSTM training
// needs. The adder doubles as a streaming accumulator via the partial-
// sum scheme of internal/hw/accum.
//
// The datapath model is functional and cycle-counted: each operation
// returns the numerically exact result plus the cycles the PE was busy.
// No program runs it; the architecture model (internal/arch) reads only
// Resources and UnifiedPEResources, for Table III and to scale
// LSTM-Inf's PE count against its larger monolithic PE.
package omnipe

import (
	"fmt"

	"etalstm/internal/hw/accum"
)

// Op selects the PE's datapath configuration (the MUX settings of
// Fig. 12).
type Op int

// The four operation modes of Sec. V-B.
const (
	OpMatVec Op = iota // inner product: multiplier + adder-as-accumulator
	OpEWMul            // element-wise multiply: multiplier only
	OpOuter            // outer product row: multiplier only, broadcast operand
	OpEWAdd            // element-wise add: adder only
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpMatVec:
		return "matvec"
	case OpEWMul:
		return "ewmul"
	case OpOuter:
		return "outer"
	case OpEWAdd:
		return "ewadd"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Config sets the PE's pipeline depths. The paper's design runs the
// FP32 adder at 8 cycles (Sec. V-B) and the multiplier at 4.
type Config struct {
	MulLatency int
	AddLatency int
}

// Default returns the paper's pipeline configuration.
func Default() Config { return Config{MulLatency: 4, AddLatency: 8} }

func (c Config) validate() {
	if c.MulLatency < 1 || c.AddLatency < 1 {
		panic(fmt.Sprintf("omnipe: latencies must be ≥ 1: %+v", c))
	}
}

// PE is one Omni-PE instance. It accumulates busy-cycle statistics
// across operations so schedulers can compute utilization.
type PE struct {
	cfg Config

	busyCycles int64
	ops        int64
}

// New returns a PE with the given pipeline configuration.
func New(cfg Config) *PE {
	cfg.validate()
	return &PE{cfg: cfg}
}

// BusyCycles returns the cumulative cycles spent processing.
func (p *PE) BusyCycles() int64 { return p.busyCycles }

// Ops returns the number of operations executed.
func (p *PE) Ops() int64 { return p.ops }

func (p *PE) account(c int64) int64 {
	p.busyCycles += c
	p.ops++
	return c
}

// DotProduct computes Σ a_i·b_i in MatVec mode: operands stream through
// the multiplier one pair per cycle, products feed the adder-based
// accumulator. Cycles = n (streaming) + multiplier fill + merge tail.
func (p *PE) DotProduct(a, b []float32) (float32, int64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("omnipe: DotProduct lengths %d vs %d", len(a), len(b)))
	}
	if len(a) == 0 {
		return 0, 0
	}
	acc := accum.NewStreaming(p.cfg.AddLatency)
	for i := range a {
		acc.Push(a[i] * b[i])
	}
	sum, cycles := acc.Drain()
	total := cycles + int64(p.cfg.MulLatency)
	return sum, p.account(total)
}

// SparseDotProduct computes Σ a_i·b_i skipping pairs where a_i == 0 —
// the near-zero-operand skipping the DMA decoder enables (Sec. V-D):
// pruned operands never enter the multiplier, saving their cycles.
func (p *PE) SparseDotProduct(a, b []float32) (float32, int64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("omnipe: SparseDotProduct lengths %d vs %d", len(a), len(b)))
	}
	acc := accum.NewStreaming(p.cfg.AddLatency)
	pushed := 0
	for i := range a {
		if a[i] == 0 {
			continue
		}
		acc.Push(a[i] * b[i])
		pushed++
	}
	if pushed == 0 {
		return 0, 0
	}
	sum, cycles := acc.Drain()
	total := cycles + int64(p.cfg.MulLatency)
	return sum, p.account(total)
}

// EWMul computes dst_i = a_i·b_i through the multiplier, bypassing the
// adder (the Fig. 12 output MUX selects the multiplier port).
func (p *PE) EWMul(dst, a, b []float32) int64 {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("omnipe: EWMul length mismatch")
	}
	for i := range a {
		dst[i] = a[i] * b[i]
	}
	if len(a) == 0 {
		return 0
	}
	return p.account(int64(len(a)) + int64(p.cfg.MulLatency))
}

// OuterRow computes one row of an outer product: dst_i = scalar·vec_i.
// The scalar arrives once through the broadcast queue; throughput is
// one product per cycle.
func (p *PE) OuterRow(dst []float32, scalar float32, vec []float32) int64 {
	if len(dst) != len(vec) {
		panic("omnipe: OuterRow length mismatch")
	}
	for i := range vec {
		dst[i] = scalar * vec[i]
	}
	if len(vec) == 0 {
		return 0
	}
	return p.account(int64(len(vec)) + int64(p.cfg.MulLatency))
}

// EWAdd computes dst_i = a_i+b_i through the adder, bypassing the
// multiplier (both PE inputs route to the adder's ports).
func (p *PE) EWAdd(dst, a, b []float32) int64 {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("omnipe: EWAdd length mismatch")
	}
	for i := range a {
		dst[i] = a[i] + b[i]
	}
	if len(a) == 0 {
		return 0
	}
	return p.account(int64(len(a)) + int64(p.cfg.AddLatency))
}

// Resources returns the FPGA cost of one Omni-PE: FP multiplier + the
// adder-based accumulator datapath + queue/MUX control. Calibrated to
// the same primitive table as internal/hw/accum.
func Resources() accum.Resources {
	base := accum.AdderBased()
	return accum.Resources{
		LUT:             base.LUT + fp32MulLUT + muxLUT,
		FF:              base.FF + fp32MulFF + muxFF,
		ClockPower:      base.ClockPower + 0.008,
		SignalPower:     base.SignalPower + 0.013,
		LogicPower:      base.LogicPower + 0.016,
		PipelineLatency: base.PipelineLatency,
	}
}

// UnifiedPEResources returns the cost of the monolithic PE style the
// paper attributes to prior accelerators like E-PUR [33]: every PE
// carries multiply, add, dedicated accumulate and private activation
// logic, so it is much larger — which is why LSTM-Inf fits fewer PEs
// in the same fabric (Sec. V-A, "resource-consuming PE design").
func UnifiedPEResources() accum.Resources {
	omni := Resources()
	return accum.Resources{
		LUT:             omni.LUT + dedicatedAccumLUT + privateActLUT,
		FF:              omni.FF + dedicatedAccumFF + privateActFF,
		ClockPower:      omni.ClockPower * 1.6,
		SignalPower:     omni.SignalPower * 1.6,
		LogicPower:      omni.LogicPower * 1.7,
		PipelineLatency: omni.PipelineLatency,
	}
}

// Primitive costs (UltraScale+ calibration).
const (
	fp32MulLUT = 135 // DSP-assisted FP32 multiplier glue
	fp32MulFF  = 294
	muxLUT     = 52 // the five MUXes + controller of Fig. 12
	muxFF      = 40

	dedicatedAccumLUT = 438 // single-cycle accumulate datapath
	dedicatedAccumFF  = 457
	privateActLUT     = 210 // per-PE sigmoid/tanh LUT ports
	privateActFF      = 128
)
