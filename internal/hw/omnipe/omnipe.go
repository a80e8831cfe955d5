// Package omnipe holds the FPGA resource tables of η-LSTM's universal
// processing element (paper Sec. V-B, Fig. 12) — one multiplier and one
// pipelined adder, joined by MUXes so the same datapath serves every
// operation LSTM training needs, the adder doubling as the partial-sum
// accumulator of internal/hw/accum — and of the monolithic PE of prior
// accelerators. The architecture model (internal/arch) reads them for
// Table III and to scale LSTM-Inf's PE count against its larger PE.
package omnipe

import "etalstm/internal/hw/accum"

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
