// Package accum implements η-LSTM's adder-based streaming accumulator
// (paper Sec. V-B, Fig. 11, Table III): a floating-point adder with a
// multi-cycle pipeline that nevertheless accepts one streaming input
// per cycle by accumulating into partial sums and merging them when the
// stream ends.
//
// A conventional FP accumulator needs dedicated single-cycle feedback
// logic (the Xilinx Accumulator IP converts to 64-bit fixed point to
// achieve it — paper Table III); η-LSTM instead reuses the Omni-PE's
// ordinary pipelined adder. The cost is a short merge tail at the end
// of the stream, which the paper bounds at < 2.87 % for streams of at
// least 1024 values.
package accum

import "fmt"

// Streaming is the cycle-accurate adder-based accumulator model. One
// value may be pushed per cycle; Drain merges the remaining partials.
type Streaming struct {
	// AddLatency is the adder pipeline depth in cycles (8 in the
	// paper's design; Fig. 11 illustrates with 2).
	AddLatency int

	cycle    int64
	buffered *float32  // one unpaired stream input awaiting a partner
	partials []float32 // completed partial sums
	pipeline []addOp   // in-flight additions
	issued   int64     // total additions issued (for utilization stats)
}

type addOp struct {
	done int64
	val  float32
}

// NewStreaming returns an accumulator with the given adder latency.
func NewStreaming(addLatency int) *Streaming {
	if addLatency < 1 {
		panic(fmt.Sprintf("accum: adder latency %d must be ≥ 1", addLatency))
	}
	return &Streaming{AddLatency: addLatency}
}

// retire moves finished pipeline entries to the partial queue. Called
// at the start of each cycle.
func (s *Streaming) retire() {
	keep := s.pipeline[:0]
	for _, op := range s.pipeline {
		if op.done <= s.cycle {
			s.partials = append(s.partials, op.val)
		} else {
			keep = append(keep, op)
		}
	}
	s.pipeline = keep
}

func (s *Streaming) issue(a, b float32) {
	s.pipeline = append(s.pipeline, addOp{done: s.cycle + int64(s.AddLatency), val: a + b})
	s.issued++
}

// Push advances one cycle and feeds the next stream value. The
// controller policy matches Fig. 11: a new input pairs with the
// previously buffered input if one exists, otherwise with a ready
// partial sum, otherwise it waits buffered.
func (s *Streaming) Push(v float32) {
	s.cycle++
	s.retire()
	switch {
	case s.buffered != nil:
		a := *s.buffered
		s.buffered = nil
		s.issue(a, v)
	case len(s.partials) > 0:
		p := s.partials[0]
		s.partials = s.partials[1:]
		s.issue(p, v)
	default:
		v := v
		s.buffered = &v
	}
}

// step advances one cycle with no new input, pairing partials.
func (s *Streaming) step() {
	s.cycle++
	s.retire()
	switch {
	case s.buffered != nil && len(s.partials) > 0:
		a := *s.buffered
		s.buffered = nil
		p := s.partials[0]
		s.partials = s.partials[1:]
		s.issue(a, p)
	case len(s.partials) >= 2:
		a, b := s.partials[0], s.partials[1]
		s.partials = s.partials[2:]
		s.issue(a, b)
	}
}

// Drain runs the merge tail and returns the final sum and the total
// cycle count. An empty stream sums to 0.
func (s *Streaming) Drain() (sum float32, cycles int64) {
	for {
		inFlight := len(s.pipeline)
		nPart := len(s.partials)
		buf := 0
		if s.buffered != nil {
			buf = 1
		}
		remaining := inFlight + nPart + buf
		if remaining == 0 {
			return 0, s.cycle
		}
		if remaining == 1 && inFlight == 0 {
			if buf == 1 {
				return *s.buffered, s.cycle
			}
			return s.partials[0], s.cycle
		}
		s.step()
	}
}

// Accumulate sums values through the streaming model, returning the
// sum and total cycles — the top-level measurement of Table III's
// latency column.
func Accumulate(values []float32, addLatency int) (sum float32, cycles int64) {
	s := NewStreaming(addLatency)
	for _, v := range values {
		s.Push(v)
	}
	return s.Drain()
}

// IdealCycles returns the cycle count of a dedicated single-cycle-
// feedback accumulator (the Xilinx IP behaviour) for n inputs: one per
// cycle plus its fixed pipeline latency.
func IdealCycles(n int, ipLatency int) int64 {
	if n == 0 {
		return 0
	}
	return int64(n) + int64(ipLatency)
}

// Overhead returns the streaming design's relative latency overhead
// versus the ideal accumulator for n inputs — the quantity the paper
// bounds at < 2.87 % for n ≥ 1024 (Sec. VI-B5).
func Overhead(n, addLatency, ipLatency int) float64 {
	if n == 0 {
		return 0
	}
	vals := make([]float32, n)
	_, c := Accumulate(vals, addLatency)
	ideal := IdealCycles(n, ipLatency)
	return float64(c-ideal) / float64(ideal)
}
