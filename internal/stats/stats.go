// Package stats provides the small statistical toolkit the experiment
// harnesses use: empirical CDFs over absolute values (paper Fig. 6),
// fixed-bin histograms, and series trends (paper Fig. 8).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution over absolute values.
type CDF struct {
	sorted []float64 // ascending |v|
}

// NewCDF builds a CDF from the absolute values of vs.
func NewCDF(vs []float32) *CDF {
	s := make([]float64, len(vs))
	for i, v := range vs {
		s[i] = math.Abs(float64(v))
	}
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Merge combines another sample set into the CDF.
func (c *CDF) Merge(vs []float32) {
	for _, v := range vs {
		c.sorted = append(c.sorted, math.Abs(float64(v)))
	}
	sort.Float64s(c.sorted)
}

// At returns P(|v| ≤ x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Histogram counts values into equal-width bins over [lo, hi); values
// outside clamp into the edge bins.
type Histogram struct {
	Lo, Hi float64
	Bins   []int64
	total  int64
}

// NewHistogram creates a histogram with n bins over [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: bad histogram [%v,%v)x%d", lo, hi, n))
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]int64, n)}
}

// Observe adds a value.
func (h *Histogram) Observe(v float64) {
	idx := int((v - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Bins)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.Bins) {
		idx = len(h.Bins) - 1
	}
	h.Bins[idx]++
	h.total++
}

// Total returns the observation count.
func (h *Histogram) Total() int64 { return h.total }

// Monotone classifies a series' trend: +1 broadly increasing, −1
// broadly decreasing, 0 neither (uses the sign of the endpoints' slope
// with a majority-of-steps confirmation) — how the Fig. 8 harness
// asserts the gradient-magnitude direction.
func Monotone(vs []float64) int {
	if len(vs) < 2 {
		return 0
	}
	up, down := 0, 0
	for i := 1; i < len(vs); i++ {
		switch {
		case vs[i] > vs[i-1]:
			up++
		case vs[i] < vs[i-1]:
			down++
		}
	}
	slope := vs[len(vs)-1] - vs[0]
	switch {
	case slope > 0 && up > down:
		return 1
	case slope < 0 && down > up:
		return -1
	}
	return 0
}

// Quantiles returns the q-th quantiles of vs (nearest-rank on a sorted
// copy) in one sort pass — the p50/p99 export of the telemetry layer
// and the serving /statz endpoint.
//
// Contract: vs is never mutated; an empty sample yields all zeros; a
// single sample yields that value for every q; q is clamped to [0, 1]
// (q≤0 → minimum, q≥1 → maximum); NaN observations are dropped before
// ranking, so the output is NaN-free whenever any finite sample exists
// (all-NaN input degrades to the empty case). NaN would otherwise
// leave sort.Float64s order unspecified and poison every quantile.
func Quantiles(vs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	sorted := make([]float64, 0, len(vs))
	for _, v := range vs {
		if !math.IsNaN(v) {
			sorted = append(sorted, v)
		}
	}
	if len(sorted) == 0 {
		return out
	}
	sort.Float64s(sorted)
	for i, q := range qs {
		switch {
		case q >= 1:
			out[i] = sorted[len(sorted)-1]
		case q > 0: // finite (0,1); NaN q falls through to the minimum
			out[i] = sorted[int(q*float64(len(sorted)-1))]
		default:
			out[i] = sorted[0]
		}
	}
	return out
}

// Zipf is a deterministic sampler over ranks {0..n-1} with
// P(k) ∝ (k+1)^(−s): rank 0 is the hottest. It is built once (O(n))
// and sampled by inverse-CDF lookup from caller-supplied uniforms, so
// the draw sequence is exactly as reproducible as the RNG feeding it —
// the session-skew knob of the fleet load generator.
type Zipf struct {
	cum []float64 // normalized cumulative weights, cum[n-1] == 1
}

// NewZipf builds a Zipf(s) sampler over n ranks. n must be positive;
// s ≤ 0 degrades gracefully to a uniform (or inverted) weighting since
// the weights stay positive either way.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic(fmt.Sprintf("stats: Zipf over %d ranks", n))
	}
	cum := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += math.Pow(float64(k+1), -s)
		cum[k] = total
	}
	for k := range cum {
		cum[k] /= total
	}
	return &Zipf{cum: cum}
}

// Rank maps a uniform draw u ∈ [0, 1) to a rank by inverse CDF:
// the smallest k with cum[k] > u. Out-of-range u clamps to the edges.
func (z *Zipf) Rank(u float64) int {
	if u <= 0 || math.IsNaN(u) {
		return 0
	}
	if u >= 1 {
		return len(z.cum) - 1
	}
	k := sort.Search(len(z.cum), func(i int) bool { return z.cum[i] > u })
	if k >= len(z.cum) {
		k = len(z.cum) - 1
	}
	return k
}

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}
