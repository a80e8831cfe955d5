// Package obs is the unified telemetry layer: a zero-dependency
// (stdlib + internal/stats only) metrics registry plus lightweight
// phase spans for the FW/BP hot path.
//
// The registry holds counters, gauges and fixed-bin histograms behind
// one concurrent surface with two exports — the Prometheus text format
// (GET /metrics) and a flat name→value snapshot (JSON-friendly, the
// etalstm.Metrics() API). Instruments are upserted: asking for a name
// that already exists returns the existing instrument, so several
// trainers (or a trainer and a server) in one process share counters
// instead of fighting over registration.
//
// The span half (span.go) breaks a training step into the paper's
// execution phases (FW, BP-EW-P1, BP-EW-P2, BP-MatMul, all-reduce,
// optimizer). Recorders are goroutine-confined like the workspace
// arenas they ride on, off by default, and allocation-free whether
// enabled or disabled — the hot-path 0 allocs/op guarantee holds either
// way (see internal/lstm's alloc regression test).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"etalstm/internal/stats"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n (n < 0 is ignored: counters only go
// up; use a Gauge for signed quantities).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a concurrent fixed-bin histogram (equal-width bins over
// [Lo, Hi), edge-clamped — stats.Histogram under a mutex) that also
// keeps a bounded ring of recent raw observations so windowed p50/p99
// stay exact (stats.Quantiles) no matter how coarse the bins are.
type Histogram struct {
	mu   sync.Mutex
	h    *stats.Histogram
	sum  float64
	ring []float64
	idx  int
	n    int

	// Exemplar: the slowest (largest) recent observation that carried a
	// trace id — the "why was this tail slow?" pointer the latency
	// histograms attach so /statz and the Prometheus export can name a
	// concrete trace to pull from /debug/traces/{id}.
	exID  string
	exVal float64
	exAt  int64 // observation count when the exemplar was taken
	total int64
}

func newHistogram(lo, hi float64, bins, window int) *Histogram {
	if window <= 0 {
		window = 1024
	}
	return &Histogram{h: stats.NewHistogram(lo, hi, bins), ring: make([]float64, window)}
}

// Observe records one value. NaN observations are dropped so quantile
// and mean exports stay NaN-free. Allocation-free.
func (h *Histogram) Observe(v float64) { h.ObserveEx(v, "") }

// ObserveEx is Observe with an exemplar: a trace id naming the request
// behind the observation. The histogram keeps the largest recent
// exemplar — replaced when a bigger value arrives or when the held one
// ages out of the observation window — so the export always points at
// a representative slow trace, not a stale one.
func (h *Histogram) ObserveEx(v float64, traceID string) {
	if math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	h.h.Observe(v)
	h.sum += v
	h.ring[h.idx] = v
	h.idx = (h.idx + 1) % len(h.ring)
	if h.n < len(h.ring) {
		h.n++
	}
	h.total++
	if traceID != "" &&
		(h.exID == "" || v >= h.exVal || h.total-h.exAt > int64(len(h.ring))) {
		h.exID, h.exVal, h.exAt = traceID, v, h.total
	}
	h.mu.Unlock()
}

// HistSnapshot is one consistent view of a histogram.
type HistSnapshot struct {
	Lo, Hi float64
	Bins   []int64
	Count  int64
	Sum    float64
	// P50/P99 are nearest-rank quantiles over the recent-observation
	// window (not the bins), so they are exact for the last window.
	P50, P99 float64
	// ExemplarTraceID/ExemplarValue name the slowest recent traced
	// observation ("" when no observation carried a trace id).
	ExemplarTraceID string
	ExemplarValue   float64
}

// Snapshot returns a copy of the histogram's state.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	s := HistSnapshot{
		Lo:              h.h.Lo,
		Hi:              h.h.Hi,
		Bins:            append([]int64(nil), h.h.Bins...),
		Count:           h.h.Total(),
		Sum:             h.sum,
		ExemplarTraceID: h.exID,
		ExemplarValue:   h.exVal,
	}
	window := append([]float64(nil), h.ring[:h.n]...)
	h.mu.Unlock()
	qs := stats.Quantiles(window, 0.5, 0.99)
	s.P50, s.P99 = qs[0], qs[1]
	return s
}

// Mean returns Sum/Count (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// kind tags what an entry holds.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
	kindInfo
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGaugeFunc, kindGauge, kindInfo:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

type entry struct {
	name   string
	labels string // rendered `key="value"` label pair, "" for unlabeled
	help   string
	kind   kind

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram

	// infoKey and infoFn give an InfoFunc entry its label pair at
	// export time.
	infoKey string
	infoFn  func() string
}

// series renders the full sample name including the label pair —
// `name` or `name{key="value"}` — used by both export formats.
func (e *entry) series() string {
	labels := e.labels
	if e.infoFn != nil {
		labels = renderLabel(e.infoKey, e.infoFn())
	}
	if labels == "" {
		return e.name
	}
	return e.name + "{" + labels + "}"
}

// renderLabel formats one key="value" pair with the value escaped the
// way the Prometheus text format requires (backslash, quote, newline).
func renderLabel(key, val string) string {
	var b strings.Builder
	b.WriteString(key)
	b.WriteString(`="`)
	for _, r := range val {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// Registry is a concurrent collection of named instruments.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// Default is the process-wide registry: the training stack registers
// its instruments here, etalstm.Metrics() snapshots it, and etatrain's
// -metrics-addr serves it. Servers keep per-instance registries instead
// (their counters describe one Server's lifetime).
var Default = NewRegistry()

// key builds the registry map key for a (name, labels) pair. The 0xff
// separator cannot appear in a metric name, so labeled and unlabeled
// series under one family never collide.
func key(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "\xff" + labels
}

// lookup returns the existing entry under key after checking its kind,
// or nil when absent.
func (r *Registry) lookup(key string, k kind) *entry {
	if e, ok := r.entries[key]; ok {
		if e.kind != k {
			panic(fmt.Sprintf("obs: %q re-registered as %v, was %v", e.name, k, e.kind))
		}
		return e
	}
	return nil
}

// Counter returns the counter registered under name, creating it on
// first use. help is kept from the first registration.
func (r *Registry) Counter(name, help string) *Counter {
	return r.counter(name, "", help)
}

// CounterL is Counter with one label pair: each distinct (name, key,
// value) triple is its own series under the shared family name — how
// the fleet router keeps per-replica request counts.
func (r *Registry) CounterL(name, help, labelKey, labelVal string) *Counter {
	return r.counter(name, renderLabel(labelKey, labelVal), help)
}

func (r *Registry) counter(name, labels, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := key(name, labels)
	if e := r.lookup(k, kindCounter); e != nil {
		return e.counter
	}
	c := &Counter{}
	r.entries[k] = &entry{name: name, labels: labels, help: help, kind: kindCounter, counter: c}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.gauge(name, "", help)
}

// GaugeL is Gauge with one label pair (see CounterL).
func (r *Registry) GaugeL(name, help, labelKey, labelVal string) *Gauge {
	return r.gauge(name, renderLabel(labelKey, labelVal), help)
}

func (r *Registry) gauge(name, labels, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := key(name, labels)
	if e := r.lookup(k, kindGauge); e != nil {
		return e.gauge
	}
	g := &Gauge{}
	r.entries[k] = &entry{name: name, labels: labels, help: help, kind: kindGauge, gauge: g}
	return g
}

// GaugeFunc registers a gauge whose value is computed at export time
// (queue depths, session counts, arena residency). Re-registering a
// name replaces the function — the newest owner wins.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.gaugeFunc(name, "", help, fn)
}

// GaugeFuncL is GaugeFunc with one label pair (see CounterL).
func (r *Registry) GaugeFuncL(name, help, labelKey, labelVal string, fn func() float64) {
	r.gaugeFunc(name, renderLabel(labelKey, labelVal), help, fn)
}

func (r *Registry) gaugeFunc(name, labels, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := key(name, labels)
	if e := r.lookup(k, kindGaugeFunc); e != nil {
		e.fn = fn
		return
	}
	r.entries[k] = &entry{name: name, labels: labels, help: help, kind: kindGaugeFunc, fn: fn}
}

// SetInfo registers (or relabels) an info-style gauge: a series that is
// constantly 1 and carries its payload in the label value — e.g.
// etalstm_checkpoint_digest{digest="ab12…"} 1. The entry is keyed by
// name alone, so calling SetInfo again replaces the label in place (a
// checkpoint hot-swap updates the digest rather than accumulating one
// stale series per generation).
func (r *Registry) SetInfo(name, help, labelKey, labelVal string) {
	r.SetInfoKV(name, help, labelKey, labelVal)
}

// SetInfoKV is SetInfo with several label pairs (kv alternates key,
// value) — build-info style gauges carry goversion/version/revision in
// one series.
func (r *Registry) SetInfoKV(name, help string, kv ...string) {
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(renderLabel(kv[i], kv[i+1]))
	}
	r.setInfo(&entry{name: name, labels: b.String(), help: help, kind: kindInfo})
}

// InfoFunc is SetInfo with the label value computed at export time, for
// a payload that costs work to produce and may never be read (a served
// checkpoint's content digest). A later SetInfo or InfoFunc under the
// same name replaces it.
func (r *Registry) InfoFunc(name, help, labelKey string, fn func() string) {
	r.setInfo(&entry{name: name, help: help, kind: kindInfo, infoKey: labelKey, infoFn: fn})
}

// setInfo installs an info entry under its name alone, keeping the
// help of the first registration. A relabel swaps in the new entry
// rather than editing the old one, which an export may be reading
// outside the lock.
func (r *Registry) setInfo(e *entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old := r.lookup(e.name, kindInfo); old != nil {
		e.help = old.help
	}
	r.entries[e.name] = e
}

// Histogram returns the histogram registered under name, creating it
// with bins equal-width bins over [lo, hi) and a window-sized
// recent-observation ring on first use.
func (r *Registry) Histogram(name, help string, lo, hi float64, bins, window int) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.lookup(name, kindHistogram); e != nil {
		return e.hist
	}
	h := newHistogram(lo, hi, bins, window)
	r.entries[name] = &entry{name: name, help: help, kind: kindHistogram, hist: h}
	return h
}

// sorted returns the entries in name order (the export order both
// formats use).
func (r *Registry) sorted() []*entry {
	r.mu.RLock()
	es := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		es = append(es, e)
	}
	r.mu.RUnlock()
	sort.Slice(es, func(i, j int) bool {
		if es[i].name != es[j].name {
			return es[i].name < es[j].name
		}
		return es[i].labels < es[j].labels
	})
	return es
}

// WritePrometheus writes every instrument in the Prometheus text
// exposition format (version 0.0.4), sorted by name. Labeled series
// under one family share a single HELP/TYPE header.
func (r *Registry) WritePrometheus(w io.Writer) error {
	prev := ""
	for _, e := range r.sorted() {
		if e.name != prev {
			prev = e.name
			if e.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.name, e.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, e.kind); err != nil {
				return err
			}
		}
		var err error
		switch e.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", e.series(), e.counter.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s %s\n", e.series(), formatFloat(e.gauge.Value()))
		case kindGaugeFunc:
			_, err = fmt.Fprintf(w, "%s %s\n", e.series(), formatFloat(e.fn()))
		case kindInfo:
			_, err = fmt.Fprintf(w, "%s 1\n", e.series())
		case kindHistogram:
			err = writePromHistogram(w, e.name, e.hist.Snapshot())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram emits the cumulative _bucket/_sum/_count triplet.
// The fixed-bin layout maps to le = Lo + (i+1)·width; the edge-clamped
// top bin plus the +Inf bucket keep the cumulative counts consistent.
func writePromHistogram(w io.Writer, name string, s HistSnapshot) error {
	width := (s.Hi - s.Lo) / float64(len(s.Bins))
	var cum int64
	for i, c := range s.Bins {
		cum += c
		le := s.Lo + float64(i+1)*width
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(le), cum); err != nil {
			return err
		}
	}
	// The +Inf bucket carries the exemplar (OpenMetrics syntax: a "#"
	// suffix with a labelset and the exemplar's value). Plain text-format
	// scrapers ignore everything after the sample value's line position;
	// OpenMetrics-aware ones surface the trace id next to the histogram.
	ex := ""
	if s.ExemplarTraceID != "" {
		ex = fmt.Sprintf(" # {%s} %s",
			renderLabel("trace_id", s.ExemplarTraceID), formatFloat(s.ExemplarValue))
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d%s\n", name, s.Count, ex); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
	return err
}

// formatFloat renders a float the way Prometheus expects (shortest
// round-trip representation; NaN guarded to 0 so exports stay finite).
func formatFloat(v float64) string {
	if math.IsNaN(v) {
		v = 0
	}
	return fmt.Sprintf("%g", v)
}

// Snapshot flattens every instrument to name→value: counters and
// gauges directly; histograms contribute <name>_count, <name>_sum,
// <name>_p50 and <name>_p99. The map is JSON-ready and is what
// etalstm.Metrics() returns.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, e := range r.sorted() {
		switch e.kind {
		case kindCounter:
			out[e.series()] = float64(e.counter.Value())
		case kindGauge:
			out[e.series()] = e.gauge.Value()
		case kindGaugeFunc:
			out[e.series()] = e.fn()
		case kindInfo:
			out[e.series()] = 1
		case kindHistogram:
			s := e.hist.Snapshot()
			out[e.name+"_count"] = float64(s.Count)
			out[e.name+"_sum"] = s.Sum
			out[e.name+"_p50"] = s.P50
			out[e.name+"_p99"] = s.P99
		}
	}
	return out
}
