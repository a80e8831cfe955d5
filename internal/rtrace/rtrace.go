// Package rtrace is the runtime request/step tracing layer: 128-bit
// trace IDs, parent-linked spans with events and attributes, and a
// per-process flight recorder — a bounded ring of completed spans that
// GET /debug/traces serves and SIGQUIT dumps.
//
// It is deliberately distinct from internal/traffic, which models DRAM
// data movement for the paper's cost analysis; rtrace traces the
// running system (requests through the fleet, sweeps through the
// batcher, optimizer steps through the distributed trainer).
//
// Sampling. Every root span makes a head-sampling decision at creation
// (keep 1 in SampleEvery); spans of a trace are buffered per trace and
// committed to the ring only when the root finishes and the trace is
// kept. A trace that head-sampling would drop is still kept when its
// root errored or ran longer than SlowThreshold — the flight-recorder
// property: the traces you want after an incident are exactly the slow
// and broken ones.
//
// Cost discipline. The disabled path is a nil *Tracer (and therefore
// nil *Span everywhere): every method is a pointer test, no clock
// reads, no allocation — which is what keeps the warm FW+BP cell loop
// at 0 allocs/op with tracing compiled in, and makes it safe to leave
// the plumbing in production builds. Spans are only created at
// request/sweep/step granularity, never per cell; per-phase timing
// rides the existing obs.Recorder and is folded into child spans after
// the fact.
package rtrace

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a 128-bit trace identifier, rendered as 32 hex digits.
type TraceID [16]byte

// SpanID is a 64-bit span identifier, rendered as 16 hex digits.
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

const hexdigits = "0123456789abcdef"

func appendHex(dst []byte, b []byte) []byte {
	for _, c := range b {
		dst = append(dst, hexdigits[c>>4], hexdigits[c&0xf])
	}
	return dst
}

// String renders the id as lowercase hex.
func (t TraceID) String() string { return string(appendHex(make([]byte, 0, 32), t[:])) }

// String renders the id as lowercase hex.
func (s SpanID) String() string { return string(appendHex(make([]byte, 0, 16), s[:])) }

// ParseTraceID parses 32 lowercase/uppercase hex digits.
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if !parseHex(t[:], s) || t.IsZero() {
		return TraceID{}, false
	}
	return t, true
}

// ParseSpanID parses 16 hex digits.
func ParseSpanID(s string) (SpanID, bool) {
	var id SpanID
	if !parseHex(id[:], s) || id.IsZero() {
		return SpanID{}, false
	}
	return id, true
}

func parseHex(dst []byte, s string) bool {
	if len(s) != 2*len(dst) {
		return false
	}
	for i := range dst {
		hi, ok1 := hexVal(s[2*i])
		lo, ok2 := hexVal(s[2*i+1])
		if !ok1 || !ok2 {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// idState seeds the process-wide id generator once; splitmix64 over an
// atomic counter gives unique, well-mixed ids without crypto/rand on
// the request path.
var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32 ^ 0x9e3779b97f4a7c15)
}

func nextRand() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// NewIDs mints a fresh (trace, span) id pair — what a client with no
// tracer of its own (the load generator) uses to originate a trace.
func NewIDs() (TraceID, SpanID) {
	var t TraceID
	var s SpanID
	putU64(t[:8], nextRand())
	putU64(t[8:], nextRand())
	putU64(s[:], nextRand())
	return t, s
}

func newSpanID() SpanID {
	var s SpanID
	putU64(s[:], nextRand())
	return s
}

func putU64(dst []byte, v uint64) {
	for i := 0; i < 8; i++ {
		dst[i] = byte(v >> (56 - 8*i))
	}
}

// Attr is one string key/value pair on a span or event.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Event is a point-in-time annotation on a span (a routing decision, a
// failover hop, a straggler wait).
type Event struct {
	Time  time.Time `json:"time"`
	Name  string    `json:"name"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// SpanData is one completed span as the flight recorder stores it.
type SpanData struct {
	TraceID  TraceID
	SpanID   SpanID
	Parent   SpanID // zero for a root (or a remote parent not seen locally)
	Process  string // the tracer's process label
	Name     string
	Start    time.Time
	Duration time.Duration
	Error    string
	Attrs    []Attr
	Events   []Event
}

// Options tunes a Tracer; zero values select production-sensible
// defaults.
type Options struct {
	// Process labels every span with the emitting process (e.g.
	// "router", "replica-0", "coordinator") so merged cross-process
	// trees stay readable. Empty is allowed.
	Process string
	// Capacity bounds the flight-recorder ring of completed spans
	// (0 = 8192).
	Capacity int
	// SampleEvery head-samples root spans: 1 in SampleEvery traces is
	// kept (0 or 1 = keep every trace). Slow and errored traces are kept
	// regardless of the head decision.
	SampleEvery int
	// SlowThreshold always keeps a trace whose root span ran at least
	// this long, sampled or not (0 = 250ms).
	SlowThreshold time.Duration
	// MaxSpansPerTrace bounds the per-trace span buffer; spans beyond it
	// are counted but dropped (0 = 512).
	MaxSpansPerTrace int
}

func (o Options) withDefaults() Options {
	if o.Capacity <= 0 {
		o.Capacity = 8192
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = 1
	}
	if o.SlowThreshold <= 0 {
		o.SlowThreshold = 250 * time.Millisecond
	}
	if o.MaxSpansPerTrace <= 0 {
		o.MaxSpansPerTrace = 512
	}
	return o
}

// Tracer owns one process's flight recorder. A nil *Tracer is the
// disabled tracer: every method (and every method of the nil spans it
// hands out) is a no-op behind a single pointer test.
type Tracer struct {
	opts Options
	hdr  atomic.Uint64 // head-sampling counter

	mu      sync.Mutex
	ring    []SpanData
	next    int
	wrapped bool
	dropped int64 // spans dropped by the per-trace buffer bound
}

// New builds an enabled tracer.
func New(opts Options) *Tracer {
	o := opts.withDefaults()
	return &Tracer{opts: o, ring: make([]SpanData, 0, o.Capacity)}
}

// def is the process-default tracer the training stack (core, parallel,
// dist) traces through, mirroring obs.Default. nil = tracing disabled.
var def atomic.Pointer[Tracer]

// Default returns the process-default tracer (nil when tracing is
// disabled, which is the starting state).
func Default() *Tracer { return def.Load() }

// Enable installs a process-default tracer built from opts and returns
// it. Call once at startup, before training begins.
func Enable(opts Options) *Tracer {
	t := New(opts)
	def.Store(t)
	return t
}

// SetDefault installs (or, with nil, disables) the process-default
// tracer directly — the test hook behind Enable.
func SetDefault(t *Tracer) { def.Store(t) }

// Process returns the tracer's process label ("" on nil).
func (t *Tracer) Process() string {
	if t == nil {
		return ""
	}
	return t.opts.Process
}

// Dropped reports spans discarded by the per-trace buffer bound.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// traceState is the shared per-trace bookkeeping: the head-sampling
// decision, the buffer of finished spans awaiting the root's verdict,
// and the flush state once the root finished. One state is created per
// local root span; all descendants share it.
type traceState struct {
	tr      *Tracer
	mu      sync.Mutex
	traceID TraceID
	sampled bool
	spans   []SpanData
	flushed bool
	kept    bool
	root    *Span
}

// Span is one in-flight traced operation. All methods are safe on a
// nil receiver (the disabled-tracing path) and safe to call from a
// goroutine other than the creator's — the batcher's sweep worker
// annotates request spans owned by blocked submitters.
type Span struct {
	st   *traceState
	data SpanData
	done atomic.Bool
}

// headSample decides whether a fresh root trace is kept by default.
func (t *Tracer) headSample() bool {
	if t.opts.SampleEvery <= 1 {
		return true
	}
	return t.hdr.Add(1)%uint64(t.opts.SampleEvery) == 0
}

// StartSpan begins a new local root span, minting a fresh trace id and
// making the head-sampling decision for the whole trace.
func (t *Tracer) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	tid, sid := NewIDs()
	return t.start(name, tid, SpanID{}, sid, t.headSample())
}

// StartRemote begins a local root span under a trace that originated in
// another process (or another component of this one): the inbound
// traceparent's trace id and parent span id, plus its sampling
// decision. The remote decision wins — a sampled trace stays sampled
// across every process it touches.
func (t *Tracer) StartRemote(name string, tid TraceID, parent SpanID, sampled bool) *Span {
	if t == nil {
		return nil
	}
	if tid.IsZero() {
		return t.StartSpan(name)
	}
	return t.start(name, tid, parent, newSpanID(), sampled)
}

func (t *Tracer) start(name string, tid TraceID, parent, sid SpanID, sampled bool) *Span {
	s := &Span{
		st: &traceState{tr: t, traceID: tid, sampled: sampled},
		data: SpanData{
			TraceID: tid, SpanID: sid, Parent: parent,
			Process: t.opts.Process, Name: name, Start: time.Now(),
		},
	}
	s.st.root = s
	return s
}

// Child begins a span under s, in the same trace.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	s.st.mu.Lock()
	tid := s.st.traceID
	s.st.mu.Unlock()
	return &Span{
		st: s.st,
		data: SpanData{
			TraceID: tid, SpanID: newSpanID(), Parent: s.data.SpanID,
			Process: s.st.tr.opts.Process, Name: name, Start: time.Now(),
		},
	}
}

// TraceID returns the span's trace id (zero on nil).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	return s.st.traceID
}

// SpanID returns the span's id (zero on nil).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.data.SpanID
}

// Sampled reports the trace's head-sampling decision (false on nil).
// Slow/error traces may still be kept when this is false.
func (s *Span) Sampled() bool {
	if s == nil {
		return false
	}
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	return s.st.sampled
}

// Traceparent renders the span's context as a W3C traceparent header
// value for outbound propagation ("" on nil).
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return FormatTraceparent(s.TraceID(), s.data.SpanID, s.Sampled())
}

// Attr attaches a key/value pair to the span.
func (s *Span) Attr(key, value string) {
	if s == nil {
		return
	}
	s.st.mu.Lock()
	s.data.Attrs = append(s.data.Attrs, Attr{Key: key, Value: value})
	s.st.mu.Unlock()
}

// Event records a point-in-time annotation with optional key/value
// attribute pairs (kv must alternate key, value).
func (s *Span) Event(name string, kv ...string) {
	if s == nil {
		return
	}
	ev := Event{Time: time.Now(), Name: name}
	for i := 0; i+1 < len(kv); i += 2 {
		ev.Attrs = append(ev.Attrs, Attr{Key: kv[i], Value: kv[i+1]})
	}
	s.st.mu.Lock()
	s.data.Events = append(s.data.Events, ev)
	s.st.mu.Unlock()
}

// linkAttr is the event attribute that names a linked span.
const linkAttr = "span_id"

// Link records a name event naming target — a span recorded under
// another trace that this span shares, such as a batcher sweep running
// once for several traced requests. Trace resolves the link: the
// target and its descendants appear in this span's trace as its
// children. A nil target records nothing.
func (s *Span) Link(name string, target *Span) {
	if target == nil {
		return
	}
	s.Event(name, linkAttr, target.SpanID().String())
}

// SetError marks the span (and therefore its trace) as failed; an
// errored trace is always kept. nil err is a no-op.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.st.mu.Lock()
	s.data.Error = err.Error()
	s.st.mu.Unlock()
}

// Errorf is SetError with a formatted message.
func (s *Span) Errorf(format string, args ...any) {
	if s == nil {
		return
	}
	s.st.mu.Lock()
	s.data.Error = fmt.Sprintf(format, args...)
	s.st.mu.Unlock()
}

// Adopt rewires the span — and every span its trace creates from now
// on — onto a trace that arrived after the span started: the
// distributed worker learns the coordinator's step trace only from the
// merged broadcast, after its upload span is already open. sampled
// forces the keep decision of the adopting trace (the coordinator's
// sampling travels with its trace id).
func (s *Span) Adopt(tid TraceID, parent SpanID, sampled bool) {
	if s == nil || tid.IsZero() {
		return
	}
	s.st.mu.Lock()
	s.st.traceID = tid
	if sampled {
		s.st.sampled = true
	}
	s.data.TraceID = tid
	if !parent.IsZero() {
		s.data.Parent = parent
	}
	for i := range s.st.spans {
		s.st.spans[i].TraceID = tid
	}
	s.st.mu.Unlock()
}

// RecordChild appends an already-measured child span — how per-phase
// wall time measured by an obs.Recorder during a sweep or step is
// folded into the trace after the fact. kv attribute pairs are
// attached to the recorded span.
func (s *Span) RecordChild(name string, start time.Time, d time.Duration, kv ...string) {
	if s == nil {
		return
	}
	data := SpanData{
		SpanID: newSpanID(), Parent: s.data.SpanID,
		Process: s.st.tr.opts.Process, Name: name, Start: start, Duration: d,
	}
	for i := 0; i+1 < len(kv); i += 2 {
		data.Attrs = append(data.Attrs, Attr{Key: kv[i], Value: kv[i+1]})
	}
	s.st.mu.Lock()
	data.TraceID = s.st.traceID
	s.st.addLocked(data)
	s.st.mu.Unlock()
}

// Finish completes the span. Finishing the trace's local root decides
// the trace's fate: commit every buffered span to the flight recorder
// when the trace is sampled, errored, or slow; drop otherwise. Finish
// is idempotent.
func (s *Span) Finish() {
	if s == nil || !s.done.CompareAndSwap(false, true) {
		return
	}
	s.st.mu.Lock()
	s.data.Duration = time.Since(s.data.Start)
	s.data.TraceID = s.st.traceID
	if s.st.root == s {
		keep := s.st.sampled || s.data.Error != "" ||
			s.data.Duration >= s.st.tr.opts.SlowThreshold
		s.st.flushed, s.st.kept = true, keep
		spans := s.st.spans
		s.st.spans = nil
		s.st.mu.Unlock()
		if keep {
			s.st.tr.commit(spans)
			s.st.tr.commit([]SpanData{s.data})
		}
		return
	}
	s.st.addLocked(s.data)
	s.st.mu.Unlock()
}

// FinishErr is SetError + Finish in one call, convenient with defer.
func (s *Span) FinishErr(err error) {
	s.SetError(err)
	s.Finish()
}

// addLocked buffers (or, post-flush, commits) one finished span.
// Caller holds st.mu.
func (st *traceState) addLocked(data SpanData) {
	if st.flushed {
		if st.kept {
			// A straggler finishing after the root: commit directly.
			st.tr.commit([]SpanData{data})
		}
		return
	}
	if len(st.spans) >= st.tr.opts.MaxSpansPerTrace {
		st.tr.mu.Lock()
		st.tr.dropped++
		st.tr.mu.Unlock()
		return
	}
	st.spans = append(st.spans, data)
}

// commit appends finished spans to the flight-recorder ring.
func (t *Tracer) commit(spans []SpanData) {
	if len(spans) == 0 {
		return
	}
	t.mu.Lock()
	for _, sd := range spans {
		if len(t.ring) < cap(t.ring) {
			t.ring = append(t.ring, sd)
		} else {
			t.ring[t.next] = sd
			t.next = (t.next + 1) % cap(t.ring)
			t.wrapped = true
		}
	}
	t.mu.Unlock()
}

// Spans returns a copy of the flight recorder's contents, oldest first
// (nil on a nil tracer).
func (t *Tracer) Spans() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrapped {
		return append([]SpanData(nil), t.ring...)
	}
	out := make([]SpanData, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// Trace returns the recorded spans of one trace, oldest first,
// followed by the spans its links name (see Link).
func (t *Tracer) Trace(id TraceID) []SpanData {
	all := t.Spans()
	var out []SpanData
	for _, sd := range all {
		if sd.TraceID == id {
			out = append(out, sd)
		}
	}
	return appendLinked(out, all, id)
}

// appendLinked resolves the links recorded by the spans of trace id:
// each linked span still in the recorder, and its descendants, is
// appended as a copy moved into trace id, the linked span re-parented
// under the span that links it and tagged with the trace it was
// recorded under.
func appendLinked(out, all []SpanData, id TraceID) []SpanData {
	have := make(map[SpanID]bool, len(out))
	for _, sd := range out {
		have[sd.SpanID] = true
	}
	type link struct{ target, from SpanID }
	var links []link
	for _, sd := range out {
		for _, ev := range sd.Events {
			for _, a := range ev.Attrs {
				if a.Key != linkAttr {
					continue
				}
				if sid, ok := ParseSpanID(a.Value); ok && !have[sid] {
					links = append(links, link{sid, sd.SpanID})
				}
			}
		}
	}
	if len(links) == 0 {
		return out
	}
	byID := make(map[SpanID]SpanData, len(all))
	children := make(map[SpanID][]SpanID)
	for _, sd := range all {
		byID[sd.SpanID] = sd
		children[sd.Parent] = append(children[sd.Parent], sd.SpanID)
	}
	for _, l := range links {
		root, ok := byID[l.target]
		if !ok || have[l.target] {
			continue
		}
		have[l.target] = true
		root.Parent = l.from
		root.Attrs = append(root.Attrs[:len(root.Attrs):len(root.Attrs)],
			Attr{Key: "linked_trace", Value: root.TraceID.String()})
		root.TraceID = id
		out = append(out, root)
		queue := []SpanID{l.target}
		for len(queue) > 0 {
			p := queue[0]
			queue = queue[1:]
			for _, c := range children[p] {
				if have[c] {
					continue
				}
				have[c] = true
				sd := byID[c]
				sd.TraceID = id
				out = append(out, sd)
				queue = append(queue, c)
			}
		}
	}
	return out
}

// Summary is one trace's row in the GET /debug/traces listing.
type Summary struct {
	TraceID    string    `json:"trace_id"`
	Root       string    `json:"root"`
	Process    string    `json:"process,omitempty"`
	Start      time.Time `json:"start"`
	DurationMs float64   `json:"duration_ms"`
	Spans      int       `json:"spans"`
	Error      string    `json:"error,omitempty"`
}

// Summaries groups the flight recorder by trace, newest root first,
// capped at limit (<= 0 = no cap). The root of a trace is its earliest
// recorded parentless span; a trace whose root lives in another
// process is summarized by its earliest local span.
func (t *Tracer) Summaries(limit int) []Summary {
	spans := t.Spans()
	byTrace := make(map[TraceID][]SpanData)
	order := make([]TraceID, 0)
	for _, sd := range spans {
		if _, ok := byTrace[sd.TraceID]; !ok {
			order = append(order, sd.TraceID)
		}
		byTrace[sd.TraceID] = append(byTrace[sd.TraceID], sd)
	}
	out := make([]Summary, 0, len(order))
	for _, id := range order {
		group := byTrace[id]
		root := pickRoot(group)
		sum := Summary{
			TraceID: id.String(), Root: root.Name, Process: root.Process,
			Start: root.Start, DurationMs: ms(root.Duration), Spans: len(group),
		}
		for _, sd := range group {
			if sd.Error != "" {
				sum.Error = sd.Error
				break
			}
		}
		out = append(out, sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// pickRoot returns the trace's local root: the earliest span whose
// parent is absent from the group.
func pickRoot(group []SpanData) SpanData {
	present := make(map[SpanID]bool, len(group))
	for _, sd := range group {
		present[sd.SpanID] = true
	}
	best := group[0]
	found := false
	for _, sd := range group {
		if sd.Parent.IsZero() || !present[sd.Parent] {
			if !found || sd.Start.Before(best.Start) {
				best, found = sd, true
			}
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
