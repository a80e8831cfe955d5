package rtrace

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestIDRoundTrip(t *testing.T) {
	tid, sid := NewIDs()
	if tid.IsZero() || sid.IsZero() {
		t.Fatalf("NewIDs returned zero id: %v %v", tid, sid)
	}
	if len(tid.String()) != 32 || len(sid.String()) != 16 {
		t.Fatalf("hex lengths: %q %q", tid, sid)
	}
	t2, ok := ParseTraceID(tid.String())
	if !ok || t2 != tid {
		t.Fatalf("ParseTraceID round trip: %v != %v (ok=%v)", t2, tid, ok)
	}
	s2, ok := ParseSpanID(sid.String())
	if !ok || s2 != sid {
		t.Fatalf("ParseSpanID round trip: %v != %v (ok=%v)", s2, sid, ok)
	}
	if _, ok := ParseTraceID("zz"); ok {
		t.Fatal("parsed malformed trace id")
	}
	if _, ok := ParseTraceID(strings.Repeat("0", 32)); ok {
		t.Fatal("parsed all-zero trace id")
	}
	if _, ok := ParseSpanID("0123"); ok {
		t.Fatal("parsed short span id")
	}
	// Uniqueness across a burst.
	seen := make(map[TraceID]bool)
	for i := 0; i < 1000; i++ {
		id, _ := NewIDs()
		if seen[id] {
			t.Fatal("duplicate trace id in 1000 draws")
		}
		seen[id] = true
	}
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan("x")
	if sp != nil {
		t.Fatal("nil tracer produced a span")
	}
	// Every span method must be callable on nil.
	sp.Attr("k", "v")
	sp.Event("e", "k", "v")
	sp.SetError(errors.New("boom"))
	sp.Errorf("x %d", 1)
	sp.Adopt(TraceID{1}, SpanID{2}, true)
	sp.RecordChild("c", time.Now(), time.Millisecond)
	sp.Finish()
	sp.FinishErr(nil)
	if c := sp.Child("y"); c != nil {
		t.Fatal("nil span produced a child")
	}
	if !sp.TraceID().IsZero() || !sp.SpanID().IsZero() || sp.Sampled() {
		t.Fatal("nil span leaked identity")
	}
	if sp.Traceparent() != "" {
		t.Fatal("nil span produced traceparent")
	}
	if tr.Spans() != nil || tr.Dropped() != 0 || tr.Process() != "" {
		t.Fatal("nil tracer leaked state")
	}
	if rem := tr.StartRemote("x", TraceID{1}, SpanID{}, true); rem != nil {
		t.Fatal("nil tracer StartRemote produced a span")
	}
}

func TestRootKeepAndChildBuffering(t *testing.T) {
	tr := New(Options{Process: "p", SlowThreshold: time.Hour})
	root := tr.StartSpan("root")
	root.Attr("k", "v")
	child := root.Child("child")
	child.Event("hop", "to", "replica-1")
	child.Finish()
	if got := tr.Spans(); len(got) != 0 {
		t.Fatalf("child committed before root finished: %d spans", len(got))
	}
	root.Finish()
	root.Finish() // idempotent
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("want 2 committed spans, got %d", len(spans))
	}
	if spans[0].Name != "child" || spans[1].Name != "root" {
		t.Fatalf("order: %q %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].SpanID {
		t.Fatal("child not parented to root")
	}
	if spans[0].TraceID != spans[1].TraceID {
		t.Fatal("trace ids diverged")
	}
	if len(spans[0].Events) != 1 || spans[0].Events[0].Attrs[0].Value != "replica-1" {
		t.Fatalf("events lost: %+v", spans[0].Events)
	}
	if spans[1].Process != "p" || spans[1].Attrs[0] != (Attr{"k", "v"}) {
		t.Fatalf("root metadata lost: %+v", spans[1])
	}
}

func TestHeadSamplingDropsAndAlwaysKeep(t *testing.T) {
	tr := New(Options{SampleEvery: 1 << 30, SlowThreshold: time.Hour})
	// Unsampled fast clean traces are dropped entirely.
	for i := 0; i < 5; i++ {
		sp := tr.StartSpan("fast")
		sp.Child("c").Finish()
		sp.Finish()
	}
	if n := len(tr.Spans()); n != 0 {
		t.Fatalf("unsampled traces committed %d spans", n)
	}
	// Errored trace kept despite the head decision.
	sp := tr.StartSpan("bad")
	if sp.Sampled() {
		t.Skip("head sampler kept this trace; cannot assert error path")
	}
	sp.Child("c").Finish()
	sp.FinishErr(errors.New("boom"))
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("errored trace: want 2 spans, got %d", len(spans))
	}
	if spans[1].Error != "boom" {
		t.Fatalf("error lost: %+v", spans[1])
	}
	// Slow trace kept too.
	tr2 := New(Options{SampleEvery: 1 << 30, SlowThreshold: time.Nanosecond})
	slow := tr2.StartSpan("slow")
	time.Sleep(time.Microsecond)
	slow.Finish()
	if len(tr2.Spans()) != 1 {
		t.Fatal("slow trace dropped")
	}
}

func TestLateChildAfterRootFlush(t *testing.T) {
	tr := New(Options{})
	root := tr.StartSpan("root")
	straggler := root.Child("straggler")
	root.Finish()
	if n := len(tr.Spans()); n != 1 {
		t.Fatalf("want root only, got %d", n)
	}
	straggler.Finish() // commits directly: trace already kept
	if n := len(tr.Spans()); n != 2 {
		t.Fatalf("late child not committed: %d", n)
	}
	// And the drop side: unsampled flushed trace discards stragglers.
	tr2 := New(Options{SampleEvery: 1 << 30, SlowThreshold: time.Hour})
	r2 := tr2.StartSpan("root")
	s2 := r2.Child("straggler")
	if r2.Sampled() {
		t.Skip("head sampler kept this trace")
	}
	r2.Finish()
	s2.Finish()
	if n := len(tr2.Spans()); n != 0 {
		t.Fatalf("dropped trace leaked %d spans", n)
	}
}

func TestRingWrapAndPerTraceCap(t *testing.T) {
	tr := New(Options{Capacity: 4})
	for i := 0; i < 10; i++ {
		tr.StartSpan("s").Finish()
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring size %d, want 4", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start.Before(spans[i-1].Start) {
			t.Fatal("ring not oldest-first after wrap")
		}
	}
	tr2 := New(Options{MaxSpansPerTrace: 2})
	root := tr2.StartSpan("root")
	for i := 0; i < 5; i++ {
		root.Child("c").Finish()
	}
	root.Finish()
	if n := len(tr2.Spans()); n != 3 { // 2 buffered children + root
		t.Fatalf("per-trace cap: %d spans", n)
	}
	if tr2.Dropped() != 3 {
		t.Fatalf("dropped count %d, want 3", tr2.Dropped())
	}
}

func TestStartRemoteAndAdopt(t *testing.T) {
	tr := New(Options{SampleEvery: 1 << 30, SlowThreshold: time.Hour})
	tid, psid := NewIDs()
	// Remote sampled decision wins over local head sampling.
	sp := tr.StartRemote("req", tid, psid, true)
	if sp.TraceID() != tid || !sp.Sampled() {
		t.Fatal("remote context not adopted at start")
	}
	sp.Finish()
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Parent != psid {
		t.Fatalf("remote parent lost: %+v", spans)
	}
	// Zero trace id falls back to a fresh local root.
	sp2 := tr.StartRemote("req", TraceID{}, SpanID{}, false)
	if sp2.TraceID().IsZero() {
		t.Fatal("zero-id fallback minted no trace")
	}

	// Adopt: a root that learns its true trace mid-flight (dist worker).
	tr3 := New(Options{SampleEvery: 1 << 30, SlowThreshold: time.Hour})
	w := tr3.StartSpan("upload")
	pre := w.Child("pre")
	pre.Finish()
	coordTID, coordSID := NewIDs()
	w.Adopt(coordTID, coordSID, true)
	w.Finish()
	spans = tr3.Spans()
	if len(spans) != 2 {
		t.Fatalf("adopted trace dropped: %d spans", len(spans))
	}
	for _, sd := range spans {
		if sd.TraceID != coordTID {
			t.Fatalf("span %q kept old trace id", sd.Name)
		}
	}
	if spans[1].Parent != coordSID {
		t.Fatal("adopted parent not set")
	}
}

func TestRecordChild(t *testing.T) {
	tr := New(Options{})
	root := tr.StartSpan("sweep")
	start := time.Now().Add(-3 * time.Millisecond)
	root.RecordChild("FW", start, 2*time.Millisecond, "replica", "0")
	root.Finish()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("want 2 spans, got %d", len(spans))
	}
	fw := spans[0]
	if fw.Name != "FW" || fw.Parent != spans[1].SpanID || fw.Duration != 2*time.Millisecond {
		t.Fatalf("recorded child wrong: %+v", fw)
	}
	if len(fw.Attrs) != 1 || fw.Attrs[0] != (Attr{"replica", "0"}) {
		t.Fatalf("attrs: %+v", fw.Attrs)
	}
}

// TestLinkResolvesSharedSpan: a span linking to a span of another trace
// sees that span, and its descendants, in its own trace — parented
// under the linking span and tagged with the trace it came from — while
// the owning trace is unchanged.
func TestLinkResolvesSharedSpan(t *testing.T) {
	tr := New(Options{})
	owner := tr.StartSpan("serve.request")
	rider := tr.StartSpan("serve.request")
	sweep := owner.Child("serve.sweep")
	sweep.RecordChild("FW", time.Now(), time.Millisecond)
	rider.Link("sweep", sweep)
	rider.Link("none", nil)
	sweep.Finish()
	owner.Finish()
	rider.Finish()

	if got := len(tr.Trace(owner.TraceID())); got != 3 {
		t.Fatalf("owner trace: %d spans, want 3", got)
	}
	spans := tr.Trace(rider.TraceID())
	if len(spans) != 3 {
		t.Fatalf("rider trace: %d spans, want 3 (request, linked sweep, FW)", len(spans))
	}
	var linked, fw *SpanData
	for i := range spans {
		if spans[i].TraceID != rider.TraceID() {
			t.Fatalf("span %s kept trace %s", spans[i].Name, spans[i].TraceID)
		}
		switch spans[i].Name {
		case "serve.sweep":
			linked = &spans[i]
		case "FW":
			fw = &spans[i]
		}
	}
	if linked == nil || fw == nil {
		t.Fatalf("rider trace misses the linked sweep or its FW child: %+v", spans)
	}
	if linked.Parent != rider.SpanID() || fw.Parent != sweep.SpanID() {
		t.Fatalf("linked parents: sweep under %s (want %s), FW under %s (want %s)",
			linked.Parent, rider.SpanID(), fw.Parent, sweep.SpanID())
	}
	if n := len(linked.Attrs); n == 0 || linked.Attrs[n-1] != (Attr{"linked_trace", owner.TraceID().String()}) {
		t.Fatalf("linked sweep attrs: %+v", linked.Attrs)
	}
	for _, sd := range tr.Trace(owner.TraceID()) {
		if sd.Name == "serve.sweep" && (sd.Parent != owner.SpanID() || len(sd.Attrs) != 0) {
			t.Fatalf("owner's sweep altered by the rider's lookup: %+v", sd)
		}
	}
}

func TestSummaries(t *testing.T) {
	tr := New(Options{Process: "router"})
	a := tr.StartSpan("a")
	a.Child("a1").Finish()
	a.FinishErr(errors.New("bad"))
	time.Sleep(time.Millisecond)
	b := tr.StartSpan("b")
	b.Finish()
	sums := tr.Summaries(0)
	if len(sums) != 2 {
		t.Fatalf("want 2 traces, got %d", len(sums))
	}
	if sums[0].Root != "b" || sums[1].Root != "a" {
		t.Fatalf("not newest-first: %q %q", sums[0].Root, sums[1].Root)
	}
	if sums[1].Spans != 2 || sums[1].Error != "bad" || sums[1].Process != "router" {
		t.Fatalf("summary: %+v", sums[1])
	}
	if got := tr.Summaries(1); len(got) != 1 || got[0].Root != "b" {
		t.Fatalf("limit: %+v", got)
	}
}

func TestDefaultEnable(t *testing.T) {
	if Default() != nil {
		t.Fatal("default tracer non-nil at start")
	}
	tr := Enable(Options{Process: "test"})
	defer SetDefault(nil)
	if Default() != tr {
		t.Fatal("Enable did not install default")
	}
	SetDefault(nil)
	if Default() != nil {
		t.Fatal("SetDefault(nil) did not disable")
	}
}

func TestConcurrentSpanMutation(t *testing.T) {
	tr := New(Options{})
	root := tr.StartSpan("root")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := root.Child("c")
			c.Event("e", "k", "v")
			root.Event("annotated-from-worker")
			c.Finish()
		}()
	}
	wg.Wait()
	root.Finish()
	if n := len(tr.Spans()); n != 9 {
		t.Fatalf("want 9 spans, got %d", n)
	}
}
