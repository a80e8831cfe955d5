package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"etalstm/internal/obs"
	"etalstm/internal/rng"
	"etalstm/internal/rtrace"
	"etalstm/internal/tensor"
)

// postTraced posts one inference request carrying a minted sampled
// traceparent and returns the trace id.
func postTraced(t *testing.T, url string, body inferRequest) (rtrace.TraceID, *http.Response) {
	t.Helper()
	tid, sid := rtrace.NewIDs()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(rtrace.TraceparentHeader, rtrace.FormatTraceparent(tid, sid, true))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return tid, resp
}

// TestServeRequestTrace pins the serving plane's trace chain: an
// inbound traceparent becomes a serve.request span, the batcher's sweep
// runs as its serve.sweep child with the FW phase folded in beneath it,
// the trace resolves at GET /debug/traces/{id}, and the slowest traced
// request surfaces as a latency-histogram exemplar in /statz and the
// Prometheus export.
func TestServeRequestTrace(t *testing.T) {
	tracer := rtrace.New(rtrace.Options{Process: "replica"})
	s, hs := testServer(t, Options{MaxBatch: 4, Window: time.Millisecond, Tracer: tracer})
	cfg := s.Config()

	tid, resp := postTraced(t, hs.URL+"/v1/infer",
		inferRequest{Inputs: seqJSON(rng.New(7), 5, cfg.InputSize), Session: "traced"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced infer: HTTP %d", resp.StatusCode)
	}

	spans := tracer.Trace(tid)
	if len(spans) == 0 {
		t.Fatalf("trace %s not in the flight recorder", tid)
	}
	var request, sweep *rtrace.SpanData
	for i := range spans {
		switch spans[i].Name {
		case "serve.request":
			request = &spans[i]
		case "serve.sweep":
			sweep = &spans[i]
		}
	}
	if request == nil || sweep == nil {
		t.Fatalf("trace %s misses the chain: request=%v sweep=%v", tid, request != nil, sweep != nil)
	}
	if request.Parent.IsZero() {
		t.Fatal("serve.request span lost its remote parent")
	}
	if sweep.Parent != request.SpanID {
		t.Fatalf("serve.sweep parent %s, want request span %s", sweep.Parent, request.SpanID)
	}
	session := ""
	for _, a := range request.Attrs {
		if a.Key == "session" {
			session = a.Value
		}
	}
	if session != "traced" {
		t.Fatalf("request span session attr %q", session)
	}
	fwSeen := false
	for i := range spans {
		if spans[i].Parent == sweep.SpanID && strings.HasPrefix(spans[i].Name, "FW") {
			fwSeen = true
		}
	}
	if !fwSeen {
		t.Fatalf("sweep span has no FW phase child (spans: %v)", names(spans))
	}

	// The trace resolves over HTTP, tree included.
	tr, err := http.Get(hs.URL + "/debug/traces/" + tid.String())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces/{id}: HTTP %d", tr.StatusCode)
	}
	var tres rtrace.TraceResponse
	if err := json.NewDecoder(tr.Body).Decode(&tres); err != nil {
		t.Fatal(err)
	}
	if len(tres.Tree) == 0 || len(tres.Spans) < 3 {
		t.Fatalf("trace response: %d spans, %d roots", len(tres.Spans), len(tres.Tree))
	}

	// The traced request is the slowest (only) traced observation: it
	// must ride /statz and the Prometheus +Inf bucket as an exemplar.
	st := s.Stats()
	if st.SlowTraceID != tid.String() {
		t.Fatalf("statz slow_trace_id = %q, want %s", st.SlowTraceID, tid)
	}
	if st.SlowTraceMs <= 0 {
		t.Fatalf("statz slow_trace_ms = %v", st.SlowTraceMs)
	}
	mr, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if !strings.Contains(string(mb), `trace_id="`+tid.String()+`"`) {
		t.Fatalf("metrics export lacks the trace exemplar for %s", tid)
	}
}

func names(spans []rtrace.SpanData) []string {
	out := make([]string, len(spans))
	for i := range spans {
		out[i] = spans[i].Name
	}
	return out
}

// TestServeTraceEndpointGate: without a tracer the debug endpoints do
// not exist.
func TestServeTraceEndpointGate(t *testing.T) {
	_, hs := testServer(t, Options{MaxBatch: 4, Window: time.Millisecond})
	resp, err := http.Get(hs.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/traces without tracer: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestSweepPanicDumpsFlightRecorder: a poisoned sweep must dump the
// flight recorder to the configured writer so the traces leading up to
// the failure survive in the incident report.
func TestSweepPanicDumpsFlightRecorder(t *testing.T) {
	net := testNet(t)
	var dump bytes.Buffer
	tracer := rtrace.New(rtrace.Options{Process: "replica"})
	opts := Options{MaxBatch: 4, Window: time.Millisecond, Workers: 1,
		Tracer: tracer, TraceDumpWriter: &dump}.withDefaults()
	m := newMetrics(opts.MaxBatch)
	b := newBatcher(net, opts, m)
	defer b.drain(context.Background())

	// One healthy traced request seeds the recorder.
	sp := tracer.StartSpan("warmup")
	ctx := rtrace.ContextWithSpan(context.Background(), sp)
	if _, err := b.submit(ctx, testSeq(rng.New(41), 2, net.Cfg.InputSize)); err != nil {
		t.Fatal(err)
	}
	sp.Finish()

	net.Proj = tensor.New(net.Cfg.Hidden+1, net.Cfg.OutSize) // inner-dim mismatch → MatMul panics
	if _, err := b.submit(context.Background(), testSeq(rng.New(42), 2, net.Cfg.InputSize)); err == nil {
		t.Fatal("poisoned sweep: want error")
	}
	out := dump.String()
	if !strings.Contains(out, "rtrace flight recorder") {
		t.Fatalf("sweep failure did not dump the flight recorder:\n%s", out)
	}
	if !strings.Contains(out, "warmup") {
		t.Fatalf("dump misses the pre-incident trace:\n%s", out)
	}
}

// TestSweepPhaseClosure is TestStepPhaseClosure for serving: at two
// kernel workers a traced sweep runs as a layer wavefront, whose layers
// overlap in time, and its folded phase children must still sum to at
// most the sweep span — one FW phase for the whole layer loop, not one
// per layer.
func TestSweepPhaseClosure(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(2))
	tracer := rtrace.New(rtrace.Options{Process: "replica"})
	net := wavefrontNet(t)
	s := New(net, "", Options{MaxBatch: 4, Workers: 1, Tracer: tracer})
	defer s.Close(context.Background())
	r := rng.New(9)
	for i := 0; i < 8; i++ {
		root := tracer.StartSpan("client")
		ctx := rtrace.ContextWithSpan(context.Background(), root)
		if _, err := s.Infer(ctx, Request{Inputs: seqJSON(r, 8, net.Cfg.InputSize)}); err != nil {
			t.Fatal(err)
		}
		root.Finish()

		var sweep *rtrace.SpanData
		spans := tracer.Trace(root.TraceID())
		for j := range spans {
			if spans[j].Name == "serve.sweep" {
				sweep = &spans[j]
			}
		}
		if sweep == nil {
			t.Fatalf("request %d: no serve.sweep span (spans: %v)", i, names(spans))
		}
		var sum time.Duration
		fw := 0
		for _, sd := range spans {
			if sd.Parent != sweep.SpanID {
				continue
			}
			sum += sd.Duration
			if sd.Name == obs.PhaseFW.String() {
				fw++
			}
		}
		if fw != 1 {
			t.Fatalf("request %d: sweep has %d FW phase children, want 1", i, fw)
		}
		if sum > sweep.Duration {
			t.Errorf("request %d: phase children sum to %v, beyond the sweep's %v", i, sum, sweep.Duration)
		}
	}
	if st := s.gen.Load().b.arenas[0].Stage(0).Stats(); st.Gets == 0 {
		t.Fatal("stage arena 0 unused: the sweeps did not run as a wavefront")
	}
}
