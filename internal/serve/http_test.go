package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"etalstm/internal/rng"
	"etalstm/internal/tensor"
)

func testServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(testNet(t), "", opts)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close(context.Background())
	})
	return s, hs
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("bad JSON response: %v", err)
	}
	return resp, m
}

func seqJSON(r *rng.RNG, steps, width int) [][]float32 {
	return testSeq(r, steps, width).Inputs
}

func TestHTTPInferAndIntrospection(t *testing.T) {
	s, hs := testServer(t, Options{MaxBatch: 4, Window: time.Millisecond})
	cfg := s.Config()

	resp, body := postJSON(t, hs.URL+"/v1/infer",
		inferRequest{Inputs: seqJSON(rng.New(1), 5, cfg.InputSize)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer: HTTP %d (%v)", resp.StatusCode, body)
	}
	out, ok := body["output"].([]any)
	if !ok || len(out) != cfg.OutSize {
		t.Fatalf("infer: output %v, want %d floats", body["output"], cfg.OutSize)
	}
	if cls := body["class"].(float64); cls < 0 || int(cls) >= cfg.OutSize {
		t.Fatalf("infer: class %v out of range", cls)
	}

	gr, err := http.Get(hs.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	var geo modelResponse
	json.NewDecoder(gr.Body).Decode(&geo)
	gr.Body.Close()
	if geo.InputSize != cfg.InputSize || geo.HiddenSize != cfg.Hidden || geo.OutSize != cfg.OutSize {
		t.Fatalf("model geometry %+v does not match config %+v", geo, cfg)
	}

	hr, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", hr.StatusCode)
	}

	sr, err := http.Get(hs.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	json.NewDecoder(sr.Body).Decode(&st)
	sr.Body.Close()
	if st.Completed < 1 || st.Batches < 1 {
		t.Fatalf("statz after one request: %+v", st)
	}
}

func TestHTTPSessionStatefulness(t *testing.T) {
	s, hs := testServer(t, Options{MaxBatch: 4, Window: time.Millisecond})
	cfg := s.Config()
	r := rng.New(2)
	half1 := seqJSON(r, 3, cfg.InputSize)
	half2 := seqJSON(r, 3, cfg.InputSize)

	// Two session calls, 3 steps each…
	for _, xs := range [][][]float32{half1, half2} {
		resp, body := postJSON(t, hs.URL+"/v1/infer", inferRequest{Inputs: xs, Session: "conv"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("session infer: HTTP %d (%v)", resp.StatusCode, body)
		}
	}
	// …must equal one stateless 6-step call.
	whole := append(append([][]float32{}, half1...), half2...)
	_, wantBody := postJSON(t, hs.URL+"/v1/infer", inferRequest{Inputs: whole})

	// Replay the split through a fresh session to read its final output.
	resp, gotBody := postJSON(t, hs.URL+"/v1/infer", inferRequest{Inputs: half1, Session: "conv2"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("conv2 first half: HTTP %d", resp.StatusCode)
	}
	resp, gotBody = postJSON(t, hs.URL+"/v1/infer", inferRequest{Inputs: half2, Session: "conv2"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("conv2 second half: HTTP %d", resp.StatusCode)
	}
	got := gotBody["output"].([]any)
	want := wantBody["output"].([]any)
	for j := range want {
		if got[j].(float64) != want[j].(float64) {
			t.Fatalf("output[%d]: split-session %v != whole-sequence %v", j, got[j], want[j])
		}
	}
	if n := s.sessions.count(); n != 2 {
		t.Fatalf("sessions=%d, want 2", n)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	s, hs := testServer(t, Options{MaxBatch: 4, Window: time.Millisecond, MaxSeqLen: 8})
	cfg := s.Config()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed JSON", `{"inputs": [[1,`, http.StatusBadRequest},
		{"empty sequence", `{"inputs": []}`, http.StatusBadRequest},
		{"wrong input width", `{"inputs": [[1, 2]]}`, http.StatusBadRequest},
		{"over MaxSeqLen", tooLongBody(cfg.InputSize, 9), http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(hs.URL+"/v1/infer", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: HTTP %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	if resp, err := http.Get(hs.URL + "/v1/infer"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/infer: HTTP %d, want 405", resp.StatusCode)
		}
	}
}

func tooLongBody(width, steps int) string {
	var b strings.Builder
	b.WriteString(`{"inputs": [`)
	for t := 0; t < steps; t++ {
		if t > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('[')
		for j := 0; j < width; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString("0.5")
		}
		b.WriteByte(']')
	}
	b.WriteString(`]}`)
	return b.String()
}

// TestHTTPPoisonedRequestIsolation corrupts the model mid-serve: the
// poisoned sweep returns a 500 to its caller, and after repair the
// server keeps answering 200 — one bad sweep never kills the process.
func TestHTTPPoisonedRequestIsolation(t *testing.T) {
	s, hs := testServer(t, Options{MaxBatch: 4, Window: time.Millisecond, Workers: 1})
	cfg := s.Config()
	r := rng.New(3)

	net := s.gen.Load().net
	goodProj := net.Proj
	net.Proj = tensor.New(cfg.Hidden+1, cfg.OutSize)
	resp, body := postJSON(t, hs.URL+"/v1/infer", inferRequest{Inputs: seqJSON(r, 4, cfg.InputSize)})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned infer: HTTP %d (%v), want 500", resp.StatusCode, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "panic") {
		t.Fatalf("poisoned infer error %q does not mention the panic", msg)
	}

	net.Proj = goodProj
	resp, body = postJSON(t, hs.URL+"/v1/infer", inferRequest{Inputs: seqJSON(r, 4, cfg.InputSize)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-poison infer: HTTP %d (%v), want 200", resp.StatusCode, body)
	}
	st := s.Stats()
	if st.Failed < 1 || st.Completed < 1 {
		t.Fatalf("stats after poisoning: %+v", st)
	}
}

// TestHTTPDrainingHealth checks the liveness/readiness split on drain:
// /readyz flips to 503 (the router's stop-routing signal), /healthz
// stays 200 (the process is alive, just finishing), and new inferences
// are refused while admitted ones finish.
func TestHTTPDrainingHealth(t *testing.T) {
	s, hs := testServer(t, Options{MaxBatch: 4, Window: time.Millisecond})
	cfg := s.Config()

	rr, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: HTTP %d, want 200", rr.StatusCode)
	}

	if err := s.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	hr, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: HTTP %d, want 200 (liveness)", hr.StatusCode)
	}
	rr, err = http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: HTTP %d, want 503", rr.StatusCode)
	}
	resp, _ := postJSON(t, hs.URL+"/v1/infer",
		inferRequest{Inputs: seqJSON(rng.New(4), 2, cfg.InputSize)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("infer while draining: HTTP %d, want 503", resp.StatusCode)
	}
}

// TestServeGracefulShutdown exercises Server.Serve end to end: listen,
// serve traffic, cancel the context, and verify the drain completes
// with all in-flight work answered.
func TestServeGracefulShutdown(t *testing.T) {
	s := New(testNet(t), "", Options{MaxBatch: 8, Window: time.Millisecond})
	ln, err := newLocalListener()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	cfg := s.Config()
	for i := 0; i < 8; i++ {
		resp, body := postJSON(t, url+"/v1/infer",
			inferRequest{Inputs: seqJSON(rng.New(uint64(i)+1), 3, cfg.InputSize)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("infer %d: HTTP %d (%v)", i, resp.StatusCode, body)
		}
	}
	cancel()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not drain")
	}
	st := s.Stats()
	if st.Completed != 8 || st.Failed != 0 {
		t.Fatalf("after drain: %+v, want 8 completed / 0 failed", st)
	}
}

// TestInferSingleShot covers the package-level batched entry point.
func TestInferSingleShot(t *testing.T) {
	net := testNet(t)
	r := rng.New(6)
	seqs := [][][]float32{
		seqJSON(r, 4, net.Cfg.InputSize),
		seqJSON(r, 2, net.Cfg.InputSize),
	}
	res, err := Infer(net, seqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results=%d, want 2", len(res))
	}
	for i, rr := range res {
		if len(rr.Output) != net.Cfg.OutSize {
			t.Fatalf("result %d: width %d, want %d", i, len(rr.Output), net.Cfg.OutSize)
		}
		if rr.Class < 0 || rr.Class >= net.Cfg.OutSize {
			t.Fatalf("result %d: class %d out of range", i, rr.Class)
		}
	}
	if _, err := Infer(net, [][][]float32{{}}); err == nil {
		t.Fatal("empty sequence: want error")
	}
}

func newLocalListener() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}
