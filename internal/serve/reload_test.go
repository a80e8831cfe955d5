package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etalstm/internal/model"
	"etalstm/internal/persist"
	"etalstm/internal/rng"
)

// newTestHTTP serves an already-built Server (testServer always calls
// New; standby tests need to construct their own).
func newTestHTTP(t *testing.T, s *Server) string {
	t.Helper()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close(context.Background())
	})
	return hs.URL
}

// altNet builds a serving-compatible network with different weights
// (and, deliberately, a different training shape — SeqLen/Batch must
// not block a swap).
func altNet(t testing.TB, seed uint64) *model.Network {
	t.Helper()
	cfg := model.Config{
		InputSize: 4, Hidden: 8, Layers: 2, SeqLen: 16, Batch: 2,
		OutSize: 3, Loss: model.SingleLoss,
	}
	net, err := model.NewNetwork(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestNewDigest pins New's digest argument: a given digest is what
// Generation reports (New trusts the loader that verified it and does
// not re-hash), and "" makes New compute persist.Digest itself.
func TestNewDigest(t *testing.T) {
	net := testNet(t)
	want, err := persist.Digest(net)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ given, want string }{
		{"", want},
		{"given-digest", "given-digest"},
	} {
		s := New(net, c.given, Options{})
		seq, got := s.Generation()
		s.Close(context.Background())
		if seq != 1 || got != c.want {
			t.Errorf("New(net, %q): Generation() = %d, %q; want 1, %q", c.given, seq, got, c.want)
		}
	}
}

// TestNewDoesNotHash: building a server and answering a request never
// hashes the weights. The first read of the digest hashes them once,
// and every reader — Generation, /statz, the digest info series on
// /metrics — reports that one value.
func TestNewDoesNotHash(t *testing.T) {
	var calls atomic.Int64
	defer func(prev func(*model.Network) (string, error)) { digestNetwork = prev }(digestNetwork)
	digestNetwork = func(net *model.Network) (string, error) {
		calls.Add(1)
		return persist.Digest(net)
	}
	net := testNet(t)
	want, err := persist.Digest(net)
	if err != nil {
		t.Fatal(err)
	}
	s := New(net, "", Options{})
	defer s.Close(context.Background())
	if _, err := s.Infer(context.Background(), Request{Inputs: seqJSON(rng.New(1), 3, net.Cfg.InputSize)}); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("New and one request hashed the weights %d times, want 0", n)
	}
	if _, got := s.Generation(); got != want {
		t.Fatalf("Generation digest %q, want %q", got, want)
	}
	if got := s.Stats().CheckpointDigest; got != want {
		t.Fatalf("/statz digest %q, want %q", got, want)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if series := `etalstm_checkpoint_digest{digest="` + want + `"} 1`; !strings.Contains(rec.Body.String(), series) {
		t.Fatalf("/metrics lacks %s", series)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("four digest reads hashed the weights %d times, want 1", n)
	}
}

// TestReloadZeroDrop is the hot-swap acceptance test: concurrent
// inference traffic across several checkpoint swaps completes with
// zero dropped (errored) requests, and the generation/digest advance.
func TestReloadZeroDrop(t *testing.T) {
	s := New(testNet(t), "", Options{MaxBatch: 4, Window: time.Millisecond})
	defer s.Close(context.Background())
	_, d0 := s.Generation()

	var errs atomic.Int64
	var done atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for !done.Load() {
				req := Request{Inputs: seqJSON(r, 3, 4)}
				if seed%2 == 0 {
					req.Session = "swap-sess"
				}
				if _, err := s.Infer(context.Background(), req); err != nil {
					t.Errorf("infer during swap: %v", err)
					errs.Add(1)
				}
			}
		}(uint64(c + 1))
	}

	for i := 0; i < 3; i++ {
		time.Sleep(5 * time.Millisecond)
		if err := s.Reload(altNet(t, uint64(100+i)), ""); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
	}
	time.Sleep(5 * time.Millisecond)
	done.Store(true)
	wg.Wait()

	if n := errs.Load(); n != 0 {
		t.Fatalf("%d requests dropped across 3 hot-swaps, want 0", n)
	}
	gen, d3 := s.Generation()
	if gen != 4 {
		t.Fatalf("generation = %d after 3 swaps, want 4", gen)
	}
	if d3 == d0 || len(d3) != 64 {
		t.Fatalf("digest did not change across swap: %q -> %q", d0, d3)
	}
	if st := s.Stats(); st.Failed != 0 || st.SwapGeneration != 4 {
		t.Fatalf("stats after swaps: %+v", st)
	}
}

// TestReloadIncompatibleRejected: a checkpoint with a different serving
// geometry must be refused (live sessions would hold mis-shaped state).
func TestReloadIncompatibleRejected(t *testing.T) {
	s := New(testNet(t), "", Options{MaxBatch: 4, Window: time.Millisecond})
	defer s.Close(context.Background())

	cfg := model.Config{InputSize: 4, Hidden: 16, Layers: 2, SeqLen: 8, Batch: 1,
		OutSize: 3, Loss: model.SingleLoss}
	wrong, err := model.NewNetwork(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	err = s.Reload(wrong, "")
	if err == nil || !strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("incompatible reload error = %v", err)
	}
	if gen, _ := s.Generation(); gen != 1 {
		t.Fatalf("generation moved to %d on a rejected reload", gen)
	}
}

// TestStandbyReadyz: a standby server is live but not ready until its
// first checkpoint load — the /readyz half of the liveness split.
func TestStandbyReadyz(t *testing.T) {
	s := NewStandby(Options{MaxBatch: 4, Window: time.Millisecond})
	hs := newTestHTTP(t, s)

	get := func(path string) int {
		resp, err := http.Get(hs + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("standby healthz: HTTP %d, want 200", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("standby readyz: HTTP %d, want 503", got)
	}
	if got := get("/v1/model"); got != http.StatusServiceUnavailable {
		t.Fatalf("standby model: HTTP %d, want 503", got)
	}
	if _, err := s.Infer(context.Background(), Request{Inputs: seqJSON(rng.New(1), 2, 4)}); err != ErrNotReady {
		t.Fatalf("standby infer error = %v, want ErrNotReady", err)
	}

	if err := s.Reload(testNet(t), ""); err != nil {
		t.Fatalf("first reload: %v", err)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz after first load: HTTP %d, want 200", got)
	}
	if gen, digest := s.Generation(); gen != 1 || len(digest) != 64 {
		t.Fatalf("generation after first load: %d %q", gen, digest)
	}
	if _, err := s.Infer(context.Background(), Request{Inputs: seqJSON(rng.New(1), 2, 4)}); err != nil {
		t.Fatalf("infer after first load: %v", err)
	}
}

// TestAdminReloadEndpoint drives the swap the way the fleet router
// does: save a checkpoint file, POST its path to /v1/admin/reload, and
// verify the served digest flips to the file's digest.
func TestAdminReloadEndpoint(t *testing.T) {
	s, hs := testServer(t, Options{MaxBatch: 4, Window: time.Millisecond, EnableAdmin: true})

	path := filepath.Join(t.TempDir(), "next.ckpt")
	next := altNet(t, 42)
	if err := persist.SaveFile(path, next); err != nil {
		t.Fatal(err)
	}
	want, err := persist.DigestFile(path)
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, hs.URL+"/v1/admin/reload", reloadRequest{Path: path})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin reload: HTTP %d (%v)", resp.StatusCode, body)
	}
	if body["digest"] != want || body["generation"].(float64) != 2 {
		t.Fatalf("admin reload answered %v, want digest %s gen 2", body, want)
	}
	if st := s.Stats(); st.CheckpointDigest != want || st.SwapGeneration != 2 {
		t.Fatalf("statz after admin reload: gen=%d digest=%q", st.SwapGeneration, st.CheckpointDigest)
	}

	// Bad path → 400, generation unchanged.
	resp, _ = postJSON(t, hs.URL+"/v1/admin/reload", reloadRequest{Path: path + ".missing"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("admin reload with missing file: HTTP %d, want 400", resp.StatusCode)
	}
	if gen, _ := s.Generation(); gen != 2 {
		t.Fatalf("generation moved to %d on failed reload", gen)
	}
}

// TestAdminReloadGate: the admin surface must not exist unless opted
// into, like pprof.
func TestAdminReloadGate(t *testing.T) {
	_, hs := testServer(t, Options{MaxBatch: 4, Window: time.Millisecond})
	resp, err := http.Post(hs.URL+"/v1/admin/reload", "application/json", strings.NewReader(`{"path":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("admin reload without EnableAdmin: HTTP %d, want 404", resp.StatusCode)
	}
}
