package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etalstm/internal/model"
	"etalstm/internal/persist"
	"etalstm/internal/rng"
	"etalstm/internal/serve"
)

func realNet(t testing.TB, seed uint64) *model.Network {
	t.Helper()
	cfg := model.Config{InputSize: 4, Hidden: 8, Layers: 2, SeqLen: 8, Batch: 1, OutSize: 3, Loss: model.SingleLoss}
	net, err := model.NewNetwork(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// realReplica runs an actual serve.Server behind httptest.
func realReplica(t testing.TB, net *model.Network, opts serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	if opts.Window == 0 {
		opts.Window = time.Millisecond
	}
	s := serve.New(net, "", opts)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s, hs
}

// gate fronts a replica with a proxy whose /readyz can be forced to
// fail — a replica that is alive (data plane works, sessions are
// exportable) but failing health checks, the realistic eject-and-drain
// scenario.
func gate(t testing.TB, backend *httptest.Server) (*httptest.Server, *atomic.Bool) {
	t.Helper()
	u, err := url.Parse(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(u)
	var fail atomic.Bool
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" && fail.Load() {
			http.Error(w, "gate closed", http.StatusServiceUnavailable)
			return
		}
		proxy.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	return hs, &fail
}

// TestFleetDrainMigratesSessions is the ejection drain end to end with
// real replicas: a session's state moves to its ring successor when
// its replica is ejected, the moved session keeps answering through
// the router, and the old replica answers 410 Gone.
func TestFleetDrainMigratesSessions(t *testing.T) {
	net := realNet(t, 31)
	_, hsA := realReplica(t, net, serve.Options{MaxBatch: 4})
	_, hsB := realReplica(t, net, serve.Options{MaxBatch: 4})
	gateA, failA := gate(t, hsA)

	rt, err := New(Options{
		Replicas:      []string{gateA.URL, hsB.URL},
		ProbeInterval: -1,
		EjectAfter:    2,
		Log:           testLog(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()

	// Find a session id the ring assigns to the gated replica.
	var sid string
	for i := 0; i < 4096; i++ {
		id := fmt.Sprintf("drain-%d", i)
		if cands := rt.pick("s:"+id, true); len(cands) > 0 && cands[0].url == gateA.URL {
			sid = id
			break
		}
	}
	if sid == "" {
		t.Fatal("no session id maps to the gated replica")
	}

	infer := func(target, session string) int {
		body := `{"inputs":[[0.1,0.2,0.3,0.4]],"session":"` + session + `"}`
		resp, err := http.Post(target+"/v1/infer", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("infer: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for i := 0; i < 3; i++ {
		if code := infer(hs.URL, sid); code != 200 {
			t.Fatalf("seed request %d: HTTP %d", i, code)
		}
	}

	// Fail health on A; two probe rounds eject and drain it.
	failA.Store(true)
	rt.ProbeOnce(context.Background())
	rt.ProbeOnce(context.Background())

	st := rt.Status()
	if st.RingMembers != 1 {
		t.Fatalf("ring members = %d after ejection, want 1", st.RingMembers)
	}
	if got := rt.sessionsMoved.Value(); got != 1 {
		t.Fatalf("sessions moved = %d, want 1 (lost=%d)", got, rt.sessLost.Value())
	}

	// The session now lives on B…
	resp, err := http.Get(hsB.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var lst struct {
		Sessions []string `json:"sessions"`
	}
	json.NewDecoder(resp.Body).Decode(&lst)
	resp.Body.Close()
	found := false
	for _, id := range lst.Sessions {
		if id == sid {
			found = true
		}
	}
	if !found {
		t.Fatalf("session %q not on successor after drain: %v", sid, lst.Sessions)
	}

	// …keeps answering through the router…
	if code := infer(hs.URL, sid); code != 200 {
		t.Fatalf("post-drain request through router: HTTP %d", code)
	}
	// …and the old replica refuses to resurrect it.
	if code := infer(gateA.URL, sid); code != http.StatusGone {
		t.Fatalf("late request on drained replica: HTTP %d, want 410", code)
	}
}

// TestFleetSwapZeroDrop is the hot-swap acceptance test: roll a new
// checkpoint across two real replicas while concurrent clients hammer
// the router — not one request may drop, and both replicas must end on
// the new generation with the expected content digest.
func TestFleetSwapZeroDrop(t *testing.T) {
	net1 := realNet(t, 41)
	net2 := realNet(t, 42)
	ckpt := filepath.Join(t.TempDir(), "next.ckpt")
	if err := persist.SaveFile(ckpt, net2); err != nil {
		t.Fatal(err)
	}
	wantDigest, err := persist.DigestFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	sA, hsA := realReplica(t, net1, serve.Options{MaxBatch: 4, EnableAdmin: true})
	sB, hsB := realReplica(t, net1, serve.Options{MaxBatch: 4, EnableAdmin: true})
	rt, err := New(Options{
		Replicas:      []string{hsA.URL, hsB.URL},
		ProbeInterval: -1,
		Log:           testLog(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()

	// Concurrent clients: sticky sessions and stateless requests.
	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		dropped atomic.Int64
		served  atomic.Int64
	)
	client := &http.Client{}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				body := fmt.Sprintf(`{"inputs":[[0.1,0.2,0.3,0.%d]]`, i%10)
				if c%2 == 0 {
					body += fmt.Sprintf(`,"session":"swap-%d"`, c)
				}
				body += "}"
				resp, err := client.Post(hs.URL+"/v1/infer", "application/json", strings.NewReader(body))
				if err != nil {
					dropped.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("client %d request %d: HTTP %d during swap", c, i, resp.StatusCode)
					dropped.Add(1)
					continue
				}
				served.Add(1)
			}
		}(c)
	}

	// Let traffic establish, then roll the fleet under load.
	time.Sleep(50 * time.Millisecond)
	rep, err := rt.Swap(context.Background(), ckpt)
	if err != nil {
		t.Fatalf("swap: %v (report %+v)", err, rep)
	}
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if dropped.Load() != 0 {
		t.Fatalf("%d requests dropped during the roll (%d served)", dropped.Load(), served.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no traffic flowed during the swap — the zero-drop claim is vacuous")
	}
	if rep.Digest != wantDigest {
		t.Fatalf("swap digest %.12s, want %.12s", rep.Digest, wantDigest)
	}
	if len(rep.Rolled) != 2 {
		t.Fatalf("rolled %d replicas, want 2", len(rep.Rolled))
	}
	for _, s := range []*serve.Server{sA, sB} {
		gen, digest := s.Generation()
		if gen != 2 || digest != wantDigest {
			t.Fatalf("replica at generation %d digest %.12s, want 2/%.12s", gen, digest, wantDigest)
		}
		if st := s.Stats(); st.Failed != 0 {
			t.Fatalf("replica reports %d failed requests during swap", st.Failed)
		}
	}
	if got := rt.swapGen.Load(); got != 1 {
		t.Fatalf("fleet swap generation = %d, want 1", got)
	}
}

// TestFleetSwapBadPathAborts: a missing checkpoint must abort the roll
// before any replica changes generation.
func TestFleetSwapBadPathAborts(t *testing.T) {
	net1 := realNet(t, 51)
	sA, hsA := realReplica(t, net1, serve.Options{MaxBatch: 4, EnableAdmin: true})
	rt, err := New(Options{Replicas: []string{hsA.URL}, ProbeInterval: -1, Log: testLog(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	if _, err := rt.Swap(context.Background(), filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Fatal("swap with missing checkpoint must fail")
	}
	if gen, _ := sA.Generation(); gen != 1 {
		t.Fatalf("generation moved to %d on failed swap, want 1", gen)
	}
	if got := rt.swapGen.Load(); got != 0 {
		t.Fatalf("fleet swap generation = %d after failed roll, want 0", got)
	}
}
