package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"etalstm/internal/model"
	"etalstm/internal/rng"
	"etalstm/internal/tensor"
)

func testNet(t testing.TB) *model.Network {
	t.Helper()
	cfg := model.Config{
		InputSize: 4, Hidden: 8, Layers: 2, SeqLen: 8, Batch: 1,
		OutSize: 3, Loss: model.SingleLoss,
	}
	net, err := model.NewNetwork(cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func testSeq(r *rng.RNG, steps, width int) model.InferSeq {
	xs := make([][]float32, steps)
	for t := range xs {
		xs[t] = make([]float32, width)
		for j := range xs[t] {
			xs[t][j] = r.Uniform(-1, 1)
		}
	}
	return model.InferSeq{Inputs: xs}
}

// TestBatcherConcurrentSubmit drives many goroutines through one
// batcher and checks every submission completes with a plausible
// result and that batches actually coalesce.
func TestBatcherConcurrentSubmit(t *testing.T) {
	net := testNet(t)
	opts := Options{MaxBatch: 8, Window: time.Millisecond, Workers: 2}.withDefaults()
	m := newMetrics(opts.MaxBatch)
	b := newBatcher(net, opts, m)
	defer b.drain(context.Background())

	const n = 64
	r := rng.New(3)
	seqs := make([]model.InferSeq, n)
	for i := range seqs {
		seqs[i] = testSeq(r.Split(), 1+i%5, net.Cfg.InputSize)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	outs := make([]model.InferOut, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = b.submit(context.Background(), seqs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if len(outs[i].Output) != net.Cfg.OutSize {
			t.Fatalf("submit %d: output width %d, want %d", i, len(outs[i].Output), net.Cfg.OutSize)
		}
	}
	if got := m.completed.Value(); got != n {
		t.Fatalf("completed %d, want %d", got, n)
	}
	bs := m.batchSize.Snapshot()
	batches, items := bs.Count, int64(bs.Sum)
	if items != n {
		t.Fatalf("batched items %d, want %d", items, n)
	}
	if batches >= n {
		t.Fatalf("no coalescing: %d batches for %d requests", batches, n)
	}
}

// TestBatcherMatchesSingleShot checks a batched submission is bitwise
// identical to the direct single-request sweep.
func TestBatcherMatchesSingleShot(t *testing.T) {
	net := testNet(t)
	opts := Options{MaxBatch: 4, Window: time.Millisecond}.withDefaults()
	b := newBatcher(net, opts, newMetrics(opts.MaxBatch))
	defer b.drain(context.Background())

	seq := testSeq(rng.New(5), 6, net.Cfg.InputSize)
	want, err := net.InferBatch(nil, []model.InferSeq{seq})
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.submit(context.Background(), seq)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want[0].Output {
		if got.Output[j] != want[0].Output[j] {
			t.Fatalf("output[%d]: batched %v != direct %v", j, got.Output[j], want[0].Output[j])
		}
	}
}

// TestBatcherQueueFull verifies load shedding: with no workers draining
// the queue, submissions beyond QueueCap are rejected immediately.
func TestBatcherQueueFull(t *testing.T) {
	net := testNet(t)
	opts := Options{MaxBatch: 4, QueueCap: 2, Window: time.Hour}.withDefaults()
	m := newMetrics(opts.MaxBatch)
	// Build the batcher by hand with no collector/workers so nothing
	// drains the admission queue.
	b := &batcher{
		net: net, opts: opts, m: m,
		in:   make(chan *pending, opts.QueueCap),
		work: make(chan []*pending),
	}
	seq := testSeq(rng.New(7), 2, net.Cfg.InputSize)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < opts.QueueCap; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.submit(ctx, seq) // parks until cancel
		}()
	}
	// Wait for both to be admitted (queue at capacity).
	deadline := time.Now().Add(2 * time.Second)
	for len(b.in) < opts.QueueCap {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := b.submit(ctx, seq); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err=%v, want ErrQueueFull", err)
	}
	if m.rejected.Value() != 1 {
		t.Fatalf("rejected=%d, want 1", m.rejected.Value())
	}
	cancel()
	wg.Wait()
}

// TestBatcherCancelMidQueue checks a request canceled while queued is
// skipped by the worker: the submitter gets ctx.Err() and the canceled
// request never joins a sweep.
func TestBatcherCancelMidQueue(t *testing.T) {
	net := testNet(t)
	// A huge window so the batch sits in the collector until we cancel.
	opts := Options{MaxBatch: 64, Window: 50 * time.Millisecond, Workers: 1}.withDefaults()
	m := newMetrics(opts.MaxBatch)
	b := newBatcher(net, opts, m)
	defer b.drain(context.Background())

	seq := testSeq(rng.New(9), 3, net.Cfg.InputSize)
	ctx, cancel := context.WithCancel(context.Background())
	cancelErr := make(chan error, 1)
	go func() {
		_, err := b.submit(ctx, seq)
		cancelErr <- err
	}()
	// Give the submission time to be admitted, then cancel before the
	// window can flush it.
	time.Sleep(5 * time.Millisecond)
	cancel()
	if err := <-cancelErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled submit: err=%v, want context.Canceled", err)
	}
	// A live follow-up still completes, and the canceled request must
	// not have joined its sweep.
	if _, err := b.submit(context.Background(), seq); err != nil {
		t.Fatalf("follow-up submit: %v", err)
	}
	if got := m.canceled.Value(); got != 1 {
		t.Fatalf("canceled=%d, want 1", got)
	}
	if items := int64(m.batchSize.Snapshot().Sum); items != 1 {
		t.Fatalf("swept items=%d, want 1 (canceled request must not be swept)", items)
	}
}

// TestDrainNoDrops is the graceful-shutdown acceptance test: every
// request admitted before drain completes with a result; submissions
// after drain get ErrClosed; zero requests are dropped.
func TestDrainNoDrops(t *testing.T) {
	net := testNet(t)
	opts := Options{MaxBatch: 8, Window: 2 * time.Millisecond, Workers: 2, QueueCap: 1024}.withDefaults()
	m := newMetrics(opts.MaxBatch)
	b := newBatcher(net, opts, m)

	const n = 128
	r := rng.New(21)
	var wg sync.WaitGroup
	var mu sync.Mutex
	admitted, completed := 0, 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(seq model.InferSeq) {
			defer wg.Done()
			_, err := b.submit(context.Background(), seq)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				admitted++
				completed++
			case errors.Is(err, ErrClosed) || errors.Is(err, ErrQueueFull):
				// Never admitted — not a drop.
			default:
				t.Errorf("submit: unexpected error %v", err)
			}
		}(testSeq(r.Split(), 1+i%4, net.Cfg.InputSize))
	}
	// Start draining while submissions are still arriving.
	time.Sleep(time.Millisecond)
	if err := b.drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	if completed != admitted {
		t.Fatalf("dropped %d admitted requests during drain", admitted-completed)
	}
	if completed == 0 {
		t.Fatal("no requests completed before drain — test raced to nothing")
	}
	if _, err := b.submit(context.Background(), testSeq(r, 2, net.Cfg.InputSize)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-drain submit: err=%v, want ErrClosed", err)
	}
	// Idempotent.
	if err := b.drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestBatcherPanicIsolation simulates a poisoned model mid-flight:
// request validation passes, but the sweep panics in a kernel (here a
// projection whose shape was corrupted). The panic must fail the group
// with an error — not kill the process — and after the corruption is
// repaired the same worker (arena reset) keeps serving.
func TestBatcherPanicIsolation(t *testing.T) {
	net := testNet(t)
	opts := Options{MaxBatch: 4, Window: time.Millisecond, Workers: 1}.withDefaults()
	m := newMetrics(opts.MaxBatch)
	b := newBatcher(net, opts, m)
	defer b.drain(context.Background())

	goodProj := net.Proj
	net.Proj = tensor.New(net.Cfg.Hidden+1, net.Cfg.OutSize) // inner-dim mismatch → MatMul panics
	_, err := b.submit(context.Background(), testSeq(rng.New(31), 2, net.Cfg.InputSize))
	if err == nil {
		t.Fatal("poisoned sweep: want error, got nil")
	}
	if !strings.Contains(err.Error(), "inference panic") {
		t.Fatalf("poisoned sweep: err=%v, want inference-panic error", err)
	}
	// The batcher survived: after repairing the model, a healthy request
	// completes on the same (reset) worker arena.
	net.Proj = goodProj
	out, err := b.submit(context.Background(), testSeq(rng.New(32), 3, net.Cfg.InputSize))
	if err != nil {
		t.Fatalf("post-panic submit: %v", err)
	}
	if len(out.Output) != net.Cfg.OutSize {
		t.Fatalf("post-panic output width %d, want %d", len(out.Output), net.Cfg.OutSize)
	}
	if m.failed.Value() == 0 {
		t.Fatal("failed counter not incremented for poisoned request")
	}
}

// TestBatcherWindowFlush checks a lone request is not stuck waiting for
// MaxBatch company: the window timer flushes it.
func TestBatcherWindowFlush(t *testing.T) {
	net := testNet(t)
	opts := Options{MaxBatch: 1024, Window: time.Millisecond, QueueCap: 1024}.withDefaults()
	b := newBatcher(net, opts, newMetrics(opts.MaxBatch))
	defer b.drain(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := b.submit(ctx, testSeq(rng.New(41), 2, net.Cfg.InputSize)); err != nil {
		t.Fatalf("lone submit never flushed: %v", err)
	}
}

// collectorOnly starts a batcher's collector with no workers, so the
// test reads b.work itself. The returned stop closes the admission
// queue and discards whatever the collector still offers.
func collectorOnly(t *testing.T, opts Options) (b *batcher, push func(), stop func()) {
	t.Helper()
	opts = opts.withDefaults()
	b = &batcher{
		net: testNet(t), opts: opts, m: newMetrics(opts.MaxBatch),
		in:   make(chan *pending, opts.QueueCap),
		work: make(chan []*pending),
	}
	b.wg.Add(1)
	go b.collect()
	push = func() {
		b.in <- &pending{ctx: context.Background(), done: make(chan outcome, 1), enq: time.Now()}
	}
	stop = func() {
		close(b.in)
		for range b.work {
		}
		b.wg.Wait()
	}
	return b, push, stop
}

// offered receives the next group the collector offers, failing the
// test if none comes within a second.
func offered(t *testing.T, b *batcher) []*pending {
	t.Helper()
	select {
	case g := <-b.work:
		return g
	case <-time.After(time.Second):
		t.Fatal("collector offered no group within 1s")
		return nil
	}
}

// TestBatcherWorkConserving pins the collector's dispatch rules.
func TestBatcherWorkConserving(t *testing.T) {
	t.Run("lone request offered at once", func(t *testing.T) {
		b, push, stop := collectorOnly(t, Options{MaxBatch: 8})
		defer stop()
		if b.opts.Window != 0 {
			t.Fatalf("default Window %v, want 0", b.opts.Window)
		}
		// Best of five hand-offs: scheduler noise only ever adds time,
		// and a collector that waited out any window would never get
		// under a millisecond.
		best := time.Hour
		for i := 0; i < 5; i++ {
			start := time.Now()
			push()
			g := offered(t, b)
			if len(g) != 1 {
				t.Fatalf("lone request offered in a group of %d", len(g))
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		if best >= time.Millisecond {
			t.Fatalf("lone request took %v to be offered, want < 1ms", best)
		}
	})

	t.Run("arrivals join the offered group up to MaxBatch", func(t *testing.T) {
		const maxBatch, extra = 4, 2
		b, push, stop := collectorOnly(t, Options{MaxBatch: maxBatch})
		defer stop()
		// The first request is offered to nobody; everything that
		// arrives meanwhile must ride along with it.
		push()
		time.Sleep(5 * time.Millisecond)
		for i := 1; i < maxBatch+extra; i++ {
			push()
		}
		deadline := time.Now().Add(time.Second)
		for len(b.in) > extra && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		if g := offered(t, b); len(g) != maxBatch {
			t.Fatalf("first group has %d requests, want MaxBatch %d", len(g), maxBatch)
		}
		got := 0
		for got < extra {
			got += len(offered(t, b))
		}
		if got != extra {
			t.Fatalf("remaining groups carry %d requests, want %d", got, extra)
		}
	})

	t.Run("explicit window waits for company", func(t *testing.T) {
		const window = 50 * time.Millisecond
		b, push, stop := collectorOnly(t, Options{MaxBatch: 8, Window: window})
		defer stop()
		start := time.Now()
		push()
		time.Sleep(5 * time.Millisecond)
		push()
		g := offered(t, b)
		if len(g) != 2 {
			t.Fatalf("two requests 5ms apart formed a group of %d, want 2", len(g))
		}
		if d := time.Since(start); d < window {
			t.Fatalf("group offered after %v, before the %v window closed", d, window)
		}
	})
}

// wavefrontNet is a three-layer network whose sweeps of eight steps
// cross the kernels' fan-out threshold, so at more than one kernel
// worker InferBatch runs them as a layer wavefront: layers 0 and 1 on
// helper goroutines, the top layer on the worker itself.
func wavefrontNet(t testing.TB) *model.Network {
	t.Helper()
	cfg := model.Config{
		InputSize: 8, Hidden: 32, Layers: 3, SeqLen: 8, Batch: 1,
		OutSize: 3, Loss: model.SingleLoss,
	}
	net, err := model.NewNetwork(cfg, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// ownGoroutines counts the goroutines that etalstm code started. The
// testing framework's runner goroutines are left out: the previous
// test's runner may still be exiting when this test takes its baseline.
func ownGoroutines() int {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("\ncreated by etalstm/"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// settledGoroutines waits (bounded) for ownGoroutines to drop to want
// — an exiting goroutine is counted until it is gone — and returns the
// last count seen.
func settledGoroutines(want int) int {
	n := ownGoroutines()
	for deadline := time.Now().Add(5 * time.Second); n > want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = ownGoroutines()
	}
	return n
}

// TestHTTPPoisonedHelperLayer poisons a layer above 0 of a wavefront
// sweep, so the panic fires on a helper goroutine rather than on the
// worker: the group still fails with a 500, every stage arena is reset,
// no sweep goroutine outlives its sweep, and after the repair the same
// worker keeps serving.
func TestHTTPPoisonedHelperLayer(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(2))
	net := wavefrontNet(t)
	// An earlier server's goroutines may still be exiting after its
	// Close; let them go before the baseline counts this server's own.
	settledGoroutines(0)
	s := New(net, "", Options{MaxBatch: 4, Workers: 1})
	defer s.Close(context.Background())
	ws := s.gen.Load().b.arenas[0]
	h := s.Handler()
	r := rng.New(5)
	infer := func() (int, string) {
		buf, err := json.Marshal(inferRequest{Inputs: seqJSON(r, 8, net.Cfg.InputSize)})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(buf)))
		return rec.Code, rec.Body.String()
	}
	baseline := ownGoroutines()

	for i := 0; i < 3; i++ {
		if code, body := infer(); code != http.StatusOK {
			t.Fatalf("healthy infer %d: HTTP %d %s", i, code, body)
		}
	}
	for l := 0; l < net.Cfg.Layers; l++ {
		if st := ws.Stage(l).Stats(); st.Gets == 0 {
			t.Fatalf("stage arena %d unused: the sweep did not run as a wavefront", l)
		}
	}
	if n := settledGoroutines(baseline); n != baseline {
		t.Fatalf("%d goroutines after healthy sweeps, want the baseline %d", n, baseline)
	}

	good := net.Layer[1].U[0]
	net.Layer[1].U[0] = tensor.New(net.Cfg.Hidden+1, net.Cfg.Hidden) // inner-dim mismatch → MatMul panics in layer 1
	code, body := infer()
	if code != http.StatusInternalServerError || !strings.Contains(body, "panic") {
		t.Fatalf("poisoned layer 1: HTTP %d %s, want a 500 naming the panic", code, body)
	}
	for l := 0; l < net.Cfg.Layers; l++ {
		if b, e := ws.Stage(l).Retained(); b != 0 || e != 0 {
			t.Fatalf("stage arena %d retains %d buffers after the poisoned sweep, want a reset", l, b)
		}
	}
	if b, _ := ws.Retained(); b != 0 {
		t.Fatalf("worker arena retains %d buffers after the poisoned sweep, want a reset", b)
	}
	if n := settledGoroutines(baseline); n != baseline {
		t.Fatalf("%d goroutines after the poisoned sweep, want the baseline %d", n, baseline)
	}

	net.Layer[1].U[0] = good
	if code, body := infer(); code != http.StatusOK {
		t.Fatalf("after repair: HTTP %d %s", code, body)
	}
	if st := s.Stats(); st.Failed != 1 || st.Completed != 4 {
		t.Fatalf("stats: %d failed, %d completed; want 1 and 4", st.Failed, st.Completed)
	}
}
