package dist

import (
	"encoding/binary"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"etalstm/internal/model"
	"etalstm/internal/obs"
)

func startTestCoordinator(t *testing.T, cfg model.Config, opts CoordinatorOptions) *Coordinator {
	t.Helper()
	if opts.Metrics == nil {
		opts.Metrics = obs.NewDist(obs.NewRegistry())
	}
	c, err := StartCoordinator("127.0.0.1:0", cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func dialTestWorker(t *testing.T, addr string, cfg model.Config, opts WorkerOptions) *Worker {
	t.Helper()
	if opts.Metrics == nil {
		opts.Metrics = obs.NewDist(obs.NewRegistry())
	}
	w, err := Dial(addr, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// TestTCPDenseLossless: with dense frames and a full quorum, the TCP
// transport must be invisible — every worker receives bitwise the same
// merged set the in-process tree all-reduce would produce from the same
// contributions, with the right contribution count.
func TestTCPDenseLossless(t *testing.T) {
	cfg := testCfg()
	const workers = 4
	const steps = 3
	c := startTestCoordinator(t, cfg, CoordinatorOptions{ExpectWorkers: workers})

	type out struct {
		id     int
		merged []*model.Gradients // cloned per step
		totals []int
	}
	outs := make([]out, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := dialTestWorker(t, c.Addr().String(), cfg, WorkerOptions{})
			o := out{id: w.ID()}
			for s := 0; s < steps; s++ {
				g, err := model.NewGradientsFor(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				// Deterministic per (worker id, step) contribution.
				fillGradients(g, uint64(1000*w.ID()+s+1))
				m, n, err := w.Reduce([]*model.Gradients{g})
				if err != nil {
					t.Errorf("worker %d step %d: %v", w.ID(), s, err)
					return
				}
				o.merged = append(o.merged, m.Clone())
				o.totals = append(o.totals, n)
			}
			w.Close()
			outs[i] = o
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("coordinator: %v", err)
	}

	// Reference: the in-process tree reduce over the same contributions,
	// merged in worker-id order.
	for s := 0; s < steps; s++ {
		sets := make([]*model.Gradients, workers)
		for id := 0; id < workers; id++ {
			g, _ := model.NewGradientsFor(cfg)
			fillGradients(g, uint64(1000*id+s+1))
			sets[id] = g
		}
		want := TreeReduce(sets)
		for _, o := range outs {
			if o.totals[s] != workers {
				t.Fatalf("worker %d step %d: total %d want %d", o.id, s, o.totals[s], workers)
			}
			if !gradientsEqual(o.merged[s], want) {
				t.Fatalf("worker %d step %d: merged set differs from in-process tree reduce", o.id, s)
			}
		}
	}
	if c.Steps() != steps {
		t.Fatalf("coordinator served %d steps, want %d", c.Steps(), steps)
	}
	if c.StaleSteps() != 0 || c.LateFolds() != 0 {
		t.Fatalf("full-quorum run reported staleness: %d stale, %d late", c.StaleSteps(), c.LateFolds())
	}
}

// TestTCPCompressedRoundtrip: compressed uplink+downlink still delivers
// a well-formed merged set to every worker, identically across workers,
// and the wire accounting shows a real reduction.
func TestTCPCompressedRoundtrip(t *testing.T) {
	cfg := testCfg()
	const workers = 2
	const steps = 4
	comp := &CompressOptions{KeepFrac: 0.1}
	c := startTestCoordinator(t, cfg, CoordinatorOptions{ExpectWorkers: workers, Compression: comp})

	merged := make([][]*model.Gradients, workers)
	ws := make([]*Worker, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := dialTestWorker(t, c.Addr().String(), cfg, WorkerOptions{Compression: comp})
			ws[i] = w
			for s := 0; s < steps; s++ {
				g, err := model.NewGradientsFor(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				fillGradients(g, uint64(100*w.ID()+s+1))
				m, _, err := w.Reduce([]*model.Gradients{g})
				if err != nil {
					t.Errorf("worker %d step %d: %v", w.ID(), s, err)
					return
				}
				merged[w.ID()] = append(merged[w.ID()], m.Clone())
			}
			w.Close()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		if !gradientsEqual(merged[0][s], merged[1][s]) {
			t.Fatalf("step %d: workers received different merged sets — weights would fork", s)
		}
	}
	for _, w := range ws {
		if r := w.Ratio(); r < 3 {
			t.Fatalf("compressed worker ratio %.2f, want a real reduction", r)
		}
	}
}

// TestTCPQuorumStaleness: with quorum 2 of 3 and a short deadline, a
// straggling worker's step is admitted without it, counted stale, and
// the straggler's contribution folds into the next step — so by the
// final (all-present) step no gradient mass has been dropped: the sum
// of per-step contribution totals equals the number of contributions
// sent.
func TestTCPQuorumStaleness(t *testing.T) {
	cfg := testCfg()
	const workers = 3
	const steps = 4
	c := startTestCoordinator(t, cfg, CoordinatorOptions{
		ExpectWorkers: workers,
		Quorum:        2,
		Deadline:      30 * time.Millisecond,
	})

	totals := make([][]int, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := dialTestWorker(t, c.Addr().String(), cfg, WorkerOptions{})
			for s := 0; s < steps; s++ {
				if w.ID() == 0 && s == 1 {
					// One mid-run straggle, far beyond the deadline; the
					// run ends with everyone synchronous so the last step
					// can absorb the late fold.
					time.Sleep(300 * time.Millisecond)
				}
				g, err := model.NewGradientsFor(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				fillGradients(g, uint64(10*w.ID()+s+1))
				_, n, err := w.Reduce([]*model.Gradients{g})
				if err != nil {
					t.Errorf("worker %d step %d: %v", w.ID(), s, err)
					return
				}
				totals[w.ID()] = append(totals[w.ID()], n)
			}
			w.Close()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if c.StaleSteps() == 0 {
		t.Fatal("straggler never triggered a stale admission")
	}
	if c.LateFolds() == 0 {
		t.Fatal("straggler's contribution never folded late")
	}
	// Conservation: every contribution sent was merged into some step,
	// except late arrivals for the session's final step, which have no
	// next step and are accounted as tail drops.
	sent := workers * steps
	got := 0
	for _, ts := range totals[0] {
		got += ts
	}
	if got+int(c.tailDropped) != sent {
		t.Fatalf("contribution mass: %d merged + %d tail-dropped vs %d sent — late gradients vanished unaccounted",
			got, c.tailDropped, sent)
	}
	// All workers saw identical per-step totals (identical broadcasts).
	for id := 1; id < workers; id++ {
		for s := range totals[0] {
			if totals[id][s] != totals[0][s] {
				t.Fatalf("step %d: worker %d total %d vs worker 0 total %d", s, id, totals[id][s], totals[0][s])
			}
		}
	}
}

// TestTCPCoordinatorDrainsOnWorkerDisconnect: when a worker vanishes
// mid-run without a goodbye, the survivors keep training and the
// coordinator drains cleanly once they finish. Run under -race this
// also pins the reader/collector buffer handoff.
func TestTCPCoordinatorDrainsOnWorkerDisconnect(t *testing.T) {
	cfg := testCfg()
	const workers = 3
	c := startTestCoordinator(t, cfg, CoordinatorOptions{ExpectWorkers: workers})

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := dialTestWorker(t, c.Addr().String(), cfg, WorkerOptions{})
			steps := 6
			if i == 0 {
				steps = 2 // this one abandons the run
			}
			for s := 0; s < steps; s++ {
				g, err := model.NewGradientsFor(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				fillGradients(g, uint64(10*i+s+1))
				if _, _, err := w.Reduce([]*model.Gradients{g}); err != nil {
					t.Errorf("worker %d step %d: %v", i, s, err)
					return
				}
			}
			if i == 0 {
				// Abrupt close, no FrameBye: the coordinator must treat
				// the read error as a disconnect.
				w.conn.Close()
			} else {
				w.Close()
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("coordinator did not drain cleanly: %v", err)
	}
	if c.Steps() < 6 {
		t.Fatalf("survivors only got %d steps", c.Steps())
	}
}

func TestTCPGeometryMismatchRejected(t *testing.T) {
	cfg := testCfg()
	c := startTestCoordinator(t, cfg, CoordinatorOptions{ExpectWorkers: 1})
	bad := cfg
	bad.Hidden *= 2
	_, err := Dial(c.Addr().String(), bad, WorkerOptions{DialTimeout: 2 * time.Second})
	if err == nil || !strings.Contains(err.Error(), "geometry") {
		t.Fatalf("want geometry rejection, got %v", err)
	}
	// The coordinator must still be accepting: the right geometry joins.
	w := dialTestWorker(t, c.Addr().String(), cfg, WorkerOptions{})
	if w.Total() != 1 {
		t.Fatalf("worker set size %d", w.Total())
	}
}

func TestCoordinatorCloseUnblocksDial(t *testing.T) {
	cfg := testCfg()
	c := startTestCoordinator(t, cfg, CoordinatorOptions{ExpectWorkers: 2})
	errCh := make(chan error, 1)
	go func() {
		// Only one worker ever joins; Close must unblock its handshake.
		_, err := Dial(c.Addr().String(), cfg, WorkerOptions{DialTimeout: 5 * time.Second})
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond)
	c.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("dial succeeded against a closed coordinator")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dial still blocked after coordinator close")
	}
}

// TestTCPLateFoldIntoNextStep arranges for a straggler's late
// contribution to arrive while the session is still serving steps, so
// it must fold into a subsequent merge rather than the termination tail:
// more late contributions arrive than are tail-dropped, proving at
// least one was merged forward.
func TestTCPLateFoldIntoNextStep(t *testing.T) {
	cfg := testCfg()
	const workers = 3
	const steps = 10
	c := startTestCoordinator(t, cfg, CoordinatorOptions{
		ExpectWorkers: workers,
		Quorum:        2,
		Deadline:      20 * time.Millisecond,
	})

	totals := make([][]int, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := dialTestWorker(t, c.Addr().String(), cfg, WorkerOptions{})
			for s := 0; s < steps; s++ {
				if w.ID() == 0 && s == 1 {
					// Straggle once, long enough to go stale but well
					// inside the session: the other workers pace
					// themselves below, so merges keep happening for
					// ~300ms after this worker wakes.
					time.Sleep(250 * time.Millisecond)
				} else if w.ID() != 0 {
					time.Sleep(30 * time.Millisecond)
				}
				g, err := model.NewGradientsFor(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				fillGradients(g, uint64(10*w.ID()+s+1))
				_, n, err := w.Reduce([]*model.Gradients{g})
				if err != nil {
					t.Errorf("worker %d step %d: %v", w.ID(), s, err)
					return
				}
				totals[w.ID()] = append(totals[w.ID()], n)
			}
			w.Close()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if c.LateFolds() == 0 {
		t.Fatal("straggler never produced a late contribution")
	}
	if c.tailDropped >= c.LateFolds() {
		t.Fatalf("all %d late contributions tail-dropped — none folded into a later merge", c.LateFolds())
	}
	// Conservation still holds across folds and drops.
	sent := workers * steps
	got := 0
	for _, ts := range totals[1] {
		got += ts
	}
	if got+int(c.tailDropped) != sent {
		t.Fatalf("contribution mass: %d merged + %d tail-dropped vs %d sent", got, c.tailDropped, sent)
	}
}

// TestInprocIsTreeReduce: the extracted in-process sync is exactly the
// deterministic tree all-reduce with the local contribution count.
func TestInprocIsTreeReduce(t *testing.T) {
	cfg := testCfg()
	sets := make([]*model.Gradients, 3)
	ref := make([]*model.Gradients, 3)
	for i := range sets {
		g, err := model.NewGradientsFor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fillGradients(g, uint64(i+1))
		sets[i] = g
		r, _ := model.NewGradientsFor(cfg)
		fillGradients(r, uint64(i+1))
		ref[i] = r
	}
	merged, n, err := Inproc{}.Reduce(sets)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(sets) {
		t.Fatalf("contribs %d, want %d", n, len(sets))
	}
	if !gradientsEqual(merged, TreeReduce(ref)) {
		t.Fatal("Inproc.Reduce differs from TreeReduce")
	}
	if err := (Inproc{}).Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompressedSyncAccounting drives the in-process compressed sync
// through a dense warm-up step and compressed steps, checking the
// wire/dense accounting and that warm-up really ships dense.
func TestCompressedSyncAccounting(t *testing.T) {
	cfg := testCfg()
	c := &Compressed{
		Opts:    CompressOptions{KeepFrac: 0.1, WarmupSteps: 1},
		Metrics: obs.NewDist(obs.NewRegistry()),
	}
	defer c.Close()
	step := func() {
		g, err := model.NewGradientsFor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fillGradients(g, uint64(c.steps+1))
		if _, n, err := c.Reduce([]*model.Gradients{g}); err != nil || n != 1 {
			t.Fatalf("reduce: n=%d err=%v", n, err)
		}
	}
	step() // warm-up: dense
	if c.Ratio() != 1 {
		t.Fatalf("warm-up step ratio %.2f, want 1 (dense)", c.Ratio())
	}
	for i := 0; i < 3; i++ {
		step()
	}
	if c.WireBytes() <= 0 || c.DenseBytes() <= c.WireBytes() {
		t.Fatalf("accounting: wire %d dense %d", c.WireBytes(), c.DenseBytes())
	}
	if c.Ratio() <= 1 {
		t.Fatalf("compressed ratio %.2f, want > 1", c.Ratio())
	}
}

// TestCoordinatorReportsMalformedGradients: a worker whose gradient
// frame fails validation is dropped and its fault surfaces from Wait,
// unlike a worker whose connection merely ends.
func TestCoordinatorReportsMalformedGradients(t *testing.T) {
	cfg := testCfg()
	c := startTestCoordinator(t, cfg, CoordinatorOptions{ExpectWorkers: 1})
	conn, err := net.Dial("tcp", c.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hello [8]byte
	binary.BigEndian.PutUint64(hello[:], GeomSum(cfg))
	if _, err := writeFrame(conn, nil, Frame{Type: FrameHello, Body: hello[:]}); err != nil {
		t.Fatal(err)
	}
	if f, _, err := ReadFrame(conn, nil); err != nil || f.Type != FrameWelcome {
		t.Fatalf("welcome: %+v %v", f, err)
	}
	// One contribution whose payload names an unknown encoding.
	if _, err := conn.Write(gradFrame(2, 1, []byte{9})); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err == nil || !strings.Contains(err.Error(), "worker 0") || !strings.Contains(err.Error(), "encoding") {
		t.Fatalf("want worker 0's encoding fault from Wait, got %v", err)
	}
}
