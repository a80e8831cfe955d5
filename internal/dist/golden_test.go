package dist_test

import (
	"context"
	"sync"
	"testing"

	"etalstm/internal/core"
	"etalstm/internal/dist"
	"etalstm/internal/model"
	"etalstm/internal/obs"
	"etalstm/internal/persist"
	"etalstm/internal/rng"
	"etalstm/internal/train"
	"etalstm/internal/workload"
)

// stridedShard is worker offset's view of a shared epoch: batch i of the
// shard is global batch i*stride+offset.
type stridedShard struct {
	inner          train.Provider
	stride, offset int
}

func (p stridedShard) NumBatches() int         { return p.inner.NumBatches() / p.stride }
func (p stridedShard) Batch(i int) train.Batch { return p.inner.Batch(i*p.stride + p.offset) }

// goldenCompressedDigest is persist.Digest of both workers' networks
// after the session TestTCPCompressedSessionGolden runs. It was recorded
// before the gradient codec streamed frames and kept one residual per
// feedback, so any change to the bytes on the wire, to the error-feedback
// arithmetic or to the top-k selection trips it.
const goldenCompressedDigest = "d284bb6e158d0fe56e1b647210f5ba588b88a06db9ba779af132495a45ed207f"

// goldenWireBytes is each worker's WireBytes (both directions, by worker
// id) after the same session: the payload sizes the codec shipped.
var goldenWireBytes = []int64{3620752, 3620768}

// TestTCPCompressedSessionGolden trains two seeded workers over a
// loopback coordinator with compression both ways (keep 0.05, 4 dense
// warm-up steps, 16 steps in all, 12 of them sparse) and pins the
// resulting weights bitwise.
func TestTCPCompressedSessionGolden(t *testing.T) {
	b, err := workload.ByName("IMDB")
	if err != nil {
		t.Fatal(err)
	}
	bench := b.Scaled(32, 16, 4)
	const workers, epochs = 2, 4
	union := bench.Provider(8, 5) // 4 steps per worker per epoch
	comp := &dist.CompressOptions{KeepFrac: 0.05, WarmupSteps: 4}
	c, err := dist.StartCoordinator("127.0.0.1:0", bench.Cfg, dist.CoordinatorOptions{
		ExpectWorkers: workers, Compression: comp, Metrics: obs.NewDist(obs.NewRegistry())})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	digests := make([]string, workers)
	wire := make([]int64, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := dist.Dial(c.Addr().String(), bench.Cfg, dist.WorkerOptions{Compression: comp, Metrics: obs.NewDist(obs.NewRegistry())})
			if err != nil {
				t.Error(err)
				return
			}
			defer w.Close()
			net, err := model.NewNetwork(bench.Cfg, rng.New(42))
			if err != nil {
				t.Error(err)
				return
			}
			tr := core.New(net, &train.Adam{LR: 0.01}, 5, core.Config{})
			tr.Workers = 1
			tr.Sync = w
			if _, err := tr.Run(context.Background(), stridedShard{union, workers, w.ID()}, epochs); err != nil {
				t.Errorf("worker %d: %v", w.ID(), err)
				return
			}
			d, err := persist.Digest(net)
			if err != nil {
				t.Error(err)
				return
			}
			digests[w.ID()], wire[w.ID()] = d, w.WireBytes()
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if c.Steps() != 16 {
		t.Fatalf("session ran %d steps, want 16", c.Steps())
	}
	if digests[0] != digests[1] {
		t.Fatalf("workers forked: %s vs %s", digests[0], digests[1])
	}
	if digests[0] != goldenCompressedDigest {
		t.Fatalf("digest %s, golden %s", digests[0], goldenCompressedDigest)
	}
	for id, n := range wire {
		if n != goldenWireBytes[id] {
			t.Fatalf("worker %d shipped %d payload bytes, golden %d", id, n, goldenWireBytes[id])
		}
	}
}
