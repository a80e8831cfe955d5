package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"etalstm/internal/model"
	"etalstm/internal/obs"
	"etalstm/internal/persist"
	"etalstm/internal/rng"
	"etalstm/internal/rtrace"
	"etalstm/internal/tensor"
	"etalstm/internal/train"
	"etalstm/internal/workload"
)

// engineTrainer builds a trainer with the given replica count over an
// 8-batch IMDB provider, its instruments on a private registry.
func engineTrainer(t *testing.T, seed uint64, workers int, opt train.Optimizer) (*Trainer, train.Provider) {
	t.Helper()
	bench, err := workload.ByName("IMDB")
	if err != nil {
		t.Fatal(err)
	}
	small := bench.Scaled(64, 8, 4)
	net, err := model.NewNetwork(small.Cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	tr := New(net, opt, 5, Config{})
	tr.Workers = workers
	tr.ins = obs.NewTrain(obs.NewRegistry())
	return tr, small.Provider(8, seed)
}

// runEngine runs one epoch of the step loop with a caller-supplied
// batchFn.
func runEngine(ctx context.Context, tr *Trainer, p train.Provider, fn batchFn) (epochResult, error) {
	tr.setReplicas()
	return tr.runSteps(ctx, p, fn, 0)
}

// baselineFn is the simplest possible batchFn: raw-cache forward, full
// backward, no pruning or skipping.
func baselineFn(net *model.Network, b train.Batch, _ int) (batchResult, error) {
	res, err := net.Forward(b.Inputs, b.Targets, nil)
	if err != nil {
		return batchResult{}, err
	}
	grads := net.NewGradients()
	if err := net.Backward(res, nil, grads, model.BackwardOpts{}); err != nil {
		return batchResult{}, err
	}
	return batchResult{Grads: grads, Loss: res.Loss}, nil
}

func digest(t *testing.T, net *model.Network) string {
	t.Helper()
	d, err := persist.Digest(net)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestEngineMatchesSerial runs the same epoch through a one-replica
// step loop and through a hand-written serial loop with the identical
// clip-then-step, and demands bitwise-equal weights: one-batch groups
// and the identity reduce must add no float operations.
func TestEngineMatchesSerial(t *testing.T) {
	trA, provA := engineTrainer(t, 7, 1, &train.SGD{LR: 0.05})
	resA, err := runEngine(context.Background(), trA, provA, baselineFn)
	if err != nil {
		t.Fatal(err)
	}

	trB, provB := engineTrainer(t, 7, 1, &train.SGD{LR: 0.05})
	red := train.ClipStep{Opt: trB.Opt, Clip: trB.Clip}
	var serialLoss float64
	for b := 0; b < provB.NumBatches(); b++ {
		r, err := baselineFn(trB.Net, provB.Batch(b), b)
		if err != nil {
			t.Fatal(err)
		}
		serialLoss += r.Loss
		red.Apply(trB.Net, r.Grads, 1)
	}

	if digest(t, trA.Net) != digest(t, trB.Net) {
		t.Error("one-replica step loop diverged bitwise from the serial loop")
	}
	if resA.TotalLoss != serialLoss {
		t.Errorf("loss differs: engine %x, serial %x", resA.TotalLoss, serialLoss)
	}
	if resA.Batches != provA.NumBatches() {
		t.Errorf("engine processed %d batches, want %d", resA.Batches, provA.NumBatches())
	}
}

// TestEngineReproducible runs the same epoch twice at Workers == 3 (an
// uneven divisor of the batch count, so the last group is partial) and
// checks bitwise reproducibility.
func TestEngineReproducible(t *testing.T) {
	run := func() string {
		tr, prov := engineTrainer(t, 11, 3, &train.Adam{LR: 0.01})
		if _, err := runEngine(context.Background(), tr, prov, baselineFn); err != nil {
			t.Fatal(err)
		}
		return digest(t, tr.Net)
	}
	if run() != run() {
		t.Error("Workers == 3 epoch is not reproducible run-to-run")
	}
}

// TestEngineErrorOrder makes batch 2 fail and checks the step loop
// surfaces exactly that error with the statistics of the batches before
// it — the same observable state as a serial run stopping at the first
// failure.
func TestEngineErrorOrder(t *testing.T) {
	boom := errors.New("boom")
	tr, prov := engineTrainer(t, 5, 4, &train.SGD{LR: 0.05})
	fn := func(n *model.Network, b train.Batch, index int) (batchResult, error) {
		if index == 2 {
			return batchResult{}, fmt.Errorf("batch %d: %w", index, boom)
		}
		return baselineFn(n, b, index)
	}
	res, err := runEngine(context.Background(), tr, prov, fn)
	if !errors.Is(err, boom) {
		t.Fatalf("want the injected error, got %v", err)
	}
	if res.Batches != 2 {
		t.Errorf("folded %d batches before the failure, want 2 (batch order)", res.Batches)
	}
}

// TestEngineCancellation checks an already-cancelled context stops the
// epoch before any batch runs, and that the error is ctx.Err().
func TestEngineCancellation(t *testing.T) {
	tr, prov := engineTrainer(t, 6, 2, &train.SGD{LR: 0.05})
	before := digest(t, tr.Net)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := runEngine(ctx, tr, prov, baselineFn)
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res.Batches != 0 {
		t.Errorf("cancelled epoch still folded %d batches", res.Batches)
	}
	if digest(t, tr.Net) != before {
		t.Error("cancelled epoch mutated the master weights")
	}
}

// TestObservedFold checks calibration grids are summed element-wise in
// batch order across a group.
func TestObservedFold(t *testing.T) {
	tr, prov := engineTrainer(t, 8, 4, &train.SGD{LR: 0.01})
	fn := func(n *model.Network, b train.Batch, index int) (batchResult, error) {
		r, err := baselineFn(n, b, index)
		r.Observed = [][]float64{{1, float64(index)}}
		return r, err
	}
	res, err := runEngine(context.Background(), tr, prov, fn)
	if err != nil {
		t.Fatal(err)
	}
	n := prov.NumBatches()
	if got := res.Observed[0][0]; got != float64(n) {
		t.Errorf("Observed[0][0] = %v, want %d", got, n)
	}
	if got, want := res.Observed[0][1], float64(n*(n-1)/2); got != want {
		t.Errorf("Observed[0][1] = %v, want %v", got, want)
	}
}

// TestNewClampsWorkers checks the replica count is clamped to >= 1 and
// that replica 0 is always the master network.
func TestNewClampsWorkers(t *testing.T) {
	for _, c := range []struct{ workers, want int }{{-1, 1}, {0, 1}, {1, 1}, {5, 5}} {
		tr, _ := engineTrainer(t, 9, c.workers, &train.SGD{LR: 1})
		tr.setReplicas()
		if len(tr.replicas) != c.want || tr.replicas[0] != tr.Net {
			t.Fatalf("Workers %d: %d replicas (replica 0 is Net: %v), want %d",
				c.workers, len(tr.replicas), tr.replicas[0] == tr.Net, c.want)
		}
	}
}

// TestReplicaWorkspaceIsolation pins the confinement rule behind the
// workspace layer: replica 0 is the master network and every other
// replica is a Clone, so each owns a distinct scratch workspace, and
// after an epoch every replica — the master included — has exercised
// its own. That is what makes concurrent FW/BP passes race-free without
// any locking in the arena.
func TestReplicaWorkspaceIsolation(t *testing.T) {
	tr, prov := engineTrainer(t, 13, 4, &train.SGD{LR: 0.05})
	tr.setReplicas()
	if tr.replicas[0] != tr.Net {
		t.Fatal("replica 0 must be the master network")
	}
	seen := map[*tensor.Workspace]bool{}
	for i, rep := range tr.replicas {
		ws := rep.Workspace()
		if seen[ws] {
			t.Fatalf("replica %d shares a workspace with another replica", i)
		}
		seen[ws] = true
	}
	if _, err := tr.runSteps(context.Background(), prov, baselineFn, 0); err != nil {
		t.Fatal(err)
	}
	// 8 batches over 4 replicas: every replica ran FW+BP and must have
	// drawn from (and recycled into) its own arena.
	for i, rep := range tr.replicas {
		st := rep.Workspace().Stats()
		if st.Gets == 0 || st.Puts == 0 {
			t.Errorf("replica %d workspace saw no traffic: %+v", i, st)
		}
	}
}

// TestOnWaitCompleteSampleSet pins the straggler-wait contract the
// telemetry depends on: every replica that ran a batch in a group
// reports exactly once to the wait histogram (the group's last finisher
// with a zero duration), and every earlier finisher's idle time shows
// up as a straggler-wait event on the step span. An incomplete sample
// set (e.g. dropping the last finisher) would bias every percentile
// the wait histogram feeds.
func TestOnWaitCompleteSampleSet(t *testing.T) {
	rec := withTracer(t, rtrace.Options{Process: "trainer"})
	const workers = 4
	tr, prov := engineTrainer(t, 21, workers, &train.SGD{LR: 0.01})
	// Give replicas distinct finish times so no two tie: slot s sleeps
	// s×5ms after its batch.
	fn := func(n *model.Network, b train.Batch, index int) (batchResult, error) {
		r, err := baselineFn(n, b, index)
		time.Sleep(time.Duration(index%workers) * 5 * time.Millisecond)
		return r, err
	}
	if _, err := runEngine(context.Background(), tr, prov, fn); err != nil {
		t.Fatal(err)
	}

	n := prov.NumBatches()
	if got := tr.ins.AllReduceWait.Snapshot().Count; got != int64(n) {
		t.Fatalf("%d wait samples for %d batches — sample set incomplete", got, n)
	}
	var steps int
	for _, sd := range rec.Spans() {
		if sd.Name != "train.step" {
			continue
		}
		steps++
		waited := map[string]int{}
		for _, ev := range sd.Events {
			if ev.Name != "straggler-wait" {
				continue
			}
			for _, a := range ev.Attrs {
				if a.Key == "replica" {
					waited[a.Value]++
				}
			}
		}
		// Every replica but the group's last finisher waited, and each
		// reports at most once.
		for r, c := range waited {
			if c != 1 {
				t.Errorf("step %v: replica %s has %d straggler-wait events", sd.Attrs, r, c)
			}
		}
		if len(waited) != workers-1 {
			t.Errorf("step %v: %d replicas waited, want %d (%v)", sd.Attrs, len(waited), workers-1, waited)
		}
	}
	if steps != n/workers {
		t.Fatalf("%d step spans, want %d", steps, n/workers)
	}
}
