package parallel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"etalstm/internal/dist"
	"etalstm/internal/model"
	"etalstm/internal/rng"
	"etalstm/internal/tensor"
	"etalstm/internal/train"
	"etalstm/internal/workload"
)

func testNetwork(t *testing.T, seed uint64) (*model.Network, train.Provider) {
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
	return net, small.Provider(8, seed)
}

// baselineFn is the simplest possible BatchFn: raw-cache forward, full
// backward, no pruning or skipping.
func baselineFn(net *model.Network, b train.Batch, _ int) (BatchResult, error) {
	res, err := net.Forward(b.Inputs, b.Targets, nil)
	if err != nil {
		return BatchResult{}, err
	}
	grads := net.NewGradients()
	if err := net.Backward(res, nil, grads, model.BackwardOpts{}); err != nil {
		return BatchResult{}, err
	}
	return BatchResult{Grads: grads, Loss: res.Loss}, nil
}

func checksum(net *model.Network) uint64 {
	var sum uint64
	for _, p := range net.Layer {
		for g := 0; g < 4; g++ {
			for _, v := range p.W[g].Data {
				sum += uint64(math.Float32bits(v))
			}
			for _, v := range p.U[g].Data {
				sum += uint64(math.Float32bits(v))
			}
			for _, v := range p.B[g] {
				sum += uint64(math.Float32bits(v))
			}
		}
	}
	for _, v := range net.Proj.Data {
		sum += uint64(math.Float32bits(v))
	}
	for _, v := range net.ProjB {
		sum += uint64(math.Float32bits(v))
	}
	return sum
}

// TestTreeReduceExactSum feeds integer-valued gradients (exact in
// float32 regardless of summation order) through dist.TreeReduce — the
// engine's default merge — and checks the result equals the arithmetic
// sum, for every width including the identity case.
func TestTreeReduceExactSum(t *testing.T) {
	net, _ := testNetwork(t, 1)
	for _, n := range []int{1, 2, 3, 4, 5, 8} {
		grads := make([]*model.Gradients, n)
		for i := range grads {
			grads[i] = net.NewGradients()
			grads[i].Layer[0].W[0].Data[0] = float32(i + 1)
			grads[i].ProjB[0] = float32(10 * (i + 1))
			grads[i].SkippedCells = i
			grads[i].ExecutedCells = 2 * i
		}
		first := grads[0]
		merged := dist.TreeReduce(grads)
		if merged != first {
			t.Fatalf("n=%d: TreeReduce must reduce into grads[0]", n)
		}
		wantW := float32(n * (n + 1) / 2)
		if got := merged.Layer[0].W[0].Data[0]; got != wantW {
			t.Errorf("n=%d: W sum = %v, want %v", n, got, wantW)
		}
		if got := merged.ProjB[0]; got != 10*wantW {
			t.Errorf("n=%d: ProjB sum = %v, want %v", n, got, 10*wantW)
		}
		wantSkip := n * (n - 1) / 2
		if merged.SkippedCells != wantSkip || merged.ExecutedCells != 2*wantSkip {
			t.Errorf("n=%d: cell counters %d/%d, want %d/%d",
				n, merged.SkippedCells, merged.ExecutedCells, wantSkip, 2*wantSkip)
		}
	}
}

// TestTreeReduceDeterministic reduces the same irrational-valued
// gradient sets twice and demands bitwise-identical results — the tree
// order must be a function of the count alone.
func TestTreeReduceDeterministic(t *testing.T) {
	net, _ := testNetwork(t, 2)
	build := func() []*model.Gradients {
		r := rng.New(99)
		grads := make([]*model.Gradients, 7)
		for i := range grads {
			grads[i] = net.NewGradients()
			for _, m := range []*[]float32{&grads[i].Layer[0].W[0].Data, &grads[i].Proj.Data} {
				for j := range *m {
					(*m)[j] = float32(r.Float64()) - 0.5
				}
			}
		}
		return grads
	}
	a := dist.TreeReduce(build())
	b := dist.TreeReduce(build())
	for j := range a.Proj.Data {
		if math.Float32bits(a.Proj.Data[j]) != math.Float32bits(b.Proj.Data[j]) {
			t.Fatalf("Proj[%d] differs between identical reductions", j)
		}
	}
	for j := range a.Layer[0].W[0].Data {
		if math.Float32bits(a.Layer[0].W[0].Data[j]) != math.Float32bits(b.Layer[0].W[0].Data[j]) {
			t.Fatalf("W[%d] differs between identical reductions", j)
		}
	}
}

// TestEngineMatchesSerial runs the same epoch through a Workers == 1
// engine and through a hand-written serial loop with the identical
// reducer, and demands bitwise-equal weights: the engine's one-batch
// groups and identity reduce must add no float operations.
func TestEngineMatchesSerial(t *testing.T) {
	red := train.ClipStep{Opt: &train.SGD{LR: 0.05}, Clip: 5}

	netA, provA := testNetwork(t, 7)
	eng := New(netA, 1, red)
	if err := eng.Validate(); err != nil {
		t.Fatal(err)
	}
	resA, err := eng.RunEpoch(context.Background(), provA, baselineFn)
	if err != nil {
		t.Fatal(err)
	}

	netB, provB := testNetwork(t, 7)
	var serialLoss float64
	for b := 0; b < provB.NumBatches(); b++ {
		r, err := baselineFn(netB, provB.Batch(b), b)
		if err != nil {
			t.Fatal(err)
		}
		serialLoss += r.Loss
		red.Apply(netB, r.Grads, 1)
	}

	if checksum(netA) != checksum(netB) {
		t.Error("Workers == 1 engine diverged bitwise from the serial loop")
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
	run := func() uint64 {
		net, prov := testNetwork(t, 11)
		eng := New(net, 3, train.ClipStep{Opt: &train.Adam{LR: 0.01}, Clip: 5})
		if _, err := eng.RunEpoch(context.Background(), prov, baselineFn); err != nil {
			t.Fatal(err)
		}
		return checksum(net)
	}
	if run() != run() {
		t.Error("Workers == 3 epoch is not reproducible run-to-run")
	}
}

// TestEngineErrorOrder makes batch 2 fail and checks the engine surfaces
// exactly that error with the statistics of the batches before it — the
// same observable state as a serial run stopping at the first failure.
func TestEngineErrorOrder(t *testing.T) {
	boom := errors.New("boom")
	net, prov := testNetwork(t, 5)
	eng := New(net, 4, train.ClipStep{Opt: &train.SGD{LR: 0.05}, Clip: 5})
	fn := func(n *model.Network, b train.Batch, index int) (BatchResult, error) {
		if index == 2 {
			return BatchResult{}, fmt.Errorf("batch %d: %w", index, boom)
		}
		return baselineFn(n, b, index)
	}
	res, err := eng.RunEpoch(context.Background(), prov, fn)
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
	net, prov := testNetwork(t, 6)
	eng := New(net, 2, train.ClipStep{Opt: &train.SGD{LR: 0.05}, Clip: 5})
	before := checksum(net)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := eng.RunEpoch(ctx, prov, baselineFn)
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res.Batches != 0 {
		t.Errorf("cancelled epoch still folded %d batches", res.Batches)
	}
	if checksum(net) != before {
		t.Error("cancelled epoch mutated the master weights")
	}
}

// TestObservedFold checks calibration grids are summed element-wise in
// batch order across a group.
func TestObservedFold(t *testing.T) {
	net, prov := testNetwork(t, 8)
	eng := New(net, 4, train.ClipStep{Opt: &train.SGD{LR: 0.01}, Clip: 5})
	fn := func(n *model.Network, b train.Batch, index int) (BatchResult, error) {
		r, err := baselineFn(n, b, index)
		if err != nil {
			return r, err
		}
		r.Observed = [][]float64{{1, float64(index)}}
		return r, nil
	}
	res, err := eng.RunEpoch(context.Background(), prov, fn)
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
// reported via Workers.
func TestNewClampsWorkers(t *testing.T) {
	net, _ := testNetwork(t, 9)
	if got := New(net, 0, train.ClipStep{Opt: &train.SGD{LR: 1}}).Workers(); got != 1 {
		t.Fatalf("Workers() = %d, want clamp to 1", got)
	}
	if got := New(net, 5, train.ClipStep{Opt: &train.SGD{LR: 1}}).Workers(); got != 5 {
		t.Fatalf("Workers() = %d, want 5", got)
	}
}

// TestReplicaWorkspaceIsolation pins the confinement rule behind the
// workspace layer: every replica is a Clone and therefore owns a
// private scratch workspace (never shared with the master or another
// replica), and after an epoch each replica has exercised its own —
// which is what makes concurrent FW/BP passes race-free without any
// locking in the arena.
func TestReplicaWorkspaceIsolation(t *testing.T) {
	net, prov := testNetwork(t, 13)
	eng := New(net, 4, train.ClipStep{Opt: &train.SGD{LR: 0.05}, Clip: 5})
	seen := map[*tensor.Workspace]bool{net.Workspace(): true}
	for i, rep := range eng.replicas {
		ws := rep.Workspace()
		if seen[ws] {
			t.Fatalf("replica %d shares a workspace with another network", i)
		}
		seen[ws] = true
	}
	if _, err := eng.RunEpoch(context.Background(), prov, baselineFn); err != nil {
		t.Fatal(err)
	}
	// 8 batches over 4 workers: every replica ran FW+BP and must have
	// drawn from (and recycled into) its own arena.
	for i, rep := range eng.replicas {
		st := rep.Workspace().Stats()
		if st.Gets == 0 || st.Puts == 0 {
			t.Errorf("replica %d workspace saw no traffic: %+v", i, st)
		}
	}
	if st := net.Workspace().Stats(); st.Gets != 0 {
		t.Errorf("master workspace must stay idle during a parallel epoch: %+v", st)
	}
}

// TestOnWaitCompleteSampleSet pins the OnWait contract the straggler
// telemetry depends on: every worker that ran a batch in a group
// reports exactly once, the group's last finisher reports a zero
// duration, and earlier finishers report how long they idled. An
// incomplete sample set (e.g. dropping the last finisher) would bias
// every percentile the wait histogram feeds.
func TestOnWaitCompleteSampleSet(t *testing.T) {
	net, prov := testNetwork(t, 21)
	const workers = 4
	eng := New(net, workers, train.ClipStep{Opt: &train.SGD{LR: 0.01}, Clip: 5})

	type sample struct {
		replica int
		d       time.Duration
	}
	var samples []sample
	eng.OnWait = func(replica int, d time.Duration) {
		samples = append(samples, sample{replica, d})
	}
	// Give replicas strongly distinct finish times so "last finisher"
	// is unambiguous: replica slot s sleeps s×5ms after its batch.
	fn := func(n *model.Network, b train.Batch, index int) (BatchResult, error) {
		r, err := baselineFn(n, b, index)
		time.Sleep(time.Duration(index%workers) * 5 * time.Millisecond)
		return r, err
	}
	if _, err := eng.RunEpoch(context.Background(), prov, fn); err != nil {
		t.Fatal(err)
	}

	n := prov.NumBatches()
	if len(samples) != n {
		t.Fatalf("%d OnWait samples for %d batches — sample set incomplete", len(samples), n)
	}
	groups := (n + workers - 1) / workers
	perGroup := make([][]sample, groups)
	for g, i := 0, 0; g < groups; g++ {
		size := workers
		if rem := n - g*workers; rem < size {
			size = rem
		}
		perGroup[g] = samples[i : i+size]
		i += size
	}
	for g, grp := range perGroup {
		seen := map[int]int{}
		zeros := 0
		for _, s := range grp {
			seen[s.replica]++
			if s.d == 0 {
				zeros++
			}
			if s.d < 0 {
				t.Fatalf("group %d replica %d: negative wait %v", g, s.replica, s.d)
			}
		}
		for r, c := range seen {
			if c != 1 {
				t.Errorf("group %d: replica %d reported %d times", g, r, c)
			}
		}
		if len(seen) != len(grp) {
			t.Errorf("group %d: %d distinct replicas for %d samples", g, len(seen), len(grp))
		}
		// The last finisher waited for nobody: at least one exact zero.
		if zeros < 1 {
			t.Errorf("group %d: no zero-duration sample — last finisher missing from the set", g)
		}
		// With 5ms-stepped finish times, the slot-0 replica (first to
		// finish) must have recorded a real wait in full groups.
		if len(grp) == workers {
			var w0 time.Duration
			for _, s := range grp {
				if s.replica == 0 {
					w0 = s.d
				}
			}
			if w0 <= 0 {
				t.Errorf("group %d: first finisher reports no wait (%v)", g, w0)
			}
		}
	}
}
