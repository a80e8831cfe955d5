package etalstm

import (
	"context"
	"strings"
	"testing"
)

// TestPlanForSurface exercises the public planning API: a generous
// budget degenerates to full storage, a tight one checkpoints within
// budget, an impossible one is flagged infeasible.
func TestPlanForSurface(t *testing.T) {
	bench, _ := BenchmarkByName("IMDB")
	small := bench.Scaled(64, 48, 4)

	free := PlanFor(small.Cfg, Baseline, 0)
	if !free.FullStorage() || !free.Feasible {
		t.Fatalf("zero budget must be full storage, got %+v", free)
	}
	if free.FullPeak <= 0 {
		t.Fatal("full-storage peak must be positive")
	}

	tight := PlanFor(small.Cfg, Baseline, free.FullPeak/4)
	if tight.FullStorage() || !tight.Feasible {
		t.Fatalf("quarter budget should checkpoint, got %+v", tight)
	}
	if tight.PredictedPeak > free.FullPeak/4 {
		t.Fatalf("predicted peak %d exceeds budget %d", tight.PredictedPeak, free.FullPeak/4)
	}
	if tight.RecomputeRatio <= 0 || tight.RecomputedCells == 0 {
		t.Fatal("tight plan must pay recompute")
	}

	// MS1 stores six P1 planes per cell where raw stores five, so the
	// same budget buys the MS1 plan no fewer checkpoint segments.
	ms1 := PlanFor(small.Cfg, MS1, free.FullPeak/4)
	if len(ms1.Boundaries) < len(tight.Boundaries) {
		t.Fatalf("MS1 plan kept fewer columns (%d) than raw (%d) under the same budget",
			len(ms1.Boundaries), len(tight.Boundaries))
	}

	if bad := PlanFor(small.Cfg, Baseline, 64); bad.Feasible {
		t.Fatal("64-byte budget cannot be feasible")
	}
}

// TestMemoryBudgetTrains drives the budget end to end through the
// public API: the trainer checkpoints, stays under budget, reports the
// placement via Plan(), and still learns.
func TestMemoryBudgetTrains(t *testing.T) {
	bench, _ := BenchmarkByName("IMDB")
	small := bench.Scaled(64, 48, 4)
	budget := PlanFor(small.Cfg, Baseline, 0).FullPeak / 4

	net, err := NewNetwork(small.Cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrainer(net, Baseline, TrainerOptions{Workers: 1, MemoryBudget: budget})
	stats, err := tr.Run(context.Background(), small.Provider(3, 1), 6)
	if err != nil {
		t.Fatal(err)
	}
	if stats[len(stats)-1].MeanLoss >= stats[0].MeanLoss {
		t.Fatal("budgeted trainer failed to learn")
	}
	for _, st := range stats {
		if st.PeakStoredBytes <= 0 || st.PeakStoredBytes > budget {
			t.Fatalf("epoch %d peak %d B outside budget %d B", st.Epoch, st.PeakStoredBytes, budget)
		}
		if st.RecomputedCells == 0 {
			t.Fatalf("epoch %d did not recompute under a binding budget", st.Epoch)
		}
	}
	pl := tr.Plan()
	if pl.FullStorage() || pl.Budget != budget {
		t.Fatalf("Plan() returned %+v for budget %d", pl, budget)
	}
	if !strings.Contains(pl.String(), "checkpoint") {
		t.Fatalf("Plan().String() = %q", pl.String())
	}
}

// TestMemoryBudgetInfeasibleSurfaced: an impossible budget errors at
// the first epoch instead of silently overshooting.
func TestMemoryBudgetInfeasibleSurfaced(t *testing.T) {
	bench, _ := BenchmarkByName("IMDB")
	small := bench.Scaled(64, 12, 8)
	net, _ := NewNetwork(small.Cfg, 3)
	tr := NewTrainer(net, Baseline, TrainerOptions{Workers: 1, MemoryBudget: 64})
	if _, err := tr.Run(context.Background(), small.Provider(2, 2), 1); err == nil ||
		!strings.Contains(err.Error(), "infeasible") {
		t.Fatalf("want infeasible error, got %v", err)
	}
}

// TestAnalyzeSurfaces pins the analysis API: Analyze echoes its inputs
// and models a non-degenerate traffic and footprint for every mode, and
// Trainer.Analyze reports the trainer's measured operating point for
// its own network.
func TestAnalyzeSurfaces(t *testing.T) {
	for _, name := range []string{"IMDB", "WMT", "WAYMO", "BABI"} {
		bench, err := BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{Baseline, MS1, MS2, Combined} {
			a := Analyze(bench.Cfg, mode)
			if a.Cfg != bench.Cfg || a.Mode != mode {
				t.Fatalf("%s/%v: Analysis must echo its inputs", name, mode)
			}
			if a.Movement.Total() <= 0 || a.Footprint.Total() <= 0 {
				t.Errorf("%s/%v: degenerate analysis %+v", name, mode, a)
			}
		}
	}

	small, _ := BenchmarkByName("IMDB")
	s := small.Scaled(64, 10, 8)
	net, _ := NewNetwork(s.Cfg, 5)
	tr := NewTrainer(net, Combined, TrainerOptions{Workers: 1})
	if _, err := tr.Run(context.Background(), s.Provider(2, 9), 5); err != nil {
		t.Fatal(err)
	}
	ta := tr.Analyze()
	if ta.Cfg != s.Cfg || ta.Mode != Combined {
		t.Fatalf("Trainer.Analyze misreported cfg/mode: %+v", ta)
	}
	base := Analyze(s.Cfg, Baseline)
	if ta.Footprint.Total() >= base.Footprint.Total() {
		t.Fatal("measured combined footprint must beat baseline")
	}
	if ta.Movement.Total() >= base.Movement.Total() {
		t.Fatal("measured combined movement must beat baseline")
	}
}
