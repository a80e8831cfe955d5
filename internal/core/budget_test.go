package core

import (
	"context"
	"strings"
	"testing"

	"etalstm/internal/memplan"
	"etalstm/internal/obs"
	"etalstm/internal/train"
	"etalstm/internal/workload"
)

// budgetBench is a longer-sequence shrink of IMDB: at SeqLen 48 the
// per-step storage dominates the fixed checkpoint-column overhead, so a
// quarter of the full-storage peak is a feasible (and binding) budget.
func budgetBench(t *testing.T) (workload.Benchmark, train.Provider) {
	t.Helper()
	b, err := workload.ByName("IMDB")
	if err != nil {
		t.Fatal(err)
	}
	s := b.Scaled(64, 48, 4)
	return s, s.Provider(3, 21)
}

// TestBudgetedTrainingBitwiseSerial is the tentpole's core promise:
// with Workers == 1, a trainer under a tight memory budget produces the
// exact per-epoch losses of the full-storage trainer — checkpointed
// BPTT replays FW work but never changes a float.
func TestBudgetedTrainingBitwiseSerial(t *testing.T) {
	for _, cfg := range []Config{{}, {EnableMS1: true}} {
		name := "baseline"
		if cfg.EnableMS1 {
			name = "ms1"
		}
		t.Run(name, func(t *testing.T) {
			bench, provA := budgetBench(t)
			_, provB := budgetBench(t)

			full := newTrainer(t, bench, cfg, 7)
			mode := full.FootprintMode()
			pl := memplan.Plan(bench.Cfg, mode, 0)

			budgeted := cfg
			budgeted.MemoryBudget = pl.FullPeak / 4
			bt := newTrainer(t, bench, budgeted, 7)

			statsF, err := full.Run(context.Background(), provA, 4)
			if err != nil {
				t.Fatal(err)
			}
			statsB, err := bt.Run(context.Background(), provB, 4)
			if err != nil {
				t.Fatal(err)
			}
			for e := range statsF {
				if statsF[e].MeanLoss != statsB[e].MeanLoss {
					t.Fatalf("epoch %d: full %v vs budgeted %v (must be bitwise)",
						e, statsF[e].MeanLoss, statsB[e].MeanLoss)
				}
				if statsF[e].PruneStats != statsB[e].PruneStats {
					t.Fatalf("epoch %d: prune stats diverged: %+v vs %+v",
						e, statsF[e].PruneStats, statsB[e].PruneStats)
				}
			}
			// Full storage is the one-segment plan: it reports the measured
			// peak the planner models for it, and recomputes nothing.
			if statsF[0].PeakStoredBytes != full.Placement().FullPeak || statsF[0].RecomputedCells != 0 {
				t.Fatalf("full-storage trainer reported peak %d B / %d recomputed cells, want %d B / 0",
					statsF[0].PeakStoredBytes, statsF[0].RecomputedCells, full.Placement().FullPeak)
			}
			last := statsB[len(statsB)-1]
			if last.RecomputedCells == 0 {
				t.Fatal("budgeted trainer never recomputed — budget not binding?")
			}
			if last.PeakStoredBytes <= 0 || last.PeakStoredBytes > budgeted.MemoryBudget {
				t.Fatalf("measured peak %d B outside budget %d B",
					last.PeakStoredBytes, budgeted.MemoryBudget)
			}
			if got := bt.Placement(); got.FullStorage() || !got.Feasible {
				t.Fatalf("budgeted trainer placement unexpectedly %+v", got)
			}
		})
	}
}

// TestBudgetedTrainingWorkers runs the budgeted trainer data-parallel:
// every replica checkpoints independently, the epoch peak folds as the
// max over batches, and the losses still match the budgeted serial run
// bitwise (Workers only changes the optimizer step cadence — and with
// one batch group per epoch, not even that).
func TestBudgetedTrainingWorkers(t *testing.T) {
	bench, provA := budgetBench(t)
	_, provB := budgetBench(t)
	pl := memplan.Plan(bench.Cfg, memplan.Baseline, 0)

	cfg := Config{MemoryBudget: pl.FullPeak / 4}
	serial := newTrainer(t, bench, cfg, 9)
	par := newTrainer(t, bench, cfg, 9)
	par.Workers = 3 // provider has 3 batches -> one group, one step

	stS, err := serial.RunEpoch(context.Background(), provA, 0)
	if err != nil {
		t.Fatal(err)
	}
	stP, err := par.RunEpoch(context.Background(), provB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stS.PeakStoredBytes != stP.PeakStoredBytes {
		t.Fatalf("peak stored diverged: serial %d vs parallel %d",
			stS.PeakStoredBytes, stP.PeakStoredBytes)
	}
	if stS.RecomputedCells != stP.RecomputedCells {
		t.Fatalf("recomputed cells diverged: serial %d vs parallel %d",
			stS.RecomputedCells, stP.RecomputedCells)
	}
	if stP.PeakStoredBytes > cfg.MemoryBudget {
		t.Fatalf("parallel peak %d B exceeds budget %d B", stP.PeakStoredBytes, cfg.MemoryBudget)
	}
	if stP.RecomputeRatio() <= 0 {
		t.Fatal("parallel budgeted epoch reported zero recompute ratio")
	}
}

// TestBudgetModeledVsMeasuredPeak reconciles memplan's resident-byte
// model against the byte tracker's measurement through the new obs
// gauges — the footprint small fix: the modeled peak must sit within
// 10% of what the trainer actually stored.
func TestBudgetModeledVsMeasuredPeak(t *testing.T) {
	for _, ms1 := range []bool{false, true} {
		bench, prov := budgetBench(t)
		cfg := Config{EnableMS1: ms1}
		mode := memplan.Baseline
		if ms1 {
			mode = memplan.MS1
		}
		pl := memplan.Plan(bench.Cfg, mode, 0)
		cfg.MemoryBudget = pl.FullPeak / 4

		tr := newTrainer(t, bench, cfg, 11)
		if _, err := tr.RunEpoch(context.Background(), prov, 0); err != nil {
			t.Fatal(err)
		}

		snap := obs.Default.Snapshot()
		measured := snap[obs.MetricPeakStoredBytes]
		predicted := float64(tr.Placement().PredictedPeak)
		if measured <= 0 {
			t.Fatalf("ms1=%v: peak gauge not set", ms1)
		}
		rel := (predicted - measured) / measured
		if rel < 0 {
			rel = -rel
		}
		if rel > 0.10 {
			t.Fatalf("ms1=%v: modeled peak %v vs measured %v diverge by %.1f%% (>10%%)",
				ms1, predicted, measured, 100*rel)
		}
		if snap[obs.MetricCkptColumns] != float64(len(tr.Placement().Boundaries)) {
			t.Fatalf("ms1=%v: ckpt column gauge %v != placement columns %d",
				ms1, snap[obs.MetricCkptColumns], len(tr.Placement().Boundaries))
		}
		if snap[obs.MetricRecomputeRatio] <= 0 {
			t.Fatalf("ms1=%v: recompute ratio gauge not set", ms1)
		}
		if snap[obs.MetricCkptStoredBytes] != float64(tr.Placement().CheckpointBytes) {
			t.Fatalf("ms1=%v: ckpt bytes gauge %v != placement %d",
				ms1, snap[obs.MetricCkptStoredBytes], tr.Placement().CheckpointBytes)
		}
	}
}

// TestBudgetInfeasibleErrors: a budget no placement can satisfy fails
// fast with a diagnostic instead of silently overshooting.
func TestBudgetInfeasibleErrors(t *testing.T) {
	bench, prov := budgetBench(t)
	tr := newTrainer(t, bench, Config{MemoryBudget: 64}, 13)
	_, err := tr.RunEpoch(context.Background(), prov, 0)
	if err == nil || !strings.Contains(err.Error(), "infeasible") {
		t.Fatalf("want infeasible-budget error, got %v", err)
	}
}

// TestBudgetMS2Composes: the checkpointed path and MS2's skip plan
// run together — calibration, skipping and rescaling all happen on the
// budgeted trainer and it still learns.
func TestBudgetMS2Composes(t *testing.T) {
	bench, prov := budgetBench(t)
	pl := memplan.Plan(bench.Cfg, memplan.MS2, 0)
	cfg := Config{EnableMS2: true, WarmupEpochs: 3, MemoryBudget: pl.FullPeak / 4}
	tr := newTrainer(t, bench, cfg, 15)
	stats, err := tr.Run(context.Background(), prov, 8)
	if err != nil {
		t.Fatal(err)
	}
	skipped := false
	for _, st := range stats {
		if st.PeakStoredBytes > cfg.MemoryBudget {
			t.Fatalf("epoch %d peak %d B exceeds budget %d B", st.Epoch, st.PeakStoredBytes, cfg.MemoryBudget)
		}
		if st.SkipFrac > 0 {
			skipped = true
		}
	}
	if !skipped {
		t.Fatal("MS2 never skipped under budget")
	}
	if stats[len(stats)-1].MeanLoss >= stats[0].MeanLoss {
		t.Fatal("budgeted MS2 trainer failed to learn")
	}
}
