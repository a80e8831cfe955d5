package etalstm

import (
	"context"
	"errors"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	bench, err := BenchmarkByName("IMDB")
	if err != nil {
		t.Fatal(err)
	}
	small := bench.Scaled(64, 12, 8)
	net, err := NewNetwork(small.Cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrainer(net, Combined, TrainerOptions{Workers: 1})
	stats, err := tr.Run(context.Background(), small.Provider(3, 1), 8)
	if err != nil {
		t.Fatal(err)
	}
	if stats[len(stats)-1].MeanLoss >= stats[0].MeanLoss {
		t.Fatal("quickstart flow failed to learn")
	}
	if tr.Mode() != Combined {
		t.Fatal("mode")
	}
	loss, acc, err := Evaluate(net, small.Provider(2, 2))
	if err != nil || loss <= 0 {
		t.Fatalf("evaluate: %v %v", loss, err)
	}
	_ = acc
}

func TestAllModesTrain(t *testing.T) {
	bench, _ := BenchmarkByName("PTB")
	small := bench.Scaled(64, 10, 8)
	for _, mode := range []Mode{Baseline, MS1, MS2, Combined} {
		net, err := NewNetwork(small.Cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		tr := NewTrainer(net, mode, TrainerOptions{Workers: 1})
		stats, err := tr.Run(context.Background(), small.Provider(3, 3), 6)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if stats[len(stats)-1].MeanLoss >= stats[0].MeanLoss {
			t.Fatalf("%v failed to learn", mode)
		}
	}
}

func TestModeStrings(t *testing.T) {
	for m, want := range map[Mode]string{
		Baseline: "Baseline", MS1: "MS1", MS2: "MS2", Combined: "Combine-MS",
	} {
		if m.String() != want {
			t.Fatalf("%v", m)
		}
	}
}

func TestBenchmarksExposed(t *testing.T) {
	if len(Benchmarks()) != 6 {
		t.Fatal("six Table I benchmarks expected")
	}
	if _, err := BenchmarkByName("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestFootprintAndMovementShrink(t *testing.T) {
	bench, _ := BenchmarkByName("BABI")
	base := Analyze(bench.Cfg, Baseline).Footprint
	comb := Analyze(bench.Cfg, Combined).Footprint
	if comb.Total() >= base.Total() {
		t.Fatal("combined footprint must shrink")
	}
	mb := Analyze(bench.Cfg, Baseline).Movement
	mc := Analyze(bench.Cfg, Combined).Movement
	if mc.Total() >= mb.Total() {
		t.Fatal("combined movement must shrink")
	}
	if mc.Intermediates >= mb.Intermediates/2 {
		t.Fatal("intermediate movement should shrink dramatically (paper: -80%)")
	}
}

func TestTrainerFootprintUsesMeasuredPoint(t *testing.T) {
	bench, _ := BenchmarkByName("IMDB")
	small := bench.Scaled(64, 10, 8)
	net, _ := NewNetwork(small.Cfg, 5)
	tr := NewTrainer(net, Combined, TrainerOptions{})
	if _, err := tr.Run(context.Background(), small.Provider(2, 9), 5); err != nil {
		t.Fatal(err)
	}
	fp := tr.Analyze().Footprint
	base := Analyze(small.Cfg, Baseline).Footprint
	if fp.Total() >= base.Total() {
		t.Fatal("measured combined footprint must beat baseline")
	}
}

func TestCompareScenarios(t *testing.T) {
	bench, _ := BenchmarkByName("WMT")
	cs := CompareScenarios(bench.Cfg)
	if len(cs) != 8 {
		t.Fatalf("scenario count: %d", len(cs))
	}
	if cs[ScenarioEtaLSTM].Speedup <= cs[ScenarioBaseline].Speedup {
		t.Fatal("η-LSTM must beat the baseline")
	}
}

func TestRunExperiment(t *testing.T) {
	rep, err := RunExperiment("table3", ExperimentOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "table3" {
		t.Fatal("wrong report")
	}
	_, err = RunExperiment("nope", ExperimentOptions{})
	var ue *UnknownExperimentError
	if !errors.As(err, &ue) || ue.ID != "nope" {
		t.Fatalf("expected UnknownExperimentError, got %v", err)
	}
}

func TestCheckpointRoundtrip(t *testing.T) {
	bench, _ := BenchmarkByName("PTB")
	small := bench.Scaled(64, 8, 4)
	net, _ := NewNetwork(small.Cfg, 11)
	tr := NewTrainer(net, MS1, TrainerOptions{})
	if _, err := tr.Run(context.Background(), small.Provider(2, 1), 3); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/ckpt"
	if err := SaveNetwork(path, net); err != nil {
		t.Fatal(err)
	}
	got, err := LoadNetwork(path)
	if err != nil {
		t.Fatal(err)
	}
	// Loaded network evaluates identically.
	l1, a1, _ := Evaluate(net, small.Provider(1, 2))
	l2, a2, _ := Evaluate(got, small.Provider(1, 2))
	if l1 != l2 || a1 != a2 {
		t.Fatalf("checkpoint changed behaviour: %v/%v vs %v/%v", l1, a1, l2, a2)
	}
}

func TestExperimentIDsStable(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 18 {
		t.Fatalf("experiment ids: %v", ids)
	}
}
