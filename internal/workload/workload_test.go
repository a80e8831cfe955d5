package workload

import (
	"context"
	"testing"

	"etalstm/internal/core"
	"etalstm/internal/model"
	"etalstm/internal/rng"
	"etalstm/internal/train"
)

func TestSuiteMatchesTableI(t *testing.T) {
	want := []struct {
		name           string
		hidden, ln, ll int
		loss           model.LossKind
	}{
		{"TREC-10", 3072, 2, 18, model.SingleLoss},
		{"PTB", 1536, 4, 35, model.PerTimestampLoss},
		{"IMDB", 2048, 3, 100, model.SingleLoss},
		{"WAYMO", 1024, 3, 128, model.RegressionLoss},
		{"WMT", 1024, 4, 151, model.PerTimestampLoss},
		{"BABI", 1280, 5, 303, model.SingleLoss},
	}
	suite := Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite size %d", len(suite))
	}
	for i, w := range want {
		b := suite[i]
		if b.Name != w.name || b.Cfg.Hidden != w.hidden || b.Cfg.Layers != w.ln ||
			b.Cfg.SeqLen != w.ll || b.Cfg.Loss != w.loss {
			t.Errorf("benchmark %d: got %+v want %+v", i, b, w)
		}
		if err := b.Cfg.Validate(); err != nil {
			t.Errorf("%s config invalid: %v", b.Name, err)
		}
		if b.Cfg.Batch != 128 {
			t.Errorf("%s: paper batch size is 128", b.Name)
		}
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("PTB")
	if err != nil || b.Task != LanguageModeling {
		t.Fatalf("ByName(PTB): %v %v", b, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown name")
	}
}

func TestScaled(t *testing.T) {
	b, _ := ByName("BABI")
	s := b.Scaled(32, 20, 8)
	if s.Cfg.Hidden != 1280/32 || s.Cfg.SeqLen != 20 || s.Cfg.Batch != 8 {
		t.Fatalf("Scaled: %+v", s.Cfg)
	}
	if s.Cfg.Loss != b.Cfg.Loss || s.Cfg.Layers != b.Cfg.Layers {
		t.Fatal("Scaled must preserve loss topology and depth")
	}
	if s.Vocab > 64 || s.Cfg.OutSize > 64 {
		t.Fatal("Scaled must cap vocab")
	}
	if err := s.Cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestProviderShapes(t *testing.T) {
	for _, b := range Suite() {
		s := b.Scaled(64, 10, 4)
		prov := s.Provider(2, 1)
		if prov.NumBatches() != 2 {
			t.Fatalf("%s: NumBatches", b.Name)
		}
		batch := prov.Batch(0)
		if len(batch.Inputs) != s.Cfg.SeqLen {
			t.Fatalf("%s: %d input steps want %d", b.Name, len(batch.Inputs), s.Cfg.SeqLen)
		}
		for _, x := range batch.Inputs {
			if x.Rows != s.Cfg.Batch || x.Cols != s.Cfg.InputSize {
				t.Fatalf("%s: input shape %dx%d", b.Name, x.Rows, x.Cols)
			}
		}
		switch s.Cfg.Loss {
		case model.RegressionLoss:
			if len(batch.Targets.Regress) != s.Cfg.SeqLen {
				t.Fatalf("%s: regression targets", b.Name)
			}
		default:
			if len(batch.Targets.Classes) != s.Cfg.SeqLen {
				t.Fatalf("%s: class targets", b.Name)
			}
			for _, row := range batch.Targets.Classes {
				for _, c := range row {
					if c >= s.Cfg.OutSize {
						t.Fatalf("%s: class %d out of range", b.Name, c)
					}
				}
			}
		}
	}
}

func TestProviderDeterministic(t *testing.T) {
	b, _ := ByName("PTB")
	s := b.Scaled(64, 8, 4)
	p1 := s.Provider(1, 7)
	p2 := s.Provider(1, 7)
	b1, b2 := p1.Batch(0), p2.Batch(0)
	for t0 := range b1.Inputs {
		if !b1.Inputs[t0].Equal(b2.Inputs[t0], 0) {
			t.Fatal("same seed must reproduce inputs")
		}
	}
}

func TestProviderSeedsDiffer(t *testing.T) {
	b, _ := ByName("PTB")
	s := b.Scaled(64, 8, 4)
	b1 := s.Provider(1, 7).Batch(0)
	b2 := s.Provider(1, 8).Batch(0)
	if b1.Inputs[0].Equal(b2.Inputs[0], 1e-9) {
		t.Fatal("different seeds must differ")
	}
}

func TestSingleLossTargetsMasked(t *testing.T) {
	b, _ := ByName("IMDB")
	s := b.Scaled(64, 10, 4)
	batch := s.Provider(1, 1).Batch(0)
	for t0 := 0; t0 < s.Cfg.SeqLen-1; t0++ {
		for _, c := range batch.Targets.Classes[t0] {
			if c != -1 {
				t.Fatal("pre-final steps must be masked for single loss")
			}
		}
	}
	for _, c := range batch.Targets.Classes[s.Cfg.SeqLen-1] {
		if c < 0 || c >= s.Cfg.OutSize {
			t.Fatalf("final-step label %d", c)
		}
	}
}

// TestBenchmarksAreLearnable: every synthetic task must be learnable by
// its scaled model — the loss after a few epochs must drop measurably.
// This is what makes Fig. 6/8/Table II statistics meaningful.
func TestBenchmarksAreLearnable(t *testing.T) {
	for _, b := range Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			s := b.Scaled(64, 12, 8)
			prov := s.Provider(3, 11)
			net, err := model.NewNetwork(s.Cfg, rng.New(13))
			if err != nil {
				t.Fatal(err)
			}
			tr := core.New(net, &train.Adam{LR: 0.01}, 5, core.Config{})
			stats, err := tr.Run(context.Background(), prov, 8)
			if err != nil {
				t.Fatal(err)
			}
			first, last := stats[0].MeanLoss, stats[len(stats)-1].MeanLoss
			if last >= first*0.98 {
				t.Fatalf("task not learnable: %v -> %v", first, last)
			}
		})
	}
}

func TestFig3Sweeps(t *testing.T) {
	h := Fig3HiddenSweep()
	if len(h) != 5 || h[0].Label != "H256" || h[4].Cfg.Hidden != 3072 {
		t.Fatalf("hidden sweep: %+v", h)
	}
	for _, s := range h {
		if s.Cfg.Layers != 3 || s.Cfg.SeqLen != 35 {
			t.Fatal("hidden sweep must fix LN=3 LL=35")
		}
	}
	ln := Fig3LayerSweep()
	if len(ln) != 7 || ln[0].Cfg.Layers != 2 || ln[6].Cfg.Layers != 8 {
		t.Fatalf("layer sweep: %+v", ln)
	}
	ll := Fig3LengthSweep()
	if len(ll) != 5 || ll[4].Cfg.SeqLen != 303 {
		t.Fatalf("length sweep: %+v", ll)
	}
	all := AllFig3Sweeps()
	if len(all) != 17 {
		t.Fatalf("17 configs expected, got %d", len(all))
	}
}

func TestTaskString(t *testing.T) {
	if QuestionClassification.String() != "QC" || QuestionAnswering.String() != "QA" {
		t.Fatal("task strings")
	}
}
