package corpus

import (
	"context"
	"strings"
	"testing"

	"etalstm/internal/core"
	"etalstm/internal/model"
	"etalstm/internal/rng"
	"etalstm/internal/train"
)

const sample = `the quick brown fox jumps over the lazy dog. ` +
	`the quick brown fox jumps over the lazy dog. ` +
	`the quick brown fox jumps over the lazy dog. ` +
	`the quick brown fox jumps over the lazy dog.`

func load(t *testing.T) *Corpus {
	t.Helper()
	c, err := Load(strings.NewReader(sample), 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLoadValidation(t *testing.T) {
	if _, err := Load(strings.NewReader("x"), 8, 1); err == nil {
		t.Fatal("expected error for tiny corpus")
	}
	if _, err := Load(strings.NewReader("hello"), 0, 1); err == nil {
		t.Fatal("expected error for zero embed dim")
	}
}

func TestProviderShapes(t *testing.T) {
	c := load(t)
	cfg := c.Config(16, 2, 10, 4)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	prov, err := c.Provider(cfg, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if prov.NumBatches() != 3 {
		t.Fatal("batch count")
	}
	b := prov.Batch(0)
	if len(b.Inputs) != 10 || b.Inputs[0].Rows != 4 || b.Inputs[0].Cols != 12 {
		t.Fatalf("shapes: %v", b.Inputs[0])
	}
	// Targets are the next byte of the sampled window.
	for t0 := range b.Targets.Classes {
		for _, cls := range b.Targets.Classes[t0] {
			if cls < 0 || cls >= VocabSize {
				t.Fatalf("target %d out of range", cls)
			}
		}
	}
}

func TestProviderValidation(t *testing.T) {
	c := load(t)
	cfg := c.Config(16, 2, 10, 4)
	cfg.InputSize = 5
	if _, err := c.Provider(cfg, 1, 1); err == nil {
		t.Fatal("expected embed-dim mismatch error")
	}
	big := c.Config(16, 2, 100000, 4)
	if _, err := c.Provider(big, 1, 1); err == nil {
		t.Fatal("expected window-too-long error")
	}
}

func TestProviderDeterministic(t *testing.T) {
	c := load(t)
	cfg := c.Config(16, 2, 8, 2)
	p1, _ := c.Provider(cfg, 2, 5)
	p2, _ := c.Provider(cfg, 2, 5)
	if !p1.Batch(1).Inputs[3].Equal(p2.Batch(1).Inputs[3], 0) {
		t.Fatal("same seed must reproduce batches")
	}
}

// TestByteLMLearns: a byte-level model must learn the repetitive sample
// text quickly — loss well below the ~5.55 nats of uniform guessing.
func TestByteLMLearns(t *testing.T) {
	c := load(t)
	cfg := c.Config(32, 2, 12, 8)
	prov, err := c.Provider(cfg, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	net, err := model.NewNetwork(cfg, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	tr := core.New(net, &train.Adam{LR: 0.01}, 5, core.Config{})
	stats, err := tr.Run(context.Background(), prov, 30)
	if err != nil {
		t.Fatal(err)
	}
	final := stats[len(stats)-1].MeanLoss
	if final >= stats[0].MeanLoss*0.5 || final > 3.2 {
		t.Fatalf("byte LM failed to learn: %v -> %v", stats[0].MeanLoss, final)
	}
}
