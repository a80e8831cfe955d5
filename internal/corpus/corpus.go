// Package corpus turns real text into LSTM training data: a byte-level
// tokenizer, a fixed embedding table, and chunked next-byte-prediction
// providers. It is the bridge from the synthetic Table I workloads to
// user-supplied corpora — the PTB-style language-modeling flow on any
// file.
package corpus

import (
	"fmt"
	"io"

	"etalstm/internal/model"
	"etalstm/internal/rng"
	"etalstm/internal/tensor"
	"etalstm/internal/train"
)

// VocabSize is the byte-level vocabulary (every possible byte).
const VocabSize = 256

// Corpus is tokenized text ready to batch.
type Corpus struct {
	tokens []byte
	emb    *tensor.Matrix // VocabSize×embedDim
}

// Load reads and tokenizes text from r. embedDim sets the input width;
// the embedding table is deterministic in seed (real pipelines learn
// it; a fixed random table keeps distinct bytes linearly separable,
// which is what the LSTM needs).
func Load(r io.Reader, embedDim int, seed uint64) (*Corpus, error) {
	if embedDim <= 0 {
		return nil, fmt.Errorf("corpus: embedDim %d must be positive", embedDim)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("corpus: reading text: %w", err)
	}
	if len(data) < 2 {
		return nil, fmt.Errorf("corpus: need at least 2 bytes of text, have %d", len(data))
	}
	emb := tensor.New(VocabSize, embedDim)
	emb.RandInit(rng.New(seed), 1)
	return &Corpus{tokens: data, emb: emb}, nil
}

// Len returns the token count.
func (c *Corpus) Len() int { return len(c.tokens) }

// EmbedDim returns the embedding width.
func (c *Corpus) EmbedDim() int { return c.emb.Cols }

// Config returns a model configuration for next-byte prediction over
// this corpus with the given unroll window and batch size.
func (c *Corpus) Config(hidden, layers, seqLen, batch int) model.Config {
	return model.Config{
		InputSize: c.EmbedDim(), Hidden: hidden, Layers: layers,
		SeqLen: seqLen, Batch: batch, OutSize: VocabSize,
		Loss: model.PerTimestampLoss,
	}
}

// Provider cuts the corpus into nBatches minibatches of batch parallel
// windows, each seqLen tokens, targets shifted by one (next-byte
// prediction). Windows are drawn at deterministic offsets so one epoch
// covers the text evenly.
func (c *Corpus) Provider(cfg model.Config, nBatches int, seed uint64) (train.Provider, error) {
	if cfg.InputSize != c.EmbedDim() {
		return nil, fmt.Errorf("corpus: config input %d != embed dim %d", cfg.InputSize, c.EmbedDim())
	}
	need := cfg.SeqLen + 1
	if c.Len() < need {
		return nil, fmt.Errorf("corpus: %d tokens < window %d", c.Len(), need)
	}
	r := rng.New(seed)
	p := &sliceProvider{}
	maxStart := c.Len() - need
	for b := 0; b < nBatches; b++ {
		xs := make([]*tensor.Matrix, cfg.SeqLen)
		tg := &model.Targets{Classes: make([][]int, cfg.SeqLen)}
		for t := range xs {
			xs[t] = tensor.New(cfg.Batch, cfg.InputSize)
			tg.Classes[t] = make([]int, cfg.Batch)
		}
		for i := 0; i < cfg.Batch; i++ {
			start := 0
			if maxStart > 0 {
				start = r.Intn(maxStart + 1)
			}
			for t := 0; t < cfg.SeqLen; t++ {
				tok := c.tokens[start+t]
				copy(xs[t].Row(i), c.emb.Row(int(tok)))
				tg.Classes[t][i] = int(c.tokens[start+t+1])
			}
		}
		p.batches = append(p.batches, train.Batch{Inputs: xs, Targets: tg})
	}
	return p, nil
}

type sliceProvider struct {
	batches []train.Batch
}

func (p *sliceProvider) NumBatches() int         { return len(p.batches) }
func (p *sliceProvider) Batch(i int) train.Batch { return p.batches[i] }
