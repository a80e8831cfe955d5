package persist

import (
	"bytes"
	"testing"

	"etalstm/internal/model"
	"etalstm/internal/rng"
)

// FuzzLoad throws arbitrary bytes (seeded with a valid checkpoint) at
// the loader: it must never panic and must reject anything that is not
// a bit-exact checkpoint.
func FuzzLoad(f *testing.F) {
	cfg := model.Config{InputSize: 2, Hidden: 3, Layers: 1, SeqLen: 2,
		Batch: 1, OutSize: 2, Loss: model.SingleLoss}
	net, err := model.NewNetwork(cfg, rng.New(1))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, net); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("\xce\xb7LSTMv1\n garbage"))
	f.Add(craftedCheckpoint(1 << 40)) // sealed, but claims a huge hidden size

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Load(bytes.NewReader(data))
		if err != nil {
			return // rejection is the expected outcome for mutations
		}
		// Anything accepted must be a structurally valid network.
		if got == nil {
			t.Fatal("nil network with nil error")
		}
		if err := got.Cfg.Validate(); err != nil {
			t.Fatalf("accepted invalid config: %v", err)
		}
	})
}
