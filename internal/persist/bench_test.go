package persist

import (
	"path/filepath"
	"testing"

	"etalstm/internal/model"
	"etalstm/internal/rng"
)

// benchNet is a serving-sized network: about 0.9 MB of weights.
func benchNet(tb testing.TB) *model.Network {
	tb.Helper()
	cfg := model.Config{InputSize: 64, Hidden: 128, Layers: 2, SeqLen: 32,
		Batch: 1, OutSize: 16, Loss: model.SingleLoss}
	net, err := model.NewNetwork(cfg, rng.New(5))
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

func BenchmarkLoadFile(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.ckpt")
	if err := SaveFile(path, benchNet(b)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDigest(b *testing.B) {
	net := benchNet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Digest(net); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDigestAllocsFlat: Digest streams the payload through a fixed
// buffer, so its allocation count is the same for a toy network and
// one a thousand times larger.
func TestDigestAllocsFlat(t *testing.T) {
	allocs := func(net *model.Network) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := Digest(net); err != nil {
				t.Fatal(err)
			}
		})
	}
	sn, ln := testNet(t), benchNet(t)
	if small, large := allocs(sn), allocs(ln); large != small {
		t.Fatalf("Digest allocations grow with size: %v for %d floats, %v for %d",
			small, len(sn.Params()), large, len(ln.Params()))
	}
}
