package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"etalstm/internal/model"
	"etalstm/internal/rng"
	"etalstm/internal/workload"
)

// Format goldens for testNet (seed 99): the SHA-256 of the whole Save
// output and the content digest it carries. They were recorded from the
// buffered-payload codec this package shipped before the streaming
// encoder, so any change to the on-disk bytes or to the digest fails
// here.
const (
	goldenSaveSHA = "e3feb2889b15dc0574adf834c0d1129c1201d12dedb260b3d2e71c5fdfa3df70"
	goldenDigest  = "dbdca648619cc5d88ef073964bda81ab9f6e83f0f8b1f5b69983484aff899d95"
)

func TestSaveBytesGolden(t *testing.T) {
	net := testNet(t)
	var buf bytes.Buffer
	if err := Save(&buf, net); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenSaveSHA {
		t.Errorf("Save output SHA-256 = %s, want %s (%d bytes)", got, goldenSaveSHA, buf.Len())
	}
	d, err := Digest(net)
	if err != nil {
		t.Fatal(err)
	}
	if d != goldenDigest {
		t.Errorf("Digest = %s, want %s", d, goldenDigest)
	}
	// The same weights framed as legacy v1 still load, under the same
	// identity.
	if _, d, err := LoadDigest(bytes.NewReader(v1Of(t, net))); err != nil || d != goldenDigest {
		t.Errorf("v1 load: digest %s (%v), want %s", d, err, goldenDigest)
	}
}

// TestNewNetworkDigest pins the weights NewNetwork draws at the three
// benchmark geometries (IMDB scaled as train_dense, train_sync and
// serve_mixed scale it). The digests were recorded before weight
// initialisation moved to one streaming generator pass, so a change to
// the draw order, the rounding of a draw or the parameter layout fails
// here.
func TestNewNetworkDigest(t *testing.T) {
	imdb, err := workload.ByName("IMDB")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name                  string
		hiddenDiv, seq, batch int
		seed                  uint64
		want                  string
	}{
		{"train_dense", 32, 100, 16, 1, "118badb1da71fa3eb23178dc00966a15aa2d7f8dbbbf3afb234fd1b13c02f691"},
		{"train_sync", 32, 16, 4, 2, "64d802ead985eecd813ecbc7b39f651f36b5b170c361a1c3b433f6bd014c499a"},
		{"serve_mixed", 32, 64, 16, 3, "e0f16fc54ac6f84adcb4c8fb7a8f9cede902d9962af46cce453fb028e0de1b61"},
	} {
		cfg := imdb.Scaled(c.hiddenDiv, c.seq, c.batch).Cfg
		net, err := model.NewNetwork(cfg, rng.New(c.seed))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Digest(net)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s: Digest(NewNetwork(%+v, %d)) = %s, want %s", c.name, cfg, c.seed, got, c.want)
		}
	}
}
