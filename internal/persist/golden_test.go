package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
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
