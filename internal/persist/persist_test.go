package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"etalstm/internal/lstm"
	"etalstm/internal/model"
	"etalstm/internal/rng"
	"etalstm/internal/tensor"
)

func testNet(t *testing.T) *model.Network {
	t.Helper()
	cfg := model.Config{InputSize: 5, Hidden: 7, Layers: 2, SeqLen: 4,
		Batch: 3, OutSize: 6, Loss: model.PerTimestampLoss}
	net, err := model.NewNetwork(cfg, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestRoundtrip(t *testing.T) {
	net := testNet(t)
	var buf bytes.Buffer
	if err := Save(&buf, net); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cfg != net.Cfg {
		t.Fatalf("config: %+v vs %+v", got.Cfg, net.Cfg)
	}
	for l := range net.Layer {
		for g := lstm.Gate(0); g < lstm.NumGates; g++ {
			if !got.Layer[l].W[g].Equal(net.Layer[l].W[g], 0) {
				t.Fatalf("W[%d][%v] not exact", l, g)
			}
			if !got.Layer[l].U[g].Equal(net.Layer[l].U[g], 0) {
				t.Fatalf("U[%d][%v] not exact", l, g)
			}
			for j := range net.Layer[l].B[g] {
				if got.Layer[l].B[g][j] != net.Layer[l].B[g][j] {
					t.Fatalf("B[%d][%v][%d] not exact", l, g, j)
				}
			}
		}
	}
	if !got.Proj.Equal(net.Proj, 0) {
		t.Fatal("projection not exact")
	}
}

func TestRoundtripPreservesForward(t *testing.T) {
	net := testNet(t)
	var buf bytes.Buffer
	if err := Save(&buf, net); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	xs := make([]*tensor.Matrix, net.Cfg.SeqLen)
	for i := range xs {
		xs[i] = tensor.New(net.Cfg.Batch, net.Cfg.InputSize)
		xs[i].RandInit(r, 1)
	}
	a, err := net.Forward(xs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.Forward(xs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	last := net.Cfg.Layers - 1
	if !a.H[last][net.Cfg.SeqLen-1].Equal(b.H[last][net.Cfg.SeqLen-1], 0) {
		t.Fatal("loaded network computes differently")
	}
}

func TestBadMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, testNet(t)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[0] ^= 0xff
	// Fix the CRC so only the magic check fires.
	fixed := append([]byte{}, raw[:len(raw)-4]...)
	var out bytes.Buffer
	out.Write(fixed)
	crcOf(&out, fixed)
	_, err := Load(&out)
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("expected magic error, got %v", err)
	}
}

func TestVersionMismatchReported(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, testNet(t)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Rewrite the version token ("v2" -> "v9") and re-seal the CRC so
	// only the version check can fire.
	payload := append([]byte{}, raw[:len(raw)-4]...)
	payload[len(magicPrefix)+1] = '9'
	var out bytes.Buffer
	out.Write(payload)
	crcOf(&out, payload)
	_, err := Load(&out)
	if err == nil {
		t.Fatal("expected version error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"v9"`) || !strings.Contains(msg, `"v2"`) {
		t.Fatalf("version error %q does not name got (v9) and want (v2)", msg)
	}
}

func TestCheckConfig(t *testing.T) {
	base := model.Config{InputSize: 5, Hidden: 7, Layers: 2, SeqLen: 4,
		Batch: 3, OutSize: 6, Loss: model.PerTimestampLoss}
	if err := CheckConfig(base, base); err != nil {
		t.Fatalf("equal configs: %v", err)
	}
	got := base
	got.Hidden = 16
	got.Loss = model.SingleLoss
	err := CheckConfig(got, base)
	if err == nil {
		t.Fatal("expected mismatch error")
	}
	msg := err.Error()
	for _, want := range []string{"Hidden 16 (want 7)", "Loss", "mismatch"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("mismatch error %q missing %q", msg, want)
		}
	}
	// Matching fields stay out of the diff.
	if strings.Contains(msg, "InputSize") {
		t.Fatalf("mismatch error %q names a matching field", msg)
	}
}

// crcOf appends the IEEE CRC of payload to out.
func crcOf(out *bytes.Buffer, payload []byte) {
	sum := crc32.ChecksumIEEE(payload)
	out.Write([]byte{byte(sum), byte(sum >> 8), byte(sum >> 16), byte(sum >> 24)})
}

func TestCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, testNet(t)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0x01 // flip one payload bit
	_, err := Load(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("expected checksum error, got %v", err)
	}
}

func TestTruncationDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, testNet(t)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	_, err := Load(bytes.NewReader(raw[:len(raw)/2]))
	if err == nil {
		t.Fatal("expected error for truncated checkpoint")
	}
	_, err = Load(bytes.NewReader(raw[:4]))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("expected truncation error, got %v", err)
	}
}

func TestTrailingGarbageDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, testNet(t)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	payload := append([]byte{}, raw[:len(raw)-4]...)
	payload = append(payload, 0xde, 0xad)
	resealDigest(payload)
	var out bytes.Buffer
	out.Write(payload)
	crcOf(&out, payload)
	_, err := Load(&out)
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("expected trailing-bytes error, got %v", err)
	}
}

// resealDigest recomputes a v2 checkpoint's stored digest over its
// (possibly mutated) body so that only checks past the digest can fire.
func resealDigest(payload []byte) {
	sum := sha256.Sum256(payload[len(magic)+sha256.Size:])
	copy(payload[len(magic):], sum[:])
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.etalstm")
	net := testNet(t)
	if err := SaveFile(path, net); err != nil {
		t.Fatal(err)
	}
	// Atomic write: no temp file left behind.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cfg != net.Cfg {
		t.Fatal("file roundtrip config mismatch")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("expected error")
	}
}

// TestDigestRoundtrip pins the content-identity contract: Digest(net),
// the digest stored by Save, and the digests reported by every Load
// variant all agree, and saving twice yields the same digest.
func TestDigestRoundtrip(t *testing.T) {
	net := testNet(t)
	want, err := Digest(net)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 64 {
		t.Fatalf("digest %q is not hex SHA-256", want)
	}

	var buf bytes.Buffer
	if err := Save(&buf, net); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	got, digest, err := LoadDigest(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if digest != want {
		t.Fatalf("LoadDigest = %s, Digest = %s", digest, want)
	}
	if d2, err := Digest(got); err != nil || d2 != want {
		t.Fatalf("digest not stable across roundtrip: %s vs %s (%v)", d2, want, err)
	}

	var buf2 bytes.Buffer
	if err := Save(&buf2, net); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf2.Bytes()) {
		t.Fatal("Save is not deterministic")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.etalstm")
	if err := SaveFile(path, net); err != nil {
		t.Fatal(err)
	}
	if d, err := DigestFile(path); err != nil || d != want {
		t.Fatalf("DigestFile = %s (%v), want %s", d, err, want)
	}
	if _, d, err := LoadFileDigest(path); err != nil || d != want {
		t.Fatalf("LoadFileDigest = %s (%v), want %s", d, err, want)
	}
}

// TestV1BackCompat: a legacy v1 checkpoint (no digest field) still
// loads, and its computed digest equals the v2 digest of the same
// weights — the identity is stable across the version bump.
func TestV1BackCompat(t *testing.T) {
	net := testNet(t)
	got, digest, err := LoadDigest(bytes.NewReader(v1Of(t, net)))
	if err != nil {
		t.Fatalf("v1 checkpoint failed to load: %v", err)
	}
	if got.Cfg != net.Cfg {
		t.Fatal("v1 roundtrip config mismatch")
	}
	want, err := Digest(net)
	if err != nil {
		t.Fatal(err)
	}
	if digest != want {
		t.Fatalf("v1 digest %s != v2 digest %s for identical weights", digest, want)
	}
}

// v1Of frames net as a legacy v1 checkpoint: the v2 body without the
// digest field, under the v1 magic, CRC re-sealed.
func v1Of(t testing.TB, net *model.Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, net); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	v1 := append(append([]byte{}, magicV1...), raw[len(magic)+sha256.Size:len(raw)-4]...)
	var out bytes.Buffer
	out.Write(v1)
	crcOf(&out, v1)
	return out.Bytes()
}

// craftedCheckpoint returns a well-sealed v2 checkpoint (valid CRC and
// digest) whose header claims the given hidden size over a one-float
// body: 105 bytes whose header claims far more weights than they carry.
func craftedCheckpoint(hidden int64) []byte {
	body := make([]byte, headerBytes+4)
	for i, v := range []int64{1, hidden, 1, 1, 1, 1, int64(model.SingleLoss)} {
		binary.LittleEndian.PutUint64(body[8*i:], uint64(v))
	}
	sum := sha256.Sum256(body)
	pay := append(append(append([]byte{}, magic...), sum[:]...), body...)
	var out bytes.Buffer
	out.Write(pay)
	crcOf(&out, pay)
	return out.Bytes()
}

// TestLoadRejectsOversizedConfig: a checkpoint whose header implies
// more weights than the file carries is rejected before anything of
// the claimed size is allocated — 1<<40 overflows the weight count,
// 1<<20 implies a 16 TiB payload without overflowing.
func TestLoadRejectsOversizedConfig(t *testing.T) {
	for _, hidden := range []int64{1 << 40, 1 << 20} {
		raw := craftedCheckpoint(hidden)
		if len(raw) != 105 {
			t.Fatalf("crafted checkpoint is %d bytes, want 105", len(raw))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		net, err := Load(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("Hidden %d: loaded a %+v network from 105 bytes", hidden, net.Cfg)
		}
		if !strings.Contains(err.Error(), "implies more") {
			t.Fatalf("Hidden %d: err %v, want a payload-length error", hidden, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("Hidden %d: rejecting allocated %d bytes, want < 1 MiB", hidden, got)
		}
	}
}

// TestPayloadLenMatchesEncoder pins the length check, header plus four
// bytes per model.Config.ParamCount weight, to the bytes the encoder
// actually writes, across layer counts and widths.
func TestPayloadLenMatchesEncoder(t *testing.T) {
	for _, cfg := range []model.Config{
		{InputSize: 1, Hidden: 1, Layers: 1, SeqLen: 1, Batch: 1, OutSize: 1},
		{InputSize: 5, Hidden: 7, Layers: 2, SeqLen: 4, Batch: 3, OutSize: 6, Loss: model.PerTimestampLoss},
		{InputSize: 9, Hidden: 3, Layers: 4, SeqLen: 2, Batch: 1, OutSize: 2, Loss: model.RegressionLoss},
	} {
		net, err := model.NewNetwork(cfg, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := encode(&buf, net); err != nil {
			t.Fatal(err)
		}
		if n, ok := cfg.ParamCount(); !ok || headerBytes+4*n != buf.Len() {
			t.Fatalf("%+v: %d weights (ok %v) imply %d bytes, encoder wrote %d",
				cfg, n, ok, headerBytes+4*n, buf.Len())
		}
	}
}

// TestCorruptedDigestDetected is the negative test for the digest
// field: a flipped digest byte (CRC re-sealed so only the digest check
// can fire) must fail loudly, as must a mutated payload whose CRC was
// re-sealed but whose stored digest was not.
func TestCorruptedDigestDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, testNet(t)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip a byte inside the stored digest.
	p1 := append([]byte{}, raw[:len(raw)-4]...)
	p1[len(magic)+3] ^= 0x5a
	var out1 bytes.Buffer
	out1.Write(p1)
	crcOf(&out1, p1)
	if _, err := Load(&out1); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("expected digest-mismatch error for corrupted header, got %v", err)
	}

	// Flip a weight byte and re-seal only the CRC: the digest is now the
	// last line of defense.
	p2 := append([]byte{}, raw[:len(raw)-4]...)
	p2[len(p2)-5] ^= 0x5a
	var out2 bytes.Buffer
	out2.Write(p2)
	crcOf(&out2, p2)
	if _, err := Load(&out2); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("expected digest-mismatch error for mutated payload, got %v", err)
	}
}
