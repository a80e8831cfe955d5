// Package persist serializes trained networks to a compact, versioned
// binary format (little-endian, stdlib only). Checkpointing matters for
// the large-model training the paper targets: multi-day runs need
// restartable state, and the footprint experiments need identical
// weights across baseline and optimized flows.
//
// Format (version 2):
//
//	magic "ηLSTMv2\n" (9 bytes UTF-8) |
//	SHA-256 content digest (32 bytes) of everything after this field |
//	config (7 × int64: input, hidden, layers, seqLen, batch, out, loss) |
//	per layer: 4 gates × (W floats, U floats, B floats) |
//	projection floats | projection bias floats |
//	trailing CRC-32 (IEEE) of everything before it.
//
// The digest is the checkpoint's content identity: two files carrying
// the same config and weights share it bit for bit, which is what the
// fleet's checkpoint hot-swap uses to verify every replica converged on
// the same weights. Version 1 files (no digest field) still load; their
// digest is computed from the payload on the fly, so the identity is
// stable across the version bump.
package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"strings"

	"etalstm/internal/lstm"
	"etalstm/internal/model"
)

var (
	// magicPrefix identifies any η-LSTM checkpoint regardless of
	// version; the token between it and the terminating '\n' is the
	// format version, parsed separately so a version mismatch reports
	// got/want instead of a generic bad-magic error.
	magicPrefix = []byte("\xce\xb7LSTM") // "ηLSTM"
	version     = "v2"
	magic       = []byte(string(magicPrefix) + version + "\n")
	magicV1     = []byte(string(magicPrefix) + "v1\n")
)

// headerBytes is the payload's leading config section: 7 × int64.
const headerBytes = 7 * 8

// encBufSize is the encoder's fixed staging buffer.
const encBufSize = 8 << 10

// encode streams net's version-independent payload — config header,
// then every weight little-endian — to w through one fixed buffer. Save
// and Digest both go through it, so a stored digest and Digest(net)
// always hash the same bytes. The weights are net.Params(), which is
// already in payload order (per layer, per gate W, U, B; then the
// projection and its bias).
func encode(w io.Writer, net *model.Network) error {
	buf := make([]byte, encBufSize)
	cfg := net.Cfg
	for i, v := range [7]int{cfg.InputSize, cfg.Hidden, cfg.Layers,
		cfg.SeqLen, cfg.Batch, cfg.OutSize, int(cfg.Loss)} {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	n := headerBytes
	for _, f := range net.Params() {
		if n == len(buf) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			n = 0
		}
		binary.LittleEndian.PutUint32(buf[n:], math.Float32bits(f))
		n += 4
	}
	_, err := w.Write(buf[:n])
	return err
}

// Digest returns the hex SHA-256 content digest of net — the value a
// v2 checkpoint of net would carry in its header.
func Digest(net *model.Network) (string, error) {
	h := sha256.New()
	if err := encode(h, net); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Save writes net to w in the current (v2) format: one encoding pass
// into the digest, then one into w and the trailing CRC.
func Save(w io.Writer, net *model.Network) error {
	h := sha256.New()
	if err := encode(h, net); err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	if _, err := mw.Write(magic); err != nil {
		return err
	}
	if _, err := mw.Write(h.Sum(nil)); err != nil {
		return err
	}
	if err := encode(mw, net); err != nil {
		return err
	}
	// Trailing CRC of everything above, written directly (not hashed).
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// verifyRaw checks a checkpoint's framing (length, CRC, magic/version,
// digest) and returns the version-independent payload plus its hex
// digest: v2 verifies the stored digest against the payload, v1
// computes it on the fly.
func verifyRaw(raw []byte) (body []byte, digest string, err error) {
	if len(raw) < len(magic)+4 {
		return nil, "", fmt.Errorf("persist: checkpoint truncated (%d bytes)", len(raw))
	}
	pay, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(pay) != binary.LittleEndian.Uint32(trailer) {
		return nil, "", fmt.Errorf("persist: checksum mismatch (corrupt checkpoint)")
	}
	switch {
	case bytes.HasPrefix(pay, magic): // v2: stored digest, verified
		rest := pay[len(magic):]
		if len(rest) < sha256.Size {
			return nil, "", fmt.Errorf("persist: checkpoint truncated inside the digest header")
		}
		want, body := rest[:sha256.Size], rest[sha256.Size:]
		got := sha256.Sum256(body)
		if !bytes.Equal(want, got[:]) {
			return nil, "", fmt.Errorf("persist: content digest mismatch (header %s, payload %s)",
				hex.EncodeToString(want)[:12], hex.EncodeToString(got[:])[:12])
		}
		return body, hex.EncodeToString(want), nil
	case bytes.HasPrefix(pay, magicV1): // legacy v1: no digest field
		body := pay[len(magicV1):]
		sum := sha256.Sum256(body)
		return body, hex.EncodeToString(sum[:]), nil
	case bytes.HasPrefix(pay, magicPrefix):
		// An η-LSTM checkpoint, but not our version: extract the
		// version token (up to the '\n' terminator) and say exactly
		// what was found versus what this build reads.
		rest := pay[len(magicPrefix):]
		got := rest
		if nl := bytes.IndexByte(rest, '\n'); nl >= 0 && nl <= 16 {
			got = rest[:nl]
		} else if len(got) > 16 {
			got = got[:16]
		}
		return nil, "", fmt.Errorf("persist: checkpoint format version %q, this build reads %q (and legacy \"v1\")", got, version)
	default:
		return nil, "", fmt.Errorf("persist: bad magic (not an η-LSTM checkpoint)")
	}
}

// parsePayload decodes the config+weights section shared by every
// format version. The body's length must be exactly what the config
// implies before anything is allocated, so a hostile header cannot make
// the loader reserve more memory than the file it came in.
func parsePayload(body []byte) (*model.Network, error) {
	if len(body) < headerBytes {
		return nil, fmt.Errorf("persist: reading header: %d of %d bytes", len(body), headerBytes)
	}
	var h [7]int
	for i := range h {
		h[i] = int(binary.LittleEndian.Uint64(body[8*i:]))
	}
	cfg := model.Config{
		InputSize: h[0], Hidden: h[1], Layers: h[2],
		SeqLen: h[3], Batch: h[4], OutSize: h[5], Loss: model.LossKind(h[6]),
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("persist: invalid checkpoint config: %w", err)
	}
	want, ok := payloadLen(cfg)
	switch {
	case !ok || want > uint64(len(body)):
		return nil, fmt.Errorf("persist: reading weights: config %+v implies more than the %d-byte payload",
			cfg, len(body))
	case want < uint64(len(body)):
		return nil, fmt.Errorf("persist: %d trailing bytes after weights", uint64(len(body))-want)
	}
	net, err := model.Alloc(cfg)
	if err != nil {
		return nil, err
	}
	p, ws := net.Params(), body[headerBytes:]
	for i := range p {
		p[i] = math.Float32frombits(binary.LittleEndian.Uint32(ws[4*i:]))
	}
	return net, nil
}

// payloadLen returns the payload length in bytes a validated cfg
// implies — header plus 4 bytes per weight — with ok false when the
// count overflows. Per layer: 4 gates × (in·H + H·H + H), in being
// InputSize for layer 0 and H above it; then H·Out + Out for the
// projection.
func payloadLen(cfg model.Config) (n uint64, ok bool) {
	ok = true
	mul := func(a, b uint64) uint64 {
		hi, lo := bits.Mul64(a, b)
		ok = ok && hi == 0
		return lo
	}
	add := func(a, b uint64) uint64 {
		sum, carry := bits.Add64(a, b, 0)
		ok = ok && carry == 0
		return sum
	}
	in, h := uint64(cfg.InputSize), uint64(cfg.Hidden)
	layers, out := uint64(cfg.Layers), uint64(cfg.OutSize)
	gates := uint64(lstm.NumGates)
	first := mul(mul(gates, h), add(add(in, h), 1))
	upper := mul(mul(layers-1, mul(gates, h)), add(mul(2, h), 1))
	proj := mul(out, add(h, 1))
	floats := add(add(first, upper), proj)
	return add(headerBytes, mul(4, floats)), ok
}

// Load reads a network from r, verifying the trailing checksum (and,
// for v2 checkpoints, the content digest).
func Load(r io.Reader) (*model.Network, error) {
	net, _, err := LoadDigest(r)
	return net, err
}

// LoadDigest is Load plus the checkpoint's hex SHA-256 content digest.
func LoadDigest(r io.Reader) (*model.Network, string, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, "", fmt.Errorf("persist: reading checkpoint: %w", err)
	}
	return loadRaw(raw)
}

// loadRaw verifies a whole checkpoint's framing and decodes its network.
func loadRaw(raw []byte) (*model.Network, string, error) {
	body, digest, err := verifyRaw(raw)
	if err != nil {
		return nil, "", err
	}
	net, err := parsePayload(body)
	if err != nil {
		return nil, "", err
	}
	return net, digest, nil
}

// CheckConfig compares a loaded checkpoint's geometry against what the
// caller expects and reports every differing field by name with its
// got/want values — "geometry mismatch" with two %+v dumps makes the
// reader diff seven fields by eye; this does the diff for them.
func CheckConfig(got, want model.Config) error {
	if got == want {
		return nil
	}
	type field struct {
		name      string
		got, want any
	}
	var diffs []string
	for _, f := range []field{
		{"InputSize", got.InputSize, want.InputSize},
		{"Hidden", got.Hidden, want.Hidden},
		{"Layers", got.Layers, want.Layers},
		{"SeqLen", got.SeqLen, want.SeqLen},
		{"Batch", got.Batch, want.Batch},
		{"OutSize", got.OutSize, want.OutSize},
		{"Loss", got.Loss, want.Loss},
	} {
		if f.got != f.want {
			diffs = append(diffs, fmt.Sprintf("%s %v (want %v)", f.name, f.got, f.want))
		}
	}
	return fmt.Errorf("persist: checkpoint config mismatch: %s", strings.Join(diffs, ", "))
}

// SaveFile writes net to path atomically (temp file + rename).
func SaveFile(path string, net *model.Network) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := Save(f, net); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile reads a network from path.
func LoadFile(path string) (*model.Network, error) {
	net, _, err := LoadFileDigest(path)
	return net, err
}

// LoadFileDigest reads a network and its content digest from path.
func LoadFileDigest(path string) (*model.Network, string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	return loadRaw(raw)
}

// DigestFile returns the content digest of the checkpoint at path after
// verifying its framing, without constructing the network — how the
// router learns what digest a checkpoint should land as before rolling
// it across the fleet.
func DigestFile(path string) (string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	_, digest, err := verifyRaw(raw)
	return digest, err
}
