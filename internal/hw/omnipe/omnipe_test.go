package omnipe

import "testing"

// TestOmniPESmallerThanUnified reproduces the Sec. V-A resource claim:
// the Omni-PE is substantially smaller than a monolithic PE, which is
// what lets η-LSTM pack more PEs per fabric than LSTM-Inf.
func TestOmniPESmallerThanUnified(t *testing.T) {
	omni := Resources()
	unified := UnifiedPEResources()
	if omni.LUT >= unified.LUT || omni.FF >= unified.FF {
		t.Fatalf("Omni-PE must be smaller: %+v vs %+v", omni, unified)
	}
	ratio := float64(unified.LUT) / float64(omni.LUT)
	if ratio < 1.5 || ratio > 3 {
		t.Fatalf("unified/omni LUT ratio %.2f outside the plausible band", ratio)
	}
	if omni.TotalPower() >= unified.TotalPower() {
		t.Fatal("Omni-PE must draw less power")
	}
}
