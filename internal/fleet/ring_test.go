package fleet

import (
	"fmt"
	"strconv"
	"testing"
)

func TestRingBasics(t *testing.T) {
	r := NewRing(0)
	if got := r.Lookup("k"); got != "" {
		t.Fatalf("empty ring Lookup = %q, want \"\"", got)
	}
	if got := r.LookupN("k", 2); got != nil {
		t.Fatalf("empty ring LookupN = %v, want nil", got)
	}
	r.Add("a")
	r.Add("b")
	r.Add("c")
	r.Add("b") // duplicate add is a no-op
	if r.Size() != 3 {
		t.Fatalf("Size = %d, want 3", r.Size())
	}
	if !r.names["a"] || !r.names["b"] || !r.names["c"] || r.names["z"] {
		t.Fatalf("members = %v", r.names)
	}
	if got, again := r.Lookup("key-1"), r.Lookup("key-1"); got != again || got == "" {
		t.Fatalf("Lookup not deterministic: %q vs %q", got, again)
	}
	succ := r.LookupN("key-1", 3)
	if len(succ) != 3 {
		t.Fatalf("LookupN(3) = %v", succ)
	}
	if succ[0] != r.Lookup("key-1") {
		t.Fatal("LookupN[0] must be the owner")
	}
	seen := map[string]bool{}
	for _, m := range succ {
		if seen[m] {
			t.Fatalf("LookupN repeated member %q: %v", m, succ)
		}
		seen[m] = true
	}
	if got := r.LookupN("key-1", 10); len(got) != 3 {
		t.Fatalf("LookupN capped at member count: got %v", got)
	}
	r.Remove("z") // absent remove is a no-op
	r.Remove("b")
	if r.Size() != 2 || r.names["b"] {
		t.Fatalf("after Remove: size=%d has(b)=%v", r.Size(), r.names["b"])
	}
	for i := 0; i < 256; i++ {
		if got := r.Lookup("k" + strconv.Itoa(i)); got == "b" {
			t.Fatal("removed member still owns keys")
		}
	}
}

// TestRingConsistency pins the property that makes the hash
// *consistent*: removing one member reassigns only the keys that
// member owned — every other key keeps its replica — and re-adding it
// restores the original assignment exactly.
func TestRingConsistency(t *testing.T) {
	r := NewRing(0)
	members := []string{"r0", "r1", "r2", "r3", "r4"}
	for _, m := range members {
		r.Add(m)
	}
	const keys = 4096
	before := make([]string, keys)
	for i := range before {
		before[i] = r.Lookup("key-" + strconv.Itoa(i))
	}

	r.Remove("r2")
	for i := range before {
		got := r.Lookup("key-" + strconv.Itoa(i))
		if before[i] != "r2" && got != before[i] {
			t.Fatalf("key-%d moved %s -> %s though its owner r2 was not removed", i, before[i], got)
		}
		if before[i] == "r2" && got == "r2" {
			t.Fatalf("key-%d still owned by removed member", i)
		}
	}

	r.Add("r2")
	for i := range before {
		if got := r.Lookup("key-" + strconv.Itoa(i)); got != before[i] {
			t.Fatalf("key-%d: %s after re-add, want original %s", i, got, before[i])
		}
	}
}

// TestRingRemapBounded is the ISSUE acceptance bound: ejecting one of
// N members must remap at most 1.5/N of the key space.
func TestRingRemapBounded(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		before := NewRing(0)
		for i := 0; i < n; i++ {
			before.Add(fmt.Sprintf("replica-%d", i))
		}
		after := before.Clone()
		after.Remove("replica-0")
		frac := RemapFraction(before, after, 8192)
		bound := 1.5 / float64(n)
		if frac > bound {
			t.Errorf("N=%d: removing one member remapped %.4f of keys, bound %.4f", n, frac, bound)
		}
		// And it must actually remap the removed member's share — a
		// remap fraction near zero would mean the probe is vacuous.
		if frac < 0.5/float64(n) {
			t.Errorf("N=%d: remap fraction %.4f suspiciously low", n, frac)
		}
	}
}

// TestRingBalance checks virtual nodes spread load: with 8 members no
// member owns less than half or more than double its fair share.
func TestRingBalance(t *testing.T) {
	r := NewRing(0)
	const n = 8
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("replica-%d", i))
	}
	counts := map[string]int{}
	const keys = 8192
	for i := 0; i < keys; i++ {
		counts[r.Lookup("key-"+strconv.Itoa(i))]++
	}
	fair := float64(keys) / n
	for m, c := range counts {
		if float64(c) < fair/2 || float64(c) > fair*2 {
			t.Errorf("%s owns %d keys, fair share %.0f", m, c, fair)
		}
	}
	if len(counts) != n {
		t.Fatalf("only %d members own keys, want %d", len(counts), n)
	}
}

func TestRingClone(t *testing.T) {
	r := NewRing(16)
	r.Add("a")
	c := r.Clone()
	c.Add("b")
	if r.names["b"] || !c.names["b"] {
		t.Fatal("Clone is not independent")
	}
	if RemapFraction(r, r.Clone(), 1024) != 0 {
		t.Fatal("identical rings must remap nothing")
	}
}
