package obs

import (
	"strings"
	"testing"
)

func TestLabeledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.CounterL("fleet_reqs_total", "per-replica requests", "replica", "http://a:1")
	b := r.CounterL("fleet_reqs_total", "per-replica requests", "replica", "http://b:2")
	if a == b {
		t.Fatal("different label values resolved to one counter")
	}
	a.Add(3)
	b.Inc()
	if a2 := r.CounterL("fleet_reqs_total", "", "replica", "http://a:1"); a2 != a {
		t.Fatal("same (name, label) did not upsert to the existing counter")
	}

	snap := r.Snapshot()
	if snap[`fleet_reqs_total{replica="http://a:1"}`] != 3 {
		t.Fatalf("snapshot missing labeled series a: %v", snap)
	}
	if snap[`fleet_reqs_total{replica="http://b:2"}`] != 1 {
		t.Fatalf("snapshot missing labeled series b: %v", snap)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if got := strings.Count(out, "# TYPE fleet_reqs_total counter"); got != 1 {
		t.Fatalf("family TYPE header emitted %d times, want 1:\n%s", got, out)
	}
	if !strings.Contains(out, `fleet_reqs_total{replica="http://a:1"} 3`) ||
		!strings.Contains(out, `fleet_reqs_total{replica="http://b:2"} 1`) {
		t.Fatalf("prometheus output missing labeled samples:\n%s", out)
	}
}

func TestLabeledGaugeAndFunc(t *testing.T) {
	r := NewRegistry()
	g := r.GaugeL("fleet_queue_depth", "scraped depth", "replica", "a")
	g.Set(7)
	r.GaugeFuncL("fleet_p99_ms", "per-replica p99", "replica", "a", func() float64 { return 2.5 })
	snap := r.Snapshot()
	if snap[`fleet_queue_depth{replica="a"}`] != 7 {
		t.Fatalf("labeled gauge missing: %v", snap)
	}
	if snap[`fleet_p99_ms{replica="a"}`] != 2.5 {
		t.Fatalf("labeled gauge func missing: %v", snap)
	}
}

// TestSetInfoReplacesLabel pins the hot-swap behavior: re-setting an
// info gauge replaces the label value in place instead of accumulating
// one stale series per checkpoint generation.
func TestSetInfoReplacesLabel(t *testing.T) {
	r := NewRegistry()
	r.SetInfo("ckpt_digest", "served checkpoint digest", "digest", "aaaa")
	r.SetInfo("ckpt_digest", "served checkpoint digest", "digest", "bbbb")

	snap := r.Snapshot()
	if snap[`ckpt_digest{digest="bbbb"}`] != 1 {
		t.Fatalf("info gauge not updated: %v", snap)
	}
	if _, stale := snap[`ckpt_digest{digest="aaaa"}`]; stale {
		t.Fatalf("stale info series survived relabel: %v", snap)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `ckpt_digest{digest="bbbb"} 1`) {
		t.Fatalf("prometheus output missing info sample:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "# TYPE ckpt_digest gauge") {
		t.Fatalf("info gauge not typed as gauge:\n%s", sb.String())
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.SetInfo("weird", "", "v", "a\"b\\c\nd")
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `weird{v="a\"b\\c\nd"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("escaped label %q missing from:\n%s", want, sb.String())
	}
}

func TestLabeledKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterL("x", "", "k", "v")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a labeled counter as a gauge did not panic")
		}
	}()
	r.GaugeL("x", "", "k", "v")
}

// TestInfoFuncLazy: an InfoFunc label is computed at export, not at
// registration, and a later registration under the name replaces it.
func TestInfoFuncLazy(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.InfoFunc("ckpt_digest", "served checkpoint digest", "digest", func() string {
		calls++
		return "cccc"
	})
	if calls != 0 {
		t.Fatalf("InfoFunc evaluated %d times at registration, want 0", calls)
	}
	if snap := r.Snapshot(); snap[`ckpt_digest{digest="cccc"}`] != 1 || calls != 1 {
		t.Fatalf("after one export: calls=%d snapshot=%v", calls, snap)
	}
	r.SetInfo("ckpt_digest", "", "digest", "dddd")
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); !strings.Contains(out, `ckpt_digest{digest="dddd"} 1`) ||
		strings.Contains(out, "cccc") || !strings.Contains(out, "# HELP ckpt_digest served checkpoint digest") {
		t.Fatalf("SetInfo did not replace the InfoFunc series:\n%s", out)
	}
}
