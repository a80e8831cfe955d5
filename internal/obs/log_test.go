package obs

import (
	"strings"
	"testing"
	"time"
)

// TestLoggerOutput pins the structured-log shape: slog text format,
// With-attrs on every record, trace_id stamped by WithTrace, and the
// three levels.
func TestLoggerOutput(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb)
	l.Info("request done", "status", 200)
	l.Warn("slow sweep", "ms", 12)
	l.Error("sweep failed", "err", "boom")
	out := sb.String()
	for _, want := range []string{
		"level=INFO", "level=WARN", "level=ERROR",
		`msg="request done"`, "status=200", "err=boom",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("log output lacks %q:\n%s", want, out)
		}
	}

	sb.Reset()
	l.With("replica", "a").WithTrace("cafe01").Info("routed")
	if out := sb.String(); !strings.Contains(out, "replica=a") || !strings.Contains(out, "trace_id=cafe01") {
		t.Fatalf("With/WithTrace attrs missing:\n%s", out)
	}

	// An empty trace id leaves the logger unchanged (no empty attr).
	sb.Reset()
	l.WithTrace("").Info("untraced")
	if out := sb.String(); strings.Contains(out, "trace_id") {
		t.Fatalf("empty trace id produced a trace_id attr:\n%s", out)
	}
}

// TestLoggerNilSafe: every method on a nil *Logger is a no-op, which
// is what library code relies on when no logger is installed.
func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Info("dropped")
	l.Warn("dropped")
	l.Error("dropped")
	if l.With("k", "v") != nil {
		t.Fatal("nil.With must stay nil")
	}
	if l.WithTrace("cafe") != nil {
		t.Fatal("nil.WithTrace must stay nil")
	}
}

// TestRecorderSnapshotDelta: two snapshots bracketing recorded work
// delta into exactly that work, nil recorders snapshot to zero, and
// the snapshot counts spans per phase.
func TestRecorderSnapshotDelta(t *testing.T) {
	var r Recorder
	sp := r.Begin(PhaseFW)
	time.Sleep(time.Millisecond)
	sp.End()
	before := r.Snapshot()

	sp = r.Begin(PhaseOptimizer)
	time.Sleep(time.Millisecond)
	sp.End()
	d := r.Snapshot().Delta(before)

	if d.N[PhaseFW] != 0 || d.Ns[PhaseFW] != 0 {
		t.Fatalf("delta leaked pre-snapshot FW work: %+v", d)
	}
	if d.N[PhaseOptimizer] != 1 || d.Ns[PhaseOptimizer] <= 0 {
		t.Fatalf("delta missed the optimizer span: %+v", d)
	}
	if n := r.Snapshot().N; n[PhaseFW] != 1 || n[PhaseOptimizer] != 1 {
		t.Fatalf("span counts: FW=%d Opt=%d", n[PhaseFW], n[PhaseOptimizer])
	}

	var nilRec *Recorder
	if s := nilRec.Snapshot(); s != (PhaseSnapshot{}) {
		t.Fatalf("nil recorder snapshot: %+v", s)
	}
	if nilRec.Snapshot().N[PhaseFW] != 0 {
		t.Fatal("nil recorder observed something")
	}
}

// TestNewDist registers the gradient-sync instruments.
func TestNewDist(t *testing.T) {
	r := NewRegistry()
	d := NewDist(r)
	d.Steps.Inc()
	d.WireBytes.Add(100)
	d.DenseBytes.Add(400)
	d.Compression.Set(4)
	snap := r.Snapshot()
	if snap[MetricDistSteps] != 1 || snap[MetricDistWireBytes] != 100 || snap[MetricDistCompression] != 4 {
		t.Fatalf("dist instruments not registered: %+v", snap)
	}
}
