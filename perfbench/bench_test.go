package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"etalstm"
)

// runsLayer lists, per workload, the per-layer metrics (by name or by
// layer prefix) its traced run must measure: every layer the workload
// runs. The others may read 0.
var runsLayer = map[string][]string{
	"train_dense": {"tensor.", "lstm.fw_cell_us", "lstm.bp_cell_us", "model.fw_ms", "model.bp_ms",
		"memplan.plan_ms", "train.", "core.", "bench.machine_gflops"},
	"train_eta": {"tensor.", "lstm.fw_p1_cell_us", "lstm.encode_p1_us", "lstm.bp_sparse_cell_us",
		"lstm.recompute_cell_us", "model.ckpt_fw_ms", "model.ckpt_bp_ms", "model.recompute_ratio",
		"model.stored_mb_peak", "reorder.", "skip.", "memplan.", "train.", "core.", "bench.machine_gflops"},
	"train_sync": {"tensor.", "lstm.fw_cell_us", "lstm.bp_cell_us", "model.fw_ms", "model.bp_ms",
		"memplan.plan_ms", "train.", "core.", "dist.reduce_ms_p50", "dist.reduce_ms_p90",
		"dist.wire_kb_per_step", "compress.", "bench.machine_gflops"},
	"serve_mixed": {"tensor.", "lstm.infer_cell_us", "model.infer_batch_ms", "serve.mean_batch",
		"serve.lat_ms_p90", "serve.session_ms_p50", "serve.nominal_ms_p90", "serve.rps_at_slo",
		"serve.infer_ms_p50", "serve.http_us", "persist.", "bench.machine_gflops", "bench.gen_late_ms_max"},
}

// measured reports whether workload's traced run must measure metric.
func measured(workload, metric string) bool {
	for _, p := range runsLayer[workload] {
		if metric == p || (strings.HasSuffix(p, ".") && strings.HasPrefix(metric, p)) {
			return true
		}
	}
	return false
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks that each run passes its output checks and reports every
// metric BENCHMARK.json names, with its unit: every end-to-end metric
// above 0, and every layer metric of a layer the workload runs.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("trains and serves every workload for about two minutes")
	}
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				code := mainErr([]string{"--workload", name, "--seed", "7", "--seconds", "2",
					"--trace", trace, "--out", t.TempDir()}, &out, &errOut)
				if code != 0 {
					t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v, stderr: %s", res, errOut.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s = %+v (present %v), want unit %s", m.name, got, ok, m.unit)
					}
					if (trace == "0" || measured(name, m.name)) && !(got.Value > 0) {
						t.Errorf("metric %s = %v, want > 0", m.name, got.Value)
					}
				}
			})
		}
	}
}

// manifest is BENCHMARK.json, decoded loosely enough to check every
// rule of its schema.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds json.Number      `json:"run_seconds"`
	Workloads  []map[string]any `json:"workloads"`
	EndToEnd   []map[string]any `json:"end_to_end"`
	PerLayer   []map[string]any `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// keysAre reports whether m has exactly the given keys.
func keysAre(m map[string]any, keys ...string) bool {
	if len(m) != len(keys) {
		return false
	}
	for _, k := range keys {
		if _, ok := m[k]; !ok {
			return false
		}
	}
	return true
}

// TestManifestSchema validates BENCHMARK.json against the benchmark
// format: its key set, the limits on every field, and a run count that
// fits the time a full measurement may take.
func TestManifestSchema(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(b))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	if len(top) != len(want) {
		t.Errorf("top-level keys %d, want exactly %v", len(top), want)
	}
	for _, k := range want {
		if _, ok := top[k]; !ok {
			t.Errorf("missing top-level key %q", k)
		}
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}

	if len(m.Paths) < 1 || len(m.Paths) > 16 {
		t.Errorf("%d paths, want 1 to 16", len(m.Paths))
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || slices.Contains(strings.Split(p, "/"), "..") {
			t.Errorf("path %q is not a plain relative path", p)
		}
		if st, err := os.Stat(filepath.Join("..", p)); err != nil || !st.IsDir() {
			t.Errorf("path %q is not a directory of the repository", p)
		}
	}
	if len(m.Command) < 1 || len(m.Command) > 32 {
		t.Errorf("command has %d strings, want 1 to 32", len(m.Command))
	}
	for _, a := range m.Command {
		if len(a) > 200 || strings.HasPrefix(a, "/") || slices.Contains(strings.Split(a, "/"), "..") {
			t.Errorf("command argument %q is too long or leaves the repository", a)
		}
		if strings.Contains(a, "/") && !slices.ContainsFunc(m.Paths, func(p string) bool { return strings.HasPrefix(a, p+"/") }) {
			t.Errorf("command argument %q names a file outside paths", a)
		}
	}

	secs, err := m.RunSeconds.Int64()
	if err != nil || secs < 1 || secs > 60 {
		t.Errorf("run_seconds %v, want a whole number from 1 to 60", m.RunSeconds)
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(m.Workloads))
	}
	// A full measurement makes 4 + 22 runs per workload. All of them, at
	// the longest wall time a run was seen to take (the window plus
	// set-up, probes and checks), and two cold builds must fit in 3420 s.
	const runOverhead, buildSeconds = 5, 120
	if total := (4 + 22*len(m.Workloads)) * (int(secs) + runOverhead); total+2*buildSeconds > 3420 {
		t.Errorf("%d runs of %d s need about %d s, over the 3420 s a measurement may take",
			4+22*len(m.Workloads), secs+runOverhead, total+2*buildSeconds)
	}

	seen := map[string]bool{}
	name := func(kind string, v any) string {
		n, _ := v.(string)
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("%s name %q is malformed or used twice", kind, n)
		}
		seen[n] = true
		return n
	}
	for _, w := range m.Workloads {
		if !keysAre(w, "name", "why") {
			t.Errorf("workload %v: want exactly name and why", w)
		}
		name("workload", w["name"])
		why, _ := w["why"].(string)
		if why == "" || len(why) > 200 || strings.ContainsAny(why, "\r\n") {
			t.Errorf("workload %v: why must be one line of at most 200 characters", w["name"])
		}
	}
	metric := func(kind string, e map[string]any) {
		n := name(kind, e["name"])
		if u, _ := e["unit"].(string); !unitRE.MatchString(u) {
			t.Errorf("%s %s: unit %q is malformed", kind, n, u)
		}
		if b := e["better"]; b != "higher" && b != "lower" {
			t.Errorf("%s %s: better %v, want higher or lower", kind, n, b)
		}
	}
	if len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", len(m.EndToEnd))
	}
	setup := false
	maxBound := 0.0
	for _, e := range m.EndToEnd {
		if !keysAre(e, "name", "unit", "better", "bound") {
			t.Errorf("end-to-end %v: want exactly name, unit, better and bound", e["name"])
		}
		metric("end-to-end", e)
		bound, err := e["bound"].(json.Number).Float64()
		if err != nil || bound <= 0 || bound > 0.25 {
			t.Errorf("end-to-end %v: bound %v, want above 0 and at most 0.25", e["name"], e["bound"])
		}
		maxBound = math.Max(maxBound, bound)
		if e["name"] == "setup_s" {
			setup = e["unit"] == "s" && e["better"] == "lower"
			if bound < maxBound {
				t.Errorf("setup_s bound %v is not the largest", bound)
			}
		}
	}
	if !setup {
		t.Error("no end-to-end setup_s metric with unit s and better lower")
	}
	if len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", len(m.PerLayer))
	}
	for _, e := range m.PerLayer {
		if !keysAre(e, "name", "unit", "better") {
			t.Errorf("per-layer %v: want exactly name, unit and better", e["name"])
		}
		metric("per-layer", e)
	}

	// The manifest's lists are the ones the runs report, in order.
	same := func(kind string, got []map[string]any, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest lists %d metrics, runs report %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i]["name"] != want[i].name || got[i]["unit"] != want[i].unit {
				t.Errorf("%s[%d]: manifest %v %v, runs report %+v", kind, i, got[i]["name"], got[i]["unit"], want[i])
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
	if len(m.Workloads) != len(workloads) {
		t.Errorf("manifest lists %d workloads, the benchmark runs %d", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		if _, ok := workloads[w["name"].(string)]; !ok {
			t.Errorf("manifest workload %q is not run", w["name"])
		}
	}
}

func newTestRun() *run { return &run{metrics: map[string]metric{}} }

// TestCorruptServeOutputFails shows a reply that differs from offline
// inference in one bit fails the run, and that the same replies
// uncorrupted pass.
func TestCorruptServeOutputFails(t *testing.T) {
	in := newServeInputs(3)
	net, err := etalstm.NewNetwork(in.cfg, netSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	want, err := etalstm.Infer(net, in.stateless[:4])
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(nil, in)
	ss := c.sessions[0]
	ss.sent = ss.stream[:12]
	replay, err := etalstm.Infer(net, [][][]float32{ss.sent})
	if err != nil {
		t.Fatal(err)
	}
	ss.last = replay[0].Output
	samples := make([]sample, len(want))
	for i := range samples {
		samples[i] = sample{session: -1, req: i, out: append([]float32(nil), want[i].Output...)}
	}
	r := newTestRun()
	if err := checkOutputs(r, net, in, samples, c.sessions); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("clean replies failed: %v", r.problems)
	}
	samples[2].out[0] = math.Float32frombits(math.Float32bits(samples[2].out[0]) ^ 1)
	r = newTestRun()
	if err := checkOutputs(r, net, in, samples, c.sessions); err != nil {
		t.Fatal(err)
	}
	if r.failed != 1 {
		t.Fatalf("corrupted reply: %d failed checks, want 1 (%v)", r.failed, r.problems)
	}
	res := result{Correct: r.failed == 0}
	if res.Correct {
		t.Fatal("a run with a failed check reported correct")
	}
}

// TestDivergedWorkersFail shows workers whose weights differ in one
// value fail the lockstep check.
func TestDivergedWorkersFail(t *testing.T) {
	cfg := syncJob().bench.Cfg
	a, err := etalstm.NewNetwork(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := etalstm.NewNetwork(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	r := newTestRun()
	checkSync(r, []*etalstm.Network{a, b})
	if r.failed != 0 {
		t.Fatalf("identical workers failed: %v", r.problems)
	}
	w := b.Layer[1].U[2].Data
	w[7] = math.Nextafter32(w[7], 1)
	r = newTestRun()
	checkSync(r, []*etalstm.Network{a, b})
	if r.failed != 1 {
		t.Fatalf("diverged workers: %d failed checks, want 1", r.failed)
	}
}

// TestBadArgumentsFail shows a run that cannot start prints no result
// and exits 2 with its cause on stderr.
func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "train_dense", "--trace", "2"},
		{"--workload", "train_dense", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		args = append(args, "--out", t.TempDir())
		if code := mainErr(args, &out, &errOut); code != 2 || out.Len() != 0 || errOut.Len() == 0 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2, nothing, a cause", args, code, out.String(), errOut.String())
		}
	}
}
