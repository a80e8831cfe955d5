package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"etalstm/internal/stats"
)

func run(t *testing.T, r Runner) *Report {
	t.Helper()
	rep, err := r(Options{Quick: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID == "" || rep.Title == "" || len(rep.Header) == 0 || len(rep.Rows) == 0 {
		t.Fatalf("report incomplete: %+v", rep)
	}
	for i, row := range rep.Rows {
		if len(row) != len(rep.Header) {
			t.Fatalf("row %d has %d cells, header %d", i, len(row), len(rep.Header))
		}
	}
	return rep
}

func cell(t *testing.T, rep *Report, rowLabel, col string) string {
	t.Helper()
	ci := -1
	for i, h := range rep.Header {
		if h == col {
			ci = i
		}
	}
	if ci < 0 {
		t.Fatalf("no column %q in %v", col, rep.Header)
	}
	for _, row := range rep.Rows {
		if row[0] == rowLabel {
			return row[ci]
		}
	}
	t.Fatalf("no row %q", rowLabel)
	return ""
}

func parse(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "x"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestFig3Reports(t *testing.T) {
	a := run(t, Fig3a)
	if len(a.Rows) != 5 {
		t.Fatalf("fig3a rows: %d", len(a.Rows))
	}
	b := run(t, Fig3b)
	// LN7/LN8 must print OOM for the RTX 5000.
	if cell(t, b, "LN7", "RTX TFLOPS") != "OOM" || cell(t, b, "LN8", "RTX TFLOPS") != "OOM" {
		t.Fatal("fig3b must mark LN7/LN8 OOM on the RTX 5000")
	}
	if cell(t, b, "LN6", "RTX TFLOPS") == "OOM" {
		t.Fatal("LN6 must train on the RTX 5000")
	}
	c := run(t, Fig3c)
	first := parse(t, cell(t, c, "LL18", "V100 TFLOPS"))
	last := parse(t, cell(t, c, "LL303", "V100 TFLOPS"))
	if last >= first {
		t.Fatal("fig3c: throughput must decline with layer length")
	}
}

func TestFig4Report(t *testing.T) {
	rep := run(t, Fig4)
	if len(rep.Rows) != 18 { // 17 configs + average
		t.Fatalf("fig4 rows: %d", len(rep.Rows))
	}
	avg := parse(t, cell(t, rep, "Ave", "interm/act"))
	if avg < 2.5 || avg > 5.5 {
		t.Fatalf("fig4 average ratio %.2f outside the Fig. 4 regime (~4.3)", avg)
	}
}

func TestFig5Report(t *testing.T) {
	rep := run(t, Fig5)
	ll303 := parse(t, cell(t, rep, "LL303", "intermediate"))
	if ll303 < 0.6 || ll303 > 0.85 {
		t.Fatalf("fig5 LL303 intermediate frac %.3f (paper max 74.01%%)", ll303)
	}
	h256 := parse(t, cell(t, rep, "H256", "intermediate"))
	if ll303 <= h256 {
		t.Fatal("intermediate share must grow with layer length")
	}
}

func TestFig6Report(t *testing.T) {
	rep := run(t, Fig6)
	// Every sampled epoch must show P1 more compressible than the raw
	// intermediates at the 0.1 threshold.
	var rawVals, p1Vals []float64
	for _, row := range rep.Rows {
		v := parse(t, row[3]) // P(|v|<0.1)
		if row[1] == "FW-intermediates" {
			rawVals = append(rawVals, v)
		} else {
			p1Vals = append(p1Vals, v)
		}
	}
	if len(rawVals) == 0 || len(rawVals) != len(p1Vals) {
		t.Fatalf("fig6 populations: %d/%d", len(rawVals), len(p1Vals))
	}
	for i := range rawVals {
		if p1Vals[i] <= rawVals[i] {
			t.Fatalf("epoch sample %d: P1 below-0.1 %.3f must exceed raw %.3f",
				i, p1Vals[i], rawVals[i])
		}
	}
	if stats.Mean(p1Vals) < 1.8*stats.Mean(rawVals) {
		t.Fatalf("P1 compressibility advantage too small: %.3f vs %.3f",
			stats.Mean(p1Vals), stats.Mean(rawVals))
	}
}

func TestFig8Report(t *testing.T) {
	rep := run(t, Fig8)
	trendOf := func(bench, layer string) string {
		for _, row := range rep.Rows {
			if row[0] == bench && row[1] == layer {
				return row[5]
			}
		}
		t.Fatalf("no row %s/%s", bench, layer)
		return ""
	}
	// IMDB (single loss): the loss-adjacent (top) layer decays from the
	// last timestamp backwards — magnitude increases with t.
	if got := trendOf("IMDB", "2"); got != "increasing with t" {
		t.Fatalf("IMDB top layer trend %q", got)
	}
	// WMT (per-timestamp loss): the first layer accumulates loss toward
	// the first cell — magnitude decreases with t.
	if got := trendOf("WMT", "0"); got != "decreasing with t" {
		t.Fatalf("WMT layer 0 trend %q", got)
	}
}

func TestFig11Report(t *testing.T) {
	rep := run(t, Fig11)
	if cell(t, rep, "8 (Fig.11 chart)", "total cycles") != "12" {
		t.Fatal("fig11: the 8-value chart must complete at cycle 12")
	}
	ov := parse(t, cell(t, rep, "1024", "overhead"))
	if ov >= 2.87 {
		t.Fatalf("fig11: 1024-input overhead %.2f%% >= 2.87%%", ov)
	}
}

func TestFig15Reports(t *testing.T) {
	a := run(t, Fig15a)
	eta := parse(t, cell(t, a, "Ave", "EtaLSTM"))
	if eta < 2.5 || eta > 4.5 {
		t.Fatalf("fig15a: η-LSTM average speedup %.2f (paper 3.99)", eta)
	}
	combine := parse(t, cell(t, a, "Ave", "Combine-MS"))
	if combine < 1.3 || combine > 1.9 {
		t.Fatalf("fig15a: Combine-MS average %.2f (paper 1.56)", combine)
	}
	b := run(t, Fig15b)
	etaE := parse(t, cell(t, b, "Ave", "EtaLSTM"))
	if etaE < 0.2 || etaE > 0.6 {
		t.Fatalf("fig15b: η-LSTM average energy %.2f (paper 0.363)", etaE)
	}
}

func TestFig16Report(t *testing.T) {
	rep := run(t, Fig16)
	for _, row := range rep.Rows {
		dyn := parse(t, row[4])
		if dyn <= 1 {
			t.Fatalf("%s: Dyn-Arch energy efficiency %.2f must beat baseline", row[0], dyn)
		}
	}
}

func TestFig17Report(t *testing.T) {
	rep := run(t, Fig17)
	// η-LSTM's intermediate-movement reduction must be the strongest
	// of its three categories on every benchmark (paper: −80 % vs
	// −41 %/−33 %).
	for _, row := range rep.Rows {
		if row[1] != "eta-LSTM" {
			continue
		}
		w, a, i := parse(t, row[2]), parse(t, row[3]), parse(t, row[4])
		// On TREC-10 (LL18) nothing is skippable, so MS1's weight and
		// intermediate reductions nearly tie; allow that margin.
		if i <= a || i < w-0.01 {
			t.Fatalf("%s: intermediates %.3f must dominate (w %.3f, a %.3f)", row[0], i, w, a)
		}
	}
}

func TestFig18Report(t *testing.T) {
	rep := run(t, Fig18)
	for _, row := range rep.Rows {
		ms1 := parse(t, row[2])
		comb := parse(t, row[4])
		// Equality is legitimate where MS2 finds nothing to skip
		// (TREC-10's 18-step layers).
		if comb > ms1 {
			t.Fatalf("%s: combined footprint %.3f must not exceed MS1's %.3f", row[0], comb, ms1)
		}
		if comb <= 0 || comb >= 1 {
			t.Fatalf("%s: combined normalized footprint %.3f", row[0], comb)
		}
	}
}

func TestTable2Report(t *testing.T) {
	rep := run(t, Table2)
	if len(rep.Rows) != 6 {
		t.Fatalf("table2 rows: %d", len(rep.Rows))
	}
	// Losses/metrics must be finite for every benchmark.
	for _, row := range rep.Rows {
		if row[2] == "n/a" || row[3] == "n/a" {
			t.Fatalf("%s: metric not computable", row[0])
		}
	}
}

func TestTable3Report(t *testing.T) {
	rep := run(t, Table3)
	if cell(t, rep, "Xilinx IP", "LUT") != "821" || cell(t, rep, "Our Design", "LUT") != "463" {
		t.Fatal("table3 LUT cells")
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{"fig11", "fig15a", "fig15b", "fig16", "fig17", "fig18",
		"fig3a", "fig3b", "fig3c", "fig4", "fig5", "fig6", "fig8", "gradsync",
		"scalability", "sparsebp", "table2", "table3"}
	if len(ids) != len(want) {
		t.Fatalf("registry: %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("registry ids: %v", ids)
		}
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{ID: "x", Title: "t", Header: []string{"a", "bb"}}
	rep.Add("1", "2")
	rep.Note("hello %d", 7)
	s := rep.String()
	if !strings.Contains(s, "== x: t ==") || !strings.Contains(s, "note: hello 7") {
		t.Fatalf("render: %s", s)
	}
}

// TestSparseBPReport pins the sparse-backward experiment's structural
// invariants: one row per threshold rung, the measured prune ratio
// monotone non-decreasing in the threshold, every speedup cell
// parseable, and the unpruned-vs-dense loss delta column present. The
// loss-bitwise contract between sparse and dense is enforced inside the
// runner itself (it errors on any divergence).
func TestSparseBPReport(t *testing.T) {
	rep := run(t, SparseBP)
	if len(rep.Rows) != 4 {
		t.Fatalf("want 4 threshold rungs, got %v", rep.Rows)
	}
	prev := -1.0
	for _, row := range rep.Rows {
		var prune float64
		if _, err := fmt.Sscanf(row[1], "%f", &prune); err != nil {
			t.Fatalf("prune cell %q: %v", row[1], err)
		}
		if prune < prev {
			t.Fatalf("prune ratio not monotone in threshold: %v", rep.Rows)
		}
		prev = prune
		var speedup float64
		if _, err := fmt.Sscanf(row[4], "%fx", &speedup); err != nil {
			t.Fatalf("speedup cell %q: %v", row[4], err)
		}
		if speedup <= 0 {
			t.Fatalf("non-positive speedup: %v", row)
		}
	}
}

func TestGradSyncReport(t *testing.T) {
	rep := run(t, GradSync)
	if rep.Rows[0][0] != "dense" {
		t.Fatalf("first row must be the dense baseline: %v", rep.Rows[0])
	}
	// Every compressed rung must report a real payload reduction, and
	// tighter keeps must never ship more bytes.
	prev := 0.0
	for _, row := range rep.Rows[1:] {
		var ratio float64
		if _, err := fmt.Sscanf(row[4], "%fx", &ratio); err != nil {
			t.Fatalf("ratio cell %q: %v", row[4], err)
		}
		if ratio <= 1 {
			t.Fatalf("rung %v reports no reduction", row)
		}
		if ratio < prev {
			t.Fatalf("ratio not monotone in keep: %v", rep.Rows)
		}
		prev = ratio
	}
}
