// Package experiments contains one harness per table and figure of the
// paper's evaluation (and the Sec. III characterization): each harness
// regenerates the rows/series the paper reports from this repository's
// models and training substrate. DESIGN.md §4 maps every experiment to
// its modules; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Report is one regenerated table or figure: a header row, data rows
// and free-form notes (the paper's headline claims with our measured
// counterparts).
type Report struct {
	ID     string // e.g. "fig15a"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends a row of cells (stringified with %v).
func (r *Report) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	r.Rows = append(r.Rows, row)
}

// Note appends a formatted note line.
func (r *Report) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Options tunes the training-backed experiments.
type Options struct {
	// Quick shrinks training-based experiments to CI scale (smaller
	// models, fewer epochs). The cost models are exact either way.
	Quick bool
	// Seed makes training-based experiments reproducible.
	Seed uint64
}

// Runner regenerates one experiment.
type Runner func(Options) (*Report, error)

// Registry maps experiment ids to their runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"fig3a":       Fig3a,
		"fig3b":       Fig3b,
		"fig3c":       Fig3c,
		"fig4":        Fig4,
		"fig5":        Fig5,
		"fig6":        Fig6,
		"fig8":        Fig8,
		"fig11":       Fig11,
		"fig15a":      Fig15a,
		"fig15b":      Fig15b,
		"fig16":       Fig16,
		"fig17":       Fig17,
		"fig18":       Fig18,
		"table2":      Table2,
		"table3":      Table3,
		"scalability": Scalability,
		"gradsync":    GradSync,
		"sparsebp":    SparseBP,
	}
}

// IDs returns the registered experiment ids in sorted order.
func IDs() []string {
	reg := Registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// RunAll executes every registered experiment and returns the reports
// in id order.
func RunAll(opts Options) ([]*Report, error) {
	var out []*Report
	reg := Registry()
	for _, id := range IDs() {
		rep, err := reg[id](opts)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", id, err)
		}
		out = append(out, rep)
	}
	return out, nil
}
