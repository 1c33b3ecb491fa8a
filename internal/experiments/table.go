// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV): one driver per figure, each returning a Table
// whose rows/series mirror what the paper plots. harlctl fig runs them
// through the Figures registry.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one experiment's output: labeled rows of named columns.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
}

// Row is one configuration's results.
type Row struct {
	Label  string
	Values []float64
}

// Add appends a row; the value count must match the column count.
func (t *Table) Add(label string, values ...float64) {
	if len(values) != len(t.Columns) {
		panic(fmt.Sprintf("experiments: row %q has %d values, table %q has %d columns",
			label, len(values), t.Title, len(t.Columns)))
	}
	t.Rows = append(t.Rows, Row{Label: label, Values: values})
}

// Get returns the value at (rowLabel, column), or false if absent.
func (t *Table) Get(rowLabel, column string) (float64, bool) {
	ci := -1
	for i, c := range t.Columns {
		if c == column {
			ci = i
			break
		}
	}
	if ci < 0 {
		return 0, false
	}
	for _, r := range t.Rows {
		if r.Label == rowLabel {
			return r.Values[ci], true
		}
	}
	return 0, false
}

// Best returns the row with the largest value in the given column.
func (t *Table) Best(column string) (Row, bool) {
	ci := -1
	for i, c := range t.Columns {
		if c == column {
			ci = i
			break
		}
	}
	if ci < 0 || len(t.Rows) == 0 {
		return Row{}, false
	}
	best := t.Rows[0]
	for _, r := range t.Rows[1:] {
		if r.Values[ci] > best.Values[ci] {
			best = r
		}
	}
	return best, true
}

// String renders an aligned text table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	labelW := 12
	for _, r := range t.Rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	fmt.Fprintf(&b, "%-*s", labelW+2, "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%14s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", labelW+2, r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, "%14.2f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
