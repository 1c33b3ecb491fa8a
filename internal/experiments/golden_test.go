package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Every registered figure's quick-scale table is pinned byte for byte
// under testdata/figures: title, columns, row labels and every value at
// full float precision. A change that moves any simulated outcome fails
// the figure's test. Regenerate after an intended change with
//
//	go test ./internal/experiments -update
var update = flag.Bool("update", false, "rewrite testdata/figures goldens from the current code")

// goldenPath is where a figure's golden table lives.
func goldenPath(name string) string {
	return filepath.Join("testdata", "figures", name+".golden")
}

// goldenText renders a table losslessly: one quoted field per column,
// and each value in the shortest form that round-trips its float64.
func goldenText(tbl *Table) string {
	var b strings.Builder
	b.WriteString("title " + strconv.Quote(tbl.Title) + "\n")
	b.WriteString("columns")
	for _, c := range tbl.Columns {
		b.WriteString(" " + strconv.Quote(c))
	}
	b.WriteByte('\n')
	for _, r := range tbl.Rows {
		b.WriteString("row " + strconv.Quote(r.Label))
		for _, v := range r.Values {
			b.WriteString(" " + strconv.FormatFloat(v, 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// checkGolden compares a figure's table against its golden file, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name string, tbl *Table) {
	t.Helper()
	got := goldenText(tbl)
	path := goldenPath(name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("figure %s: %v (regenerate with -update)", name, err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("figure %s differs from %s at line %d:\n got: %s\nwant: %s", name, path, i+1, g, w)
			return
		}
	}
}

// TestFigSLOGolden pins the SLO figure, the one registered figure no
// other test runs whole.
func TestFigSLOGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("figure driver; run without -short")
	}
	tbl, err := FigSLO(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "slo", tbl)
}
