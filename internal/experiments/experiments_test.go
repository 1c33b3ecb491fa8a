package experiments

import (
	"strings"
	"testing"
)

func TestTableBasics(t *testing.T) {
	tbl := &Table{Title: "demo", Columns: []string{"a", "b"}}
	tbl.Add("row1", 1, 2)
	tbl.Add("row2", 5, 1)
	if v, ok := tbl.Get("row2", "a"); !ok || v != 5 {
		t.Fatalf("Get = %v,%v", v, ok)
	}
	if _, ok := tbl.Get("row2", "zzz"); ok {
		t.Fatal("missing column found")
	}
	if _, ok := tbl.Get("zzz", "a"); ok {
		t.Fatal("missing row found")
	}
	best, ok := tbl.Best("a")
	if !ok || best.Label != "row2" {
		t.Fatalf("Best = %+v", best)
	}
	if _, ok := tbl.Best("zzz"); ok {
		t.Fatal("Best on missing column")
	}
	if !strings.Contains(tbl.String(), "row1") {
		t.Fatal("String misses rows")
	}
	mustPanic(t, func() { tbl.Add("bad", 1) })
}

func TestFig1aShowsImbalance(t *testing.T) {
	tbl, err := Fig1a(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "1a", tbl)
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 servers", len(tbl.Rows))
	}
	// HServers (rows 0-5) must be slower than SServers (rows 6-7),
	// qualitatively matching the paper's ~350%.
	var hAvg, sAvg float64
	for i, r := range tbl.Rows {
		if i < 6 {
			hAvg += r.Values[0] / 6
		} else {
			sAvg += r.Values[0] / 2
		}
	}
	if hAvg < 2*sAvg {
		t.Fatalf("HServer/SServer normalized time %.2f/%.2f lacks the Fig 1a gap", hAvg, sAvg)
	}
}

func TestFig1bStripeSizeMatters(t *testing.T) {
	tbl, err := Fig1b(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "1b", tbl)
	// Within at least one request-size row, the best and worst stripe
	// must differ substantially (the paper's "huge variation").
	varies := false
	for _, row := range tbl.Rows {
		lo, hi := row.Values[0], row.Values[0]
		for _, v := range row.Values {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi > 1.3*lo {
			varies = true
		}
	}
	if !varies {
		t.Fatal("no row shows stripe-size sensitivity")
	}
}

func TestFig7HARLWins(t *testing.T) {
	tbl, err := Fig7(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "7", tbl)
	last := tbl.Rows[len(tbl.Rows)-1]
	if !strings.HasPrefix(last.Label, "HARL") {
		t.Fatalf("last row = %q", last.Label)
	}
	for _, row := range tbl.Rows[:len(tbl.Rows)-1] {
		if row.Values[0] > last.Values[0]*1.02 {
			t.Errorf("read: %s (%.1f) beats HARL (%.1f)", row.Label, row.Values[0], last.Values[0])
		}
		if row.Values[1] > last.Values[1]*1.02 {
			t.Errorf("write: %s (%.1f) beats HARL (%.1f)", row.Label, row.Values[1], last.Values[1])
		}
	}
	// And specifically HARL must improve on the 64K default, the paper's
	// headline comparison.
	defR, _ := tbl.Get("64K", "read MB/s")
	defW, _ := tbl.Get("64K", "write MB/s")
	if last.Values[0] <= defR || last.Values[1] <= defW {
		t.Fatalf("HARL (%.1f/%.1f) does not beat the 64K default (%.1f/%.1f)",
			last.Values[0], last.Values[1], defR, defW)
	}
}

func TestFig11HARLWinsOnNonUniform(t *testing.T) {
	tbl, err := Fig11(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "11", tbl)
	last := tbl.Rows[len(tbl.Rows)-1]
	if last.Label != "HARL" {
		t.Fatalf("last row = %q", last.Label)
	}
	if last.Values[2] < 2 {
		t.Fatalf("HARL found only %v regions on a four-phase workload", last.Values[2])
	}
	defR, _ := tbl.Get("64K", "read MB/s")
	if last.Values[0] <= defR {
		t.Fatalf("HARL read %.1f does not beat 64K default %.1f", last.Values[0], defR)
	}
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	fn()
}
