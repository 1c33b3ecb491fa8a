package experiments

import (
	"strings"
	"testing"
)

// The remaining figure drivers, exercised at quick scale. They are
// slower than unit tests, so they skip under -short; the root bench
// harness covers them at full scale.

func TestFig8AllProcessCountsWin(t *testing.T) {
	if testing.Short() {
		t.Skip("figure driver; run without -short")
	}
	tbl, err := Fig8(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "8", tbl)
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 process counts", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		// Columns: 64K r/w, bestfix r/w, rand r/w, HARL r/w.
		harlRead, harlWrite := row.Values[6], row.Values[7]
		if harlRead <= row.Values[0] || harlWrite <= row.Values[1] {
			t.Errorf("%s: HARL (%.1f/%.1f) does not beat 64K default (%.1f/%.1f)",
				row.Label, harlRead, harlWrite, row.Values[0], row.Values[1])
		}
		if harlRead <= row.Values[4] || harlWrite <= row.Values[5] {
			t.Errorf("%s: HARL does not beat random", row.Label)
		}
	}
}

func TestFig9SmallRequestsGoSSDOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("figure driver; run without -short")
	}
	tbl, err := Fig9(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "9", tbl)
	// The 128K HARL row must carry the SServer-only marker (H=0), the
	// paper's Fig. 9 crossover.
	found := false
	for _, row := range tbl.Rows {
		if strings.HasPrefix(row.Label, "req 128K / HARL") {
			found = true
			if !strings.Contains(row.Label, "HARL 0K-") {
				t.Errorf("128K optimum not SServer-only: %q", row.Label)
			}
		}
	}
	if !found {
		t.Fatal("no 128K HARL row")
	}
	// HARL rows beat their request-size's 64K fixed rows.
	for _, req := range []string{"128K", "1024K"} {
		fixedR, _ := tbl.Get("req "+req+" / 64K", "read MB/s")
		var harlR float64
		for _, row := range tbl.Rows {
			if strings.HasPrefix(row.Label, "req "+req+" / HARL") {
				harlR = row.Values[0]
			}
		}
		if harlR <= fixedR {
			t.Errorf("req %s: HARL %.1f does not beat 64K %.1f", req, harlR, fixedR)
		}
	}
}

func TestFig10GainGrowsWithSSDShare(t *testing.T) {
	if testing.Short() {
		t.Skip("figure driver; run without -short")
	}
	tbl, err := Fig10(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "10", tbl)
	gain := func(ratio string) float64 {
		def, ok1 := tbl.Get(ratio+" 64K", "read MB/s")
		var harl float64
		ok2 := false
		for _, row := range tbl.Rows {
			if strings.HasPrefix(row.Label, ratio+" HARL") {
				harl, ok2 = row.Values[0], true
			}
		}
		if !ok1 || !ok2 {
			t.Fatalf("rows for ratio %s missing", ratio)
		}
		return harl / def
	}
	g71, g62, g26 := gain("7:1"), gain("6:2"), gain("2:6")
	if !(g26 > g62 && g62 > g71) {
		t.Fatalf("gain should grow with SSD share: 7:1=%.2f 6:2=%.2f 2:6=%.2f", g71, g62, g26)
	}
	// The SSD-rich system must place the file on SServers only.
	foundSSDOnly := false
	for _, row := range tbl.Rows {
		if strings.HasPrefix(row.Label, "2:6 HARL 0K-") {
			foundSSDOnly = true
		}
	}
	if !foundSSDOnly {
		t.Error("2:6 optimum is not SServer-only")
	}
}

func TestFig12HARLWinsEveryProcessCount(t *testing.T) {
	if testing.Short() {
		t.Skip("figure driver; run without -short")
	}
	tbl, err := Fig12(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "12", tbl)
	for _, procs := range []string{"4p", "16p", "64p"} {
		def, ok := tbl.Get(procs+" 64K", "MB/s")
		if !ok {
			t.Fatalf("missing %s default row", procs)
		}
		var harl float64
		for _, row := range tbl.Rows {
			if strings.HasPrefix(row.Label, procs+" HARL") {
				harl = row.Values[0]
			}
		}
		if harl <= def {
			t.Errorf("%s: HARL %.1f does not beat 64K %.1f", procs, harl, def)
		}
	}
}
