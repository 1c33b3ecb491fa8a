package experiments

import "testing"

func TestBaselineComparisonHARLWins(t *testing.T) {
	tbl, err := BaselineComparison(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "baselines", tbl)
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	harlRow := tbl.Rows[2]
	for _, carlRow := range tbl.Rows[:2] {
		if harlRow.Values[0] < carlRow.Values[0]*0.98 {
			t.Errorf("HARL read %.1f loses to %s (%.1f)", harlRow.Values[0], carlRow.Label, carlRow.Values[0])
		}
	}
	// CARL placements are class-exclusive, so their SSD share must track
	// the budget; HARL's mixed striping sits in between.
	if tbl.Rows[0].Values[2] > 26 {
		t.Errorf("CARL 25%% budget placed %.0f%% on SSD", tbl.Rows[0].Values[2])
	}
}
