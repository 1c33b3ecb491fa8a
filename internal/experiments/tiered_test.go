package experiments

import "testing"

func TestThreeTierAwareBeatsBlind(t *testing.T) {
	tbl, err := ThreeTier(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "threetier", tbl)
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	def, blind, aware := tbl.Rows[0], tbl.Rows[1], tbl.Rows[2]
	// Both HARL variants must beat the fixed default.
	if blind.Values[0] <= def.Values[0] || aware.Values[0] <= def.Values[0] {
		t.Fatalf("HARL variants (%.1f, %.1f) should beat fixed 64K (%.1f)",
			blind.Values[0], aware.Values[0], def.Values[0])
	}
	// Tier awareness must not lose to the blind two-tier treatment.
	if aware.Values[0] < blind.Values[0]*0.98 || aware.Values[1] < blind.Values[1]*0.98 {
		t.Fatalf("3-tier HARL (%.1f/%.1f) loses to 2-tier-blind (%.1f/%.1f)",
			aware.Values[0], aware.Values[1], blind.Values[0], blind.Values[1])
	}
}
