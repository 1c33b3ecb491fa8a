package experiments

import "testing"

func TestAblationRegionDivision(t *testing.T) {
	tbl, err := AblationRegionDivision(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ablation-division", tbl)
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	whole, fixed, cv := tbl.Rows[0], tbl.Rows[1], tbl.Rows[2]
	// CV-adaptive must beat fixed chunking on throughput while using far
	// fewer regions (the metadata argument of Section III-C), and stay
	// competitive with a globally optimized single pair.
	if cv.Values[0] < fixed.Values[0]*0.98 {
		t.Fatalf("CV division read %.1f loses to fixed chunks %.1f", cv.Values[0], fixed.Values[0])
	}
	if cv.Values[2] >= fixed.Values[2] {
		t.Fatalf("CV division used %v regions, fixed chunks %v", cv.Values[2], fixed.Values[2])
	}
	if cv.Values[0] < whole.Values[0]*0.9 {
		t.Fatalf("CV division read %.1f far below whole-file %.1f", cv.Values[0], whole.Values[0])
	}
	if whole.Values[2] != 1 {
		t.Fatalf("whole-file rows = %v regions", whole.Values[2])
	}
}

func TestAblationCostModel(t *testing.T) {
	tbl, err := AblationCostModel(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ablation-model", tbl)
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	full := tbl.Rows[0]
	// The full model must not lose to its crippled variants.
	for _, row := range tbl.Rows[1:] {
		if row.Values[0] > full.Values[0]*1.05 {
			t.Errorf("%s read %.1f materially beats the full model %.1f", row.Label, row.Values[0], full.Values[0])
		}
	}
}

func TestAblationThreshold(t *testing.T) {
	tbl, err := AblationThreshold(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ablation-threshold", tbl)
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Region counts must not increase as the threshold loosens.
	for i := 1; i < len(tbl.Rows); i++ {
		if tbl.Rows[i].Values[0] > tbl.Rows[i-1].Values[0] {
			t.Fatalf("regions grew with threshold: %v -> %v", tbl.Rows[i-1], tbl.Rows[i])
		}
	}
	// The infinite threshold must collapse to a single region.
	if last := tbl.Rows[len(tbl.Rows)-1]; last.Values[0] != 1 {
		t.Fatalf("infinite threshold gave %v regions", last.Values[0])
	}
}
