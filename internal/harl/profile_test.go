package harl

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"harl/internal/device"
	"harl/internal/trace"
)

// The grid search's profile agrees with OptimizeRegion's result, adds up,
// and reproduces at Parallelism 1.
func TestOptimizeRegionProfiled(t *testing.T) {
	opt := Optimizer{Params: modelParams(), Parallelism: 1}
	tr := uniformTrace(64, 512<<10, device.Read, 1)
	tr.SortByOffset()

	pair, c := opt.OptimizeRegion(tr.Records, 0, 512<<10)
	rs := opt.optimize(tr.Records, 0, 512<<10)
	if rs.Requests != 64 || rs.Sampled != 64 {
		t.Fatalf("request accounting: %+v", rs)
	}
	checkAccounting(t, rs)
	if rs.Pruned == 0 {
		t.Fatalf("lower-bound pruning never fired on a %d-candidate grid", rs.Candidates)
	}
	if rs.Evals == 0 {
		t.Fatalf("no model evaluations recorded: %+v", rs)
	}
	if pairOf(rs.Best) != pair || rs.Cost != c {
		t.Fatalf("profile best (%v, %v) != result (%v, %v)", rs.Best, rs.Cost, pair, c)
	}

	// Counts are reproducible at Parallelism 1.
	rs2 := opt.optimize(tr.Records, 0, 512<<10)
	rs2.WallNS = rs.WallNS
	if !reflect.DeepEqual(rs2, rs) {
		t.Fatalf("serial profile not reproducible:\n%+v\n%+v", rs, rs2)
	}
}

// checkAccounting fails t unless the profile's candidate counts add up:
// every candidate is scored or pruned, and the shape bound's rejections
// are among the pruned.
func checkAccounting(t *testing.T, rs RegionSearch) {
	t.Helper()
	if rs.Candidates == 0 || rs.Scored+rs.Pruned != rs.Candidates || rs.Bounded > rs.Pruned {
		t.Fatalf("candidate accounting doesn't add up: %+v", rs)
	}
}

// On a 2 MB write-then-read region the shape bound rejects most
// candidates before any request is scored; with pruning off it never
// does, and the plan is the same.
func TestShapeBoundRejectsUnscored(t *testing.T) {
	recs := searchTraces()["2mb-rw"]
	(&trace.Trace{Records: recs}).SortByOffset()
	opt := Optimizer{Params: modelParams(), Parallelism: 1}
	rs := opt.optimize(recs, 0, avgSize(recs))
	checkAccounting(t, rs)
	if 2*rs.Bounded < rs.Candidates {
		t.Fatalf("shape bound rejected %d of %d candidates unscored, want at least half", rs.Bounded, rs.Candidates)
	}
	opt.noPrune = true
	all := opt.optimize(recs, 0, avgSize(recs))
	checkAccounting(t, all)
	if all.Pruned != 0 || !slices.Equal(all.Best, rs.Best) || all.Cost != rs.Cost {
		t.Fatalf("unpruned search: %+v, pruned: %+v", all, rs)
	}
}

func TestPlannerProfile(t *testing.T) {
	tr := uniformTrace(256, 512<<10, device.Read, 3)
	base := Planner{Params: modelParams(), ChunkSize: 64 << 20, Parallelism: 2}

	plain, err := base.Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}

	profiled := base
	profiled.Profile = &SearchProfile{}
	got, err := profiled.Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Profiling must not change the plan.
	if len(got.RST.Entries) != len(plain.RST.Entries) {
		t.Fatalf("profiled plan has %d RST entries, plain %d", len(got.RST.Entries), len(plain.RST.Entries))
	}
	for i, e := range got.RST.Entries {
		if e != plain.RST.Entries[i] {
			t.Fatalf("RST entry %d differs under profiling: %+v vs %+v", i, e, plain.RST.Entries[i])
		}
	}

	prof := profiled.Profile
	if len(prof.Regions) != len(got.Regions) {
		t.Fatalf("%d region profiles for %d regions", len(prof.Regions), len(got.Regions))
	}
	var regionsRun int
	for _, w := range prof.Workers {
		regionsRun += w.Regions
	}
	if regionsRun != len(got.Regions) {
		t.Fatalf("workers ran %d regions, want %d", regionsRun, len(got.Regions))
	}
	for i, rs := range prof.Regions {
		if rs.Region != i {
			t.Fatalf("region %d profile malformed: %+v", i, rs)
		}
		checkAccounting(t, rs)
		if pairOf(rs.Best) != got.Regions[i].Stripes {
			t.Fatalf("region %d profile best %v != plan %v", i, rs.Best, got.Regions[i].Stripes)
		}
	}
	if prof.Totals().Candidates == 0 {
		t.Fatal("empty profile totals")
	}

	var sb strings.Builder
	if _, err := prof.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"analysis:", "search:", "region", "worker"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
