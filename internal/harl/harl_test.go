package harl

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"harl/internal/cost"
	"harl/internal/device"
	"harl/internal/trace"
)

// modelParams is a calibrated-looking parameter set: 6 HServers + 2
// SServers, Gigabit network, HDDs with millisecond startups, SSDs with
// sub-millisecond startups and slower writes.
func modelParams() cost.Params {
	return cost.Params{
		NetUnit: 1.0 / (117 << 20),
		Tiers: []cost.TierParams{
			{Name: "hserver", Count: 6,
				Read:  cost.DeviceFit{AlphaMin: 3e-3, AlphaMax: 7e-3, Beta: 1.0 / (100 << 20)},
				Write: cost.DeviceFit{AlphaMin: 3e-3, AlphaMax: 7e-3, Beta: 1.0 / (100 << 20)}},
			{Name: "sserver", Count: 2,
				Read:  cost.DeviceFit{AlphaMin: 6e-4, AlphaMax: 1.2e-3, Beta: 1.0 / (400 << 20)},
				Write: cost.DeviceFit{AlphaMin: 8e-4, AlphaMax: 1.6e-3, Beta: 1.0 / (200 << 20)}},
		},
	}
}

// regionCost sums the per-request model cost of records under the
// candidate stripes through the uncached path: the reference the
// cached search is verified against.
func regionCost(p cost.Params, records []trace.Record, base int64, stripes ...int64) float64 {
	var total float64
	for _, r := range records {
		total += p.RequestCost(r.Op, max(r.Offset-base, 0), r.Size, stripes...)
	}
	return total
}

// uniformTrace builds n random-offset requests of one size, like IOR.
func uniformTrace(n int, size int64, op device.Op, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		off := rng.Int63n(1<<30/size) * size
		tr.Records = append(tr.Records, trace.Record{
			PID: 1, Rank: i % 16, FD: 3, Op: op, Offset: off, Size: size, End: 1,
		})
	}
	return tr
}

func TestStripePairString(t *testing.T) {
	if got := (StripePair{H: 36 << 10, S: 148 << 10}).String(); got != "36K-148K" {
		t.Fatalf("String = %q", got)
	}
	if got := (StripePair{H: 0, S: 100}).String(); got != "0K-100B" {
		t.Fatalf("String = %q", got)
	}
}

func TestOptimizerGivesSServersLargerStripes(t *testing.T) {
	// The core claim of the paper: with faster SServers, the optimum
	// assigns them larger stripes than HServers (s > h whenever h > 0).
	opt := Optimizer{Params: modelParams()}
	tr := uniformTrace(64, 512<<10, device.Read, 1)
	tr.SortByOffset()
	pair, c := opt.OptimizeRegion(tr.Records, 0, 512<<10)
	if c <= 0 {
		t.Fatalf("model cost = %v", c)
	}
	if pair.H != 0 && pair.S <= pair.H {
		t.Fatalf("optimum %v should give SServers strictly larger stripes", pair)
	}
	if pair.S == 0 {
		t.Fatalf("optimum %v never places data on the faster SServers", pair)
	}
}

func TestOptimizerSmallRequestsGoSSDOnly(t *testing.T) {
	// The paper's Fig. 9 observation: at 128 KB requests the optimum is
	// {0KB, 64KB} — HServer startup costs more than SServer serialization.
	opt := Optimizer{Params: modelParams()}
	tr := uniformTrace(64, 128<<10, device.Read, 2)
	tr.SortByOffset()
	pair, _ := opt.OptimizeRegion(tr.Records, 0, 128<<10)
	if pair.H != 0 {
		t.Fatalf("128KB optimum = %v, want SServer-only (H=0)", pair)
	}
}

func TestOptimizerBeatsDefaultLayout(t *testing.T) {
	// Whatever the optimizer picks must score at least as well as the
	// 64 KB fixed default under the same model.
	opt := Optimizer{Params: modelParams()}
	for _, size := range []int64{128 << 10, 512 << 10, 1 << 20} {
		tr := uniformTrace(64, size, device.Write, size)
		tr.SortByOffset()
		pair, best := opt.OptimizeRegion(tr.Records, 0, float64(size))
		defaultCost := regionCost(opt.Params, opt.sampleRecords(tr.Records), 0, 64<<10, 64<<10)
		if best > defaultCost {
			t.Fatalf("size %d: optimum %v cost %v worse than default %v", size, pair, best, defaultCost)
		}
	}
}

func TestOptimizerHomogeneousSystems(t *testing.T) {
	tr := uniformTrace(32, 512<<10, device.Read, 3)
	tr.SortByOffset()

	hOnly := modelParams()
	hOnly.Tiers[1].Count = 0
	pair, _ := Optimizer{Params: hOnly}.OptimizeRegion(tr.Records, 0, 512<<10)
	if pair.S != 0 || pair.H == 0 {
		t.Fatalf("HServer-only system chose %v", pair)
	}

	sOnly := modelParams()
	sOnly.Tiers[0].Count = 0
	pair, _ = Optimizer{Params: sOnly}.OptimizeRegion(tr.Records, 0, 512<<10)
	if pair.H != 0 || pair.S == 0 {
		t.Fatalf("SServer-only system chose %v", pair)
	}
}

func TestOptimizerTinyAverage(t *testing.T) {
	// Average below one grid step still yields a usable pair.
	opt := Optimizer{Params: modelParams()}
	recs := []trace.Record{
		{Op: device.Read, Offset: 0, Size: 512, End: 1},
		{Op: device.Read, Offset: 512, Size: 512, End: 1},
	}
	pair, _ := opt.OptimizeRegion(recs, 0, 512)
	if pair.H+pair.S == 0 {
		t.Fatalf("unusable pair %v", pair)
	}
}

func TestOptimizerPanics(t *testing.T) {
	opt := Optimizer{Params: modelParams()}
	mustPanic(t, func() { opt.OptimizeRegion(nil, 0, 512) })
	bad := Optimizer{Params: modelParams(), Step: -4}
	recs := uniformTrace(4, 4096, device.Read, 4).Records
	mustPanic(t, func() { bad.OptimizeRegion(recs, 0, 4096) })
}

func TestSampleRecords(t *testing.T) {
	recs := uniformTrace(1000, 4096, device.Read, 5).Records
	opt := Optimizer{Params: modelParams(), MaxRequests: 64}
	sample := opt.sampleRecords(recs)
	if len(sample) != 64 {
		t.Fatalf("sample = %d, want 64", len(sample))
	}
	all := Optimizer{Params: modelParams(), MaxRequests: -1}.sampleRecords(recs)
	if len(all) != 1000 {
		t.Fatalf("uncapped sample = %d", len(all))
	}
	few := Optimizer{Params: modelParams(), MaxRequests: 64}.sampleRecords(recs[:10])
	if len(few) != 10 {
		t.Fatalf("small region sample = %d", len(few))
	}
}

func TestReadWriteMix(t *testing.T) {
	recs := []trace.Record{
		{Op: device.Read, Size: 300, End: 1},
		{Op: device.Write, Size: 100, End: 1},
	}
	if got := ReadWriteMix(recs); got != 0.25 {
		t.Fatalf("mix = %v, want 0.25", got)
	}
	if ReadWriteMix(nil) != 0 {
		t.Fatal("empty mix should be 0")
	}
}

func TestRSTLookupAndValidate(t *testing.T) {
	rst := &RST{Entries: []RSTEntry{
		{Offset: 0, End: 128 << 20, H: 16 << 10, S: 64 << 10},
		{Offset: 128 << 20, End: 192 << 20, H: 36 << 10, S: 144 << 10},
		{Offset: 192 << 20, End: 256 << 20, H: 26 << 10, S: 80 << 10},
	}}
	if err := rst.Validate(); err != nil {
		t.Fatal(err)
	}
	checks := map[int64]int{0: 0, 128<<20 - 1: 0, 128 << 20: 1, 200 << 20: 2, 1 << 40: 2}
	for off, want := range checks {
		if got := rst.Lookup(off); got != want {
			t.Errorf("Lookup(%d) = %d, want %d", off, got, want)
		}
	}
	if rst.Extent() != 256<<20 {
		t.Fatalf("extent = %d", rst.Extent())
	}
	mustPanic(t, func() { rst.Lookup(-1) })
	mustPanic(t, func() { (&RST{}).Lookup(0) })
}

func TestRSTValidateRejects(t *testing.T) {
	cases := []*RST{
		{Entries: []RSTEntry{{Offset: 10, End: 20, H: 1, S: 1}}},                                   // not at 0
		{Entries: []RSTEntry{{Offset: 0, End: 0, H: 1, S: 1}}},                                     // empty range
		{Entries: []RSTEntry{{Offset: 0, End: 10, H: 0, S: 0}}},                                    // no stripes
		{Entries: []RSTEntry{{Offset: 0, End: 10, H: 1, S: 1}, {Offset: 20, End: 30, H: 1, S: 1}}}, // gap
		{Entries: []RSTEntry{{Offset: 0, End: 10, H: -1, S: 4}}},                                   // negative
	}
	for i, rst := range cases {
		if rst.Validate() == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

func TestRSTMerge(t *testing.T) {
	rst := &RST{Entries: []RSTEntry{
		{Offset: 0, End: 10, H: 4, S: 8},
		{Offset: 10, End: 20, H: 4, S: 8},
		{Offset: 20, End: 30, H: 2, S: 8},
		{Offset: 30, End: 40, H: 4, S: 8},
	}}
	if removed := rst.Merge(); removed != 1 {
		t.Fatalf("removed = %d, want 1", removed)
	}
	if len(rst.Entries) != 3 || rst.Entries[0].End != 20 {
		t.Fatalf("merged = %+v", rst.Entries)
	}
	if err := rst.Validate(); err != nil {
		t.Fatal(err)
	}
	if (&RST{}).Merge() != 0 {
		t.Fatal("empty merge should remove nothing")
	}
}

func TestRSTCodecRoundTrip(t *testing.T) {
	rst := &RST{Entries: []RSTEntry{
		{Offset: 0, End: 128 << 20, H: 16 << 10, S: 64 << 10},
		{Offset: 128 << 20, End: 192 << 20, H: 0, S: 144 << 10},
	}}
	var buf bytes.Buffer
	if err := rst.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRST(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 2 || got.Entries[1] != rst.Entries[1] {
		t.Fatalf("round trip = %+v", got.Entries)
	}
}

// TestRSTWriteRejectsInvalid: Write validates first, so it never emits
// a table ReadRST would refuse, and it writes nothing on refusal.
func TestRSTWriteRejectsInvalid(t *testing.T) {
	for name, bad := range map[string]*RST{
		"empty range":    {Entries: []RSTEntry{{Offset: 5, End: 1, H: 1, S: 1}}},
		"gap":            {Entries: []RSTEntry{{Offset: 0, End: 10, H: 1}, {Offset: 20, End: 30, H: 1}}},
		"no stripes":     {Entries: []RSTEntry{{Offset: 0, End: 10}}},
		"negative r":     {Entries: []RSTEntry{{Offset: 0, End: 10, H: 1, R: -1}}},
		"nonzero origin": {Entries: []RSTEntry{{Offset: 4, End: 10, H: 1}}},
	} {
		var buf bytes.Buffer
		if err := bad.Write(&buf); err == nil {
			t.Errorf("%s: invalid table written as %q", name, buf.String())
		} else if buf.Len() != 0 {
			t.Errorf("%s: refused table still wrote %q", name, buf.String())
		}
	}
}

func TestReadRSTErrors(t *testing.T) {
	cases := []string{
		"0 10 1 1\n",                          // missing header
		"#harl-rst v1\n0 10 1\n",              // short line
		"#harl-rst v1\n0 x 1 1\n",             // bad int
		"#harl-rst v1\n5 10 1 1\n",            // does not start at 0
		"#harl-rst v1\n0 10 1 1\n20 30 1 1\n", // gap
		// A second header mid-file would change the row width, and the
		// later rows would silently lose their replication factor.
		"#harl-rst v2\n0 10 1 1 2\n#harl-rst v1\n10 20 1 1\n",
		"#harl-rst v1\n#harl-rst v1\n0 10 1 1\n", // repeated header
	}
	for i, in := range cases {
		if _, err := ReadRST(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestBuildR2F(t *testing.T) {
	rst := &RST{Entries: []RSTEntry{
		{Offset: 0, End: 10, H: 1, S: 2},
		{Offset: 10, End: 20, H: 3, S: 4},
	}}
	r2f := BuildR2F("/data/file", rst)
	if r2f.File(0) != "/data/file.r0" || r2f.File(1) != "/data/file.r1" {
		t.Fatalf("r2f = %+v", r2f.Entries)
	}
	mustPanic(t, func() { r2f.File(2) })
	mustPanic(t, func() { r2f.File(-1) })
}

func TestPlannerUniformWorkload(t *testing.T) {
	pl := Planner{Params: modelParams()}
	tr := uniformTrace(200, 512<<10, device.Read, 7)
	plan, err := pl.Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Regions) != 1 {
		t.Fatalf("uniform workload produced %d regions", len(plan.Regions))
	}
	if plan.RST.Validate() != nil {
		t.Fatal("invalid RST")
	}
	pair := plan.Regions[0].Stripes
	if pair.S <= pair.H {
		t.Fatalf("pair = %v, want s > h", pair)
	}
}

func TestPlannerMultiPhaseWorkload(t *testing.T) {
	// Two phases with very different request sizes in different halves of
	// the file: the plan must contain at least two regions with different
	// optima, and region boundaries must respect the phase split.
	tr := &trace.Trace{}
	off := int64(0)
	for i := 0; i < 150; i++ {
		tr.Records = append(tr.Records, trace.Record{Op: device.Read, Offset: off, Size: 2 << 20, End: 1})
		off += 2 << 20
	}
	for i := 0; i < 150; i++ {
		tr.Records = append(tr.Records, trace.Record{Op: device.Read, Offset: off, Size: 64 << 10, End: 1})
		off += 64 << 10
	}
	pl := Planner{Params: modelParams()}
	plan, err := pl.Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Regions) < 2 {
		t.Fatalf("phase change not detected: %d regions", len(plan.Regions))
	}
	first, last := plan.Regions[0], plan.Regions[len(plan.Regions)-1]
	if first.AvgSize <= last.AvgSize {
		t.Fatalf("region averages %v vs %v should reflect the phases", first.AvgSize, last.AvgSize)
	}
}

func TestPlannerWritesDifferFromReads(t *testing.T) {
	// SSD writes are slower, so the write optimum should shift toward
	// HServers relative to the read optimum (smaller or equal S share).
	pl := Planner{Params: modelParams()}
	rPlan, err := pl.Analyze(uniformTrace(100, 512<<10, device.Read, 8))
	if err != nil {
		t.Fatal(err)
	}
	wPlan, err := pl.Analyze(uniformTrace(100, 512<<10, device.Write, 8))
	if err != nil {
		t.Fatal(err)
	}
	rp, wp := rPlan.Regions[0].Stripes, wPlan.Regions[0].Stripes
	if rp == wp {
		t.Logf("read and write optima coincide at %v; acceptable but unusual", rp)
	}
	if wp.S == 0 || rp.S == 0 {
		t.Fatalf("optima r=%v w=%v should still use SServers", rp, wp)
	}
}

func TestPlannerErrors(t *testing.T) {
	pl := Planner{Params: modelParams()}
	if _, err := pl.Analyze(&trace.Trace{}); err == nil {
		t.Fatal("empty trace should error")
	}
	if _, err := pl.Analyze(nil); err == nil {
		t.Fatal("nil trace should error")
	}
	bad := Planner{}
	if _, err := bad.Analyze(uniformTrace(10, 4096, device.Read, 9)); err == nil {
		t.Fatal("zero params should error")
	}
}

func TestPlannerDoesNotMutateInput(t *testing.T) {
	tr := uniformTrace(50, 512<<10, device.Read, 10)
	firstOffset := tr.Records[0].Offset
	pl := Planner{Params: modelParams()}
	if _, err := pl.Analyze(tr); err != nil {
		t.Fatal(err)
	}
	if tr.Records[0].Offset != firstOffset {
		t.Fatal("Analyze sorted the caller's trace in place")
	}
}

// Property: for any workload the planner emits a valid, contiguous RST
// whose extent covers the trace.
func TestPlannerRSTValidProperty(t *testing.T) {
	pl := Planner{Params: modelParams(), MaxRequests: 16}
	prop := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8%40) + 2
		tr := &trace.Trace{}
		off := int64(0)
		var maxEnd int64
		for i := 0; i < n; i++ {
			size := int64(rng.Intn(2<<20) + 4096)
			op := device.Read
			if rng.Intn(2) == 1 {
				op = device.Write
			}
			tr.Records = append(tr.Records, trace.Record{Op: op, Offset: off, Size: size, End: 1})
			if off+size > maxEnd {
				maxEnd = off + size
			}
			off += int64(rng.Intn(1 << 20))
			off += size
		}
		plan, err := pl.Analyze(tr)
		if err != nil {
			return false
		}
		return plan.RST.Validate() == nil && plan.RST.Extent() >= maxEnd
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
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
