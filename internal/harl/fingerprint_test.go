package harl

import (
	"math"
	"testing"

	"harl/internal/device"
	"harl/internal/stats"
	"harl/internal/trace"
)

// fpTestRecords builds n same-size requests covering [base, base+n*size).
func fpTestRecords(base, size int64, n int, op device.Op) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			PID: 1000, Rank: 0, FD: 3, Op: op,
			Offset: base + int64(i)*size, Size: size,
			Start: 0, End: 1,
		}
	}
	return recs
}

func TestFingerprintAlignsWithMergedRST(t *testing.T) {
	p := modelParams()
	tr := &trace.Trace{}
	// Two workload halves with very different request sizes, so division
	// splits them and the optimizer picks different pairs.
	tr.Records = append(tr.Records, fpTestRecords(0, 64<<10, 256, device.Write)...)
	tr.Records = append(tr.Records, fpTestRecords(16<<20, 2<<20, 64, device.Write)...)
	plan, err := Planner{Params: p, ChunkSize: 4 << 20}.Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	fp := plan.Fingerprint
	if fp == nil {
		t.Fatal("plan has no fingerprint")
	}
	if err := fp.Validate(); err != nil {
		t.Fatalf("planner-built fingerprint does not validate: %v", err)
	}
	if len(fp.Regions) != len(plan.RST.Entries) {
		t.Fatalf("fingerprint has %d regions, RST has %d entries",
			len(fp.Regions), len(plan.RST.Entries))
	}
	total := 0
	for i, r := range fp.Regions {
		e := plan.RST.Entries[i]
		if r.Offset != e.Offset || r.End != e.End || r.H != e.H || r.S != e.S {
			t.Errorf("region %d fingerprint %+v misaligned with RST entry %+v", i, r, e)
		}
		if r.Requests == 0 {
			t.Errorf("region %d fingerprint has no requests", i)
		}
		if r.MeanSize <= 0 {
			t.Errorf("region %d mean size %v", i, r.MeanSize)
		}
		if r.WriteMix != 1 {
			t.Errorf("region %d write mix %v, want 1 (write-only trace)", i, r.WriteMix)
		}
		if r.SizeDeciles[0] <= 0 || r.SizeDeciles[8] < r.SizeDeciles[0] {
			t.Errorf("region %d deciles %v not monotone positive", i, r.SizeDeciles)
		}
		total += r.Requests
	}
	if total != tr.Len() {
		t.Errorf("fingerprint accounts for %d requests, trace has %d", total, tr.Len())
	}
	if err := fp.Validate(); err != nil {
		t.Errorf("fingerprint invalid: %v", err)
	}

	// Each region's summary must equal the statistics recomputed directly
	// from the requests its bounds contain (last region open-ended).
	for i, r := range fp.Regions {
		var sizes []float64
		for _, rec := range tr.Records {
			if rec.Offset >= r.Offset && (rec.Offset < r.End || i == len(fp.Regions)-1) {
				sizes = append(sizes, float64(rec.Size))
			}
		}
		if len(sizes) != r.Requests {
			t.Errorf("region %d: fingerprint says %d requests, bounds contain %d", i, r.Requests, len(sizes))
			continue
		}
		if want := stats.Mean(sizes); math.Abs(r.MeanSize-want) > 1e-6*want {
			t.Errorf("region %d mean %v, want %v", i, r.MeanSize, want)
		}
		if want := stats.CV(sizes); math.Abs(r.CV-want) > 1e-9+1e-6*want {
			t.Errorf("region %d CV %v, want %v", i, r.CV, want)
		}
		if want := stats.Percentile(sizes, 50); math.Abs(r.SizeDeciles[4]-want) > 1e-6*want {
			t.Errorf("region %d median %v, want %v", i, r.SizeDeciles[4], want)
		}
	}
}

// fingerprintCase is one PlanFingerprint.Validate table row.
type fingerprintCase struct {
	name string
	fp   PlanFingerprint
	ok   bool
}

// validFingerprintRegion is a one-request region that passes Validate;
// withRegion returns it as a one-region list after edit.
var validFingerprintRegion = RegionFingerprint{Offset: 0, End: 4096, H: 4096, Requests: 1, MeanSize: 1, WriteMix: 1,
	SizeDeciles: [9]float64{1, 1, 1, 1, 1, 1, 1, 1, 1}}

func withRegion(edit func(*RegionFingerprint)) []RegionFingerprint {
	r := validFingerprintRegion
	edit(&r)
	return []RegionFingerprint{r}
}

func checkFingerprintCases(t *testing.T, cases []fingerprintCase) {
	t.Helper()
	for _, c := range cases {
		if err := c.fp.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestFingerprintWriteRejectsInvalid: Validate is the gate between the
// planner that writes a fingerprint and the monitor that reads it
// (monitor.New refuses one that fails), so a fingerprint whose threshold
// or region layout could not have come from a plan must fail it: the
// regions must tile the file like an RST's, each with a usable pair.
func TestFingerprintWriteRejectsInvalid(t *testing.T) {
	region := validFingerprintRegion
	next := region
	next.Offset, next.End = 4096, 8192
	gap := region
	gap.Offset, gap.End = 20000, 30000
	checkFingerprintCases(t, []fingerprintCase{
		{"one region", PlanFingerprint{Threshold: 1, Regions: []RegionFingerprint{region}}, true},
		{"two regions", PlanFingerprint{Threshold: 1.25, Regions: []RegionFingerprint{region, next}}, true},
		{"NaN threshold", PlanFingerprint{Threshold: math.NaN(), Regions: []RegionFingerprint{region}}, false},
		{"negative threshold", PlanFingerprint{Threshold: -1, Regions: []RegionFingerprint{region}}, false},
		{"gap", PlanFingerprint{Threshold: 1, Regions: []RegionFingerprint{region, gap}}, false},
		{"zero stripes", PlanFingerprint{Threshold: 1, Regions: withRegion(func(r *RegionFingerprint) { r.H = 0 })}, false},
		{"negative H", PlanFingerprint{Threshold: 1, Regions: withRegion(func(r *RegionFingerprint) { r.H, r.S = -4096, 8192 })}, false},
		{"negative S", PlanFingerprint{Threshold: 1, Regions: withRegion(func(r *RegionFingerprint) { r.S = -1 })}, false},
	})
}

// TestFingerprintReadRejectsGarbage: every per-region statistic the
// monitor reads out of a fingerprint must be a finite number in range,
// or Validate fails; a region that saw no requests keeps zero statistics
// and passes.
func TestFingerprintReadRejectsGarbage(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	stat := func(name string, edit func(*RegionFingerprint)) fingerprintCase {
		return fingerprintCase{name, PlanFingerprint{Threshold: 1, Regions: withRegion(edit)}, false}
	}
	checkFingerprintCases(t, []fingerprintCase{
		{"empty region", PlanFingerprint{Threshold: 1, Regions: withRegion(func(r *RegionFingerprint) {
			*r = RegionFingerprint{Offset: 0, End: 4096, S: 65536}
		})}, true},
		stat("negative requests", func(r *RegionFingerprint) { r.Requests = -1 }),
		stat("NaN mean", func(r *RegionFingerprint) { r.MeanSize = nan }),
		stat("+Inf mean", func(r *RegionFingerprint) { r.MeanSize = inf }),
		stat("NaN CV", func(r *RegionFingerprint) { r.CV = nan }),
		stat("NaN write mix", func(r *RegionFingerprint) { r.WriteMix = nan }),
		stat("write mix above 1", func(r *RegionFingerprint) { r.WriteMix = 1.5 }),
		stat("NaN decile", func(r *RegionFingerprint) { r.SizeDeciles[5] = nan }),
		stat("+Inf decile", func(r *RegionFingerprint) { r.SizeDeciles[5] = inf }),
		stat("negative decile", func(r *RegionFingerprint) { r.SizeDeciles[0] = -1 }),
	})
}
