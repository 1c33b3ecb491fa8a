package harl

import (
	"bytes"
	"math"
	"strings"
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

func TestFingerprintRoundTrip(t *testing.T) {
	fp := &PlanFingerprint{
		Threshold: 1.25,
		Regions: []RegionFingerprint{
			{Offset: 0, End: 1 << 20, H: 36 << 10, S: 148 << 10, Requests: 100,
				MeanSize: 65536.5, CV: 0.123456789, WriteMix: 0.75,
				SizeDeciles: [9]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}},
			{Offset: 1 << 20, End: 2 << 20, H: 0, S: 512 << 10, Requests: 42,
				MeanSize: math.Pi * 1e5, CV: 2, WriteMix: 0,
				SizeDeciles: [9]float64{10, 20, 30, 40, 50, 60, 70, 80, 90}},
		},
	}
	var b bytes.Buffer
	if err := fp.Write(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFingerprint(&b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Threshold != fp.Threshold {
		t.Errorf("threshold %v, want %v", got.Threshold, fp.Threshold)
	}
	if len(got.Regions) != len(fp.Regions) {
		t.Fatalf("got %d regions, want %d", len(got.Regions), len(fp.Regions))
	}
	for i := range fp.Regions {
		if got.Regions[i] != fp.Regions[i] {
			t.Errorf("region %d round-trips to %+v, want %+v", i, got.Regions[i], fp.Regions[i])
		}
	}
}

// TestFingerprintWriteRejectsInvalid: Write validates first, so it
// never emits a fingerprint ReadFingerprint would refuse.
func TestFingerprintWriteRejectsInvalid(t *testing.T) {
	region := RegionFingerprint{Offset: 0, End: 10, H: 4096, Requests: 1, MeanSize: 1}
	gap := region
	gap.Offset, gap.End = 20, 30
	for name, bad := range map[string]*PlanFingerprint{
		"NaN threshold": {Threshold: math.NaN(), Regions: []RegionFingerprint{region}},
		"gap":           {Threshold: 1, Regions: []RegionFingerprint{region, gap}},
	} {
		var buf bytes.Buffer
		if err := bad.Write(&buf); err == nil {
			t.Errorf("%s: invalid fingerprint written as %q", name, buf.String())
		} else if buf.Len() != 0 {
			t.Errorf("%s: refused fingerprint still wrote %q", name, buf.String())
		}
	}
}

func TestFingerprintReadRejectsGarbage(t *testing.T) {
	for name, in := range map[string]string{
		"no header":    "threshold 1\n0 1 1 1 1 1 0 0 0 0 0 0 0 0 0 0 0\n",
		"no threshold": fpHeader + "\n",
		"short line":   fpHeader + "\nthreshold 1\n0 1 1 1\n",
		"bad float":    fpHeader + "\nthreshold x\n",
		"gap": fpHeader + "\nthreshold 1\n" +
			"0 10 4096 0 1 1 0 1 1 1 1 1 1 1 1 1 1\n" +
			"20 30 4096 0 1 1 0 1 1 1 1 1 1 1 1 1 1\n",
		"NaN threshold": fpHeader + "\nthreshold NaN\n0 10 4096 0 1 1 0 1 1 1 1 1 1 1 1 1 1\n",
		"NaN mean":      fpHeader + "\nthreshold 1\n0 10 4096 0 1 NaN 0 1 1 1 1 1 1 1 1 1 1\n",
		"NaN write mix": fpHeader + "\nthreshold 1\n0 10 4096 0 1 1 0 NaN 1 1 1 1 1 1 1 1 1\n",
		"Inf decile":    fpHeader + "\nthreshold 1\n0 10 4096 0 1 1 0 1 1 1 1 1 +Inf 1 1 1 1\n",
		"zero stripes":  fpHeader + "\nthreshold 1\n0 10 0 0 1 1 0 1 1 1 1 1 1 1 1 1 1\n",
		"negative S":    fpHeader + "\nthreshold 1\n0 10 4096 -1 1 1 0 1 1 1 1 1 1 1 1 1 1\n",
		"second threshold": fpHeader + "\nthreshold 100\n0 10 4096 0 1 1 0 1 1 1 1 1 1 1 1 1 1\n" +
			"threshold 7\n",
		"second header": fpHeader + "\nthreshold 1\n" + fpHeader + "\n0 10 4096 0 1 1 0 1 1 1 1 1 1 1 1 1 1\n",
	} {
		if _, err := ReadFingerprint(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadFingerprint accepted malformed input", name)
		}
	}
}
