// Differential tests for the parallel Analysis Phase: across the paper's
// three workload families — uniform IOR, the non-uniform four-region
// modified IOR, and BTIO — the parallel planner must emit a plan
// byte-identical to the serial planner's (same regions, same stripe
// pairs, bit-identical model costs, identical serialized RST).
//
// This lives in an external test package so it can drive the real
// benchmark trace generators (package ior pulls in mpiio, which imports
// harl).
package harl_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"harl/internal/btio"
	"harl/internal/cluster"
	"harl/internal/cost"
	"harl/internal/harl"
	"harl/internal/ior"
	"harl/internal/layout"
	"harl/internal/mpiio"
	"harl/internal/trace"
)

func diffParams() cost.Params {
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

// iorUniformTrace is the shared-file IOR workload (random offsets, one
// request size) the paper's Figs. 6-9 use.
func iorUniformTrace(t *testing.T) *trace.Trace {
	t.Helper()
	cfg := ior.Config{
		Ranks:        16,
		RanksPerNode: 2,
		RequestSize:  512 << 10,
		FileSize:     128 << 20,
		Random:       true,
		Seed:         1,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg.Trace()
}

// iorFourRegionTrace is the paper's Section IV-B-5 non-uniform workload,
// scaled down: four regions with growing request sizes.
func iorFourRegionTrace(t *testing.T) *trace.Trace {
	t.Helper()
	cfg := ior.MultiConfig{
		Ranks:        16,
		RanksPerNode: 2,
		Regions: []ior.RegionSpec{
			{Size: 8 << 20, RequestSize: 64 << 10},
			{Size: 32 << 20, RequestSize: 256 << 10},
			{Size: 64 << 20, RequestSize: 512 << 10},
			{Size: 128 << 20, RequestSize: 2 << 20},
		},
		Seed: 1,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg.Trace()
}

// btioTrace collects a real BTIO request stream the way the Tracing Phase
// does: a class-S collective run on the default fixed layout with the
// IOSIG interposition layer recording below collective buffering.
func btioTrace(t *testing.T) *trace.Trace {
	t.Helper()
	cfg := btio.ClassS(4)
	cfg.Verify = false
	tb, err := cluster.New(cluster.Default())
	if err != nil {
		t.Fatal(err)
	}
	w := mpiio.NewWorld(tb.FS, cfg.Ranks, cfg.RanksPerNode)
	collector := trace.NewCollector()
	var traced *mpiio.TracingFile
	var createErr error
	w.Run(func() {
		st := layout.Striping{M: 6, N: 2, H: 64 << 10, S: 64 << 10}
		w.CreatePlain("btio", st, func(file *mpiio.PlainFile, err error) {
			if err != nil {
				createErr = err
				return
			}
			traced = w.Trace(file, collector)
		})
	})
	if createErr != nil {
		t.Fatal(createErr)
	}
	if _, err := btio.Run(w, traced, cfg); err != nil {
		t.Fatal(err)
	}
	return collector.Trace()
}

func TestAnalyzeDifferentialAcrossWorkloads(t *testing.T) {
	traces := map[string]*trace.Trace{
		"ior-uniform":     iorUniformTrace(t),
		"ior-four-region": iorFourRegionTrace(t),
		"btio":            btioTrace(t),
	}
	for name, tr := range traces {
		serial := harl.Planner{
			Params:      diffParams(),
			ChunkSize:   1 << 20,
			MaxRequests: 64,
			Parallelism: 1,
		}
		want, err := serial.Analyze(tr)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		for _, par := range []int{2, 4, 0} {
			pl := serial
			pl.Parallelism = par
			got, err := pl.Analyze(tr)
			if err != nil {
				t.Fatalf("%s parallel=%d: %v", name, par, err)
			}
			// Regions: same divisions, stripes, write mixes; model costs
			// compared to the bit.
			if len(got.Regions) != len(want.Regions) {
				t.Fatalf("%s parallel=%d: %d regions, want %d", name, par, len(got.Regions), len(want.Regions))
			}
			for i := range want.Regions {
				g, w := got.Regions[i], want.Regions[i]
				if g.Region != w.Region || g.Stripes != w.Stripes || g.WriteMix != w.WriteMix ||
					math.Float64bits(g.ModelCost) != math.Float64bits(w.ModelCost) {
					t.Fatalf("%s parallel=%d region %d: %+v != %+v", name, par, i, g, w)
				}
			}
			if got.Threshold != want.Threshold {
				t.Fatalf("%s parallel=%d: threshold %v != %v", name, par, got.Threshold, want.Threshold)
			}
			if !reflect.DeepEqual(got.RST, want.RST) {
				t.Fatalf("%s parallel=%d: RST differs", name, par)
			}
			// Byte-identical serialized tables.
			var gb, wb bytes.Buffer
			if err := got.RST.Write(&gb); err != nil {
				t.Fatal(err)
			}
			if err := want.RST.Write(&wb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
				t.Fatalf("%s parallel=%d: serialized RSTs differ:\n%s\nvs\n%s", name, par, gb.String(), wb.String())
			}
		}
	}
}
