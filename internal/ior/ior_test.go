package ior

import (
	"testing"

	"harl/internal/cluster"
	"harl/internal/device"
	"harl/internal/layout"
	"harl/internal/mpiio"
)

// smallCfg is a fast test configuration: 4 ranks, 64 MB file.
func smallCfg() Config {
	c := Default()
	c.Ranks = 4
	c.FileSize = 64 << 20
	return c
}

// runOn builds a testbed, creates a plain file with the striping, and
// runs cfg against it.
func runOn(t *testing.T, cfg Config, st layout.Striping) Result {
	t.Helper()
	tb := cluster.MustNew(cluster.Default())
	w := mpiio.NewWorld(tb.FS, cfg.Ranks, cfg.RanksPerNode)
	var f *mpiio.PlainFile
	w.Run(func() {
		w.CreatePlain("ior", st, func(file *mpiio.PlainFile, err error) {
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			f = file
		})
	})
	res, err := Run(w, f, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Ranks = 0 },
		func(c *Config) { c.RanksPerNode = 0 },
		func(c *Config) { c.RequestSize = 0 },
		func(c *Config) { c.FileSize = c.RequestSize }, // too small for 16 ranks
		func(c *Config) { c.RequestsPerRank = -1 },
	}
	for i, mutate := range bad {
		c := Default()
		mutate(&c)
		if c.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestPlanStaysInSlabs(t *testing.T) {
	cfg := smallCfg()
	plans := cfg.Plan()
	if len(plans) != cfg.Ranks {
		t.Fatalf("plans = %d", len(plans))
	}
	slab := cfg.FileSize / int64(cfg.Ranks)
	for r, offs := range plans {
		base := int64(r) * slab
		if len(offs) != int(slab/cfg.RequestSize) {
			t.Fatalf("rank %d issues %d requests", r, len(offs))
		}
		for _, off := range offs {
			if off < base || off+cfg.RequestSize > base+slab {
				t.Fatalf("rank %d offset %d escapes slab [%d,%d)", r, off, base, base+slab)
			}
			if off%cfg.RequestSize != 0 {
				t.Fatalf("offset %d not aligned", off)
			}
		}
	}
}

func TestPlanDeterministic(t *testing.T) {
	cfg := smallCfg()
	a, b := cfg.Plan(), cfg.Plan()
	for r := range a {
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				t.Fatal("plan not deterministic")
			}
		}
	}
	cfg2 := cfg
	cfg2.Seed++
	c := cfg2.Plan()
	same := true
	for r := range a {
		for i := range a[r] {
			if a[r][i] != c[r][i] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds gave identical random plans")
	}
}

func TestPlanSequentialMode(t *testing.T) {
	cfg := smallCfg()
	cfg.Random = false
	plans := cfg.Plan()
	slab := cfg.FileSize / int64(cfg.Ranks)
	for r, offs := range plans {
		for i, off := range offs {
			if off != int64(r)*slab+int64(i)*cfg.RequestSize {
				t.Fatalf("sequential plan broken at rank %d req %d", r, i)
			}
		}
	}
}

func TestPlanRequestCap(t *testing.T) {
	cfg := smallCfg()
	cfg.RequestsPerRank = 3
	for _, offs := range cfg.Plan() {
		if len(offs) != 3 {
			t.Fatalf("cap ignored: %d", len(offs))
		}
	}
}

func TestTraceMatchesPlan(t *testing.T) {
	cfg := smallCfg()
	tr := cfg.Trace()
	plans := cfg.Plan()
	var planned int
	for _, offs := range plans {
		planned += len(offs)
	}
	if tr.Len() != 2*planned {
		t.Fatalf("trace %d records, plan %d x2 phases", tr.Len(), planned)
	}
	// First half writes, second half reads.
	if tr.Records[0].Op != device.Write || tr.Records[tr.Len()-1].Op != device.Read {
		t.Fatal("phase ops wrong")
	}
	// Same offsets in both phases.
	if tr.Records[0].Offset != tr.Records[planned].Offset {
		t.Fatal("phases should replay the same plan")
	}
}

// A random uniform Config is the one-region case of the modified IOR:
// its trace equals that of a MultiConfig whose single region spans the
// file, request cap included.
func TestUniformIsOneRegionMulti(t *testing.T) {
	cfg := smallCfg()
	cfg.RequestsPerRank = 5
	multi := MultiConfig{
		Ranks: cfg.Ranks, RanksPerNode: cfg.RanksPerNode, Seed: cfg.Seed,
		Regions:                  []RegionSpec{{Size: cfg.FileSize, RequestSize: cfg.RequestSize}},
		RequestsPerRankPerRegion: cfg.RequestsPerRank,
	}
	a, b := cfg.Trace(), multi.Trace()
	if a.Len() != b.Len() || a.Len() != 2*cfg.Ranks*5 {
		t.Fatalf("uniform trace %d records, one-region multi %d", a.Len(), b.Len())
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d: uniform %+v, one-region multi %+v", i, a.Records[i], b.Records[i])
		}
	}
}

func TestRunProducesThroughput(t *testing.T) {
	res := runOn(t, smallCfg(), layout.Fixed(6, 2, 64<<10))
	if res.WriteBytes != 64<<20 || res.ReadBytes != 64<<20 {
		t.Fatalf("bytes = %d/%d", res.WriteBytes, res.ReadBytes)
	}
	if res.WriteTime <= 0 || res.ReadTime <= 0 {
		t.Fatalf("times = %v/%v", res.WriteTime, res.ReadTime)
	}
	if res.WriteMBs() <= 0 || res.ReadMBs() <= 0 {
		t.Fatal("throughput not positive")
	}
	// Reads outrun writes on this hybrid (SSD writes are slower and HDDs
	// are symmetric), at equal request streams.
	if res.ReadMBs() < res.WriteMBs()*0.5 {
		t.Fatalf("read %f MB/s unexpectedly slow vs write %f MB/s", res.ReadMBs(), res.WriteMBs())
	}
}

func TestRunRejectsMismatchedWorld(t *testing.T) {
	tb := cluster.MustNew(cluster.Default())
	w := mpiio.NewWorld(tb.FS, 2, 2)
	var f *mpiio.PlainFile
	w.Run(func() {
		w.CreatePlain("f", layout.Fixed(6, 2, 64<<10), func(file *mpiio.PlainFile, _ error) { f = file })
	})
	cfg := smallCfg() // wants 4 ranks
	if _, err := Run(w, f, cfg); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	cfg.Ranks = 0
	if _, err := Run(w, f, cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestStripeSizeMattersAtFixedLayouts(t *testing.T) {
	// The motivation of Fig. 1(b): different stripe sizes give materially
	// different throughput for the same workload.
	cfg := smallCfg()
	small := runOn(t, cfg, layout.Fixed(6, 2, 16<<10))
	large := runOn(t, cfg, layout.Fixed(6, 2, 512<<10))
	ratio := small.ReadMBs() / large.ReadMBs()
	if ratio > 0.8 && ratio < 1.25 {
		t.Fatalf("16K vs 512K stripes read throughput within 25%% (%.1f vs %.1f MB/s): stripe size should matter",
			small.ReadMBs(), large.ReadMBs())
	}
}

func TestMultiValidate(t *testing.T) {
	if err := DefaultMulti().Validate(); err != nil {
		t.Fatalf("default multi invalid: %v", err)
	}
	bad := DefaultMulti()
	bad.Regions = nil
	if bad.Validate() == nil {
		t.Fatal("no regions accepted")
	}
	bad = DefaultMulti()
	bad.Regions[0].Size = bad.Regions[0].RequestSize // too small
	if bad.Validate() == nil {
		t.Fatal("tiny region accepted")
	}
}

func TestMultiFileSize(t *testing.T) {
	if got := DefaultMulti().FileSize(); got != 256<<20+1<<30+2<<30+4<<30 {
		t.Fatalf("file size = %d", got)
	}
}

func smallMulti() MultiConfig {
	return MultiConfig{
		Ranks:        4,
		RanksPerNode: 2,
		Regions: []RegionSpec{
			{Size: 8 << 20, RequestSize: 64 << 10},
			{Size: 16 << 20, RequestSize: 512 << 10},
			{Size: 32 << 20, RequestSize: 1 << 20},
		},
		Seed: 1,
	}
}

func TestMultiPlanRegionsRespected(t *testing.T) {
	cfg := smallMulti()
	tr := cfg.Trace()
	// Requests must use each region's request size within its bounds.
	bounds := []int64{0, 8 << 20, 24 << 20, 56 << 20}
	sizes := []int64{64 << 10, 512 << 10, 1 << 20}
	for _, rec := range tr.Records {
		var ri int
		for ri = 0; ri < 3; ri++ {
			if rec.Offset >= bounds[ri] && rec.Offset < bounds[ri+1] {
				break
			}
		}
		if ri == 3 {
			t.Fatalf("request at %d outside file", rec.Offset)
		}
		if rec.Size != sizes[ri] {
			t.Fatalf("request at %d has size %d, region wants %d", rec.Offset, rec.Size, sizes[ri])
		}
		if rec.Offset+rec.Size > bounds[ri+1] {
			t.Fatalf("request at %d crosses region boundary", rec.Offset)
		}
	}
}

func TestRunMulti(t *testing.T) {
	cfg := smallMulti()
	tb := cluster.MustNew(cluster.Default())
	w := mpiio.NewWorld(tb.FS, cfg.Ranks, cfg.RanksPerNode)
	var f *mpiio.PlainFile
	w.Run(func() {
		w.CreatePlain("multi", layout.Fixed(6, 2, 64<<10), func(file *mpiio.PlainFile, _ error) { f = file })
	})
	res, err := RunMulti(w, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteBytes != 56<<20 || res.ReadBytes != 56<<20 {
		t.Fatalf("bytes = %d/%d, want both %d", res.WriteBytes, res.ReadBytes, 56<<20)
	}
	if res.WriteMBs() <= 0 || res.ReadMBs() <= 0 {
		t.Fatal("throughput not positive")
	}
}

func TestRunMultiRejects(t *testing.T) {
	tb := cluster.MustNew(cluster.Default())
	w := mpiio.NewWorld(tb.FS, 2, 2)
	var f *mpiio.PlainFile
	w.Run(func() {
		w.CreatePlain("f", layout.Fixed(6, 2, 64<<10), func(file *mpiio.PlainFile, _ error) { f = file })
	})
	if _, err := RunMulti(w, f, smallMulti()); err == nil {
		t.Fatal("rank mismatch accepted")
	}
}
