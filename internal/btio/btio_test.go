package btio

import (
	"testing"

	"harl/internal/cluster"
	"harl/internal/harl"
	"harl/internal/layout"
	"harl/internal/mpiio"
)

func TestValidate(t *testing.T) {
	if err := ClassS(4).Validate(); err != nil {
		t.Fatalf("class S invalid: %v", err)
	}
	if err := ClassA(16).Validate(); err != nil {
		t.Fatalf("class A invalid: %v", err)
	}
	bad := []Config{
		{Ranks: 3, RanksPerNode: 2, Grid: 12, TimeSteps: 60, Interval: 5}, // not square
		{Ranks: 4, RanksPerNode: 0, Grid: 12, TimeSteps: 60, Interval: 5}, // bad node packing
		{Ranks: 4, RanksPerNode: 2, Grid: 13, TimeSteps: 60, Interval: 5}, // grid % p != 0
		{Ranks: 4, RanksPerNode: 2, Grid: 12, TimeSteps: 0, Interval: 5},  // no steps
		{Ranks: 4, RanksPerNode: 2, Grid: 12, TimeSteps: 60, Interval: 0}, // no interval
		{Ranks: 0, RanksPerNode: 2, Grid: 12, TimeSteps: 60, Interval: 5}, // no ranks
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestSizes(t *testing.T) {
	c := ClassA(16)
	if c.SnapshotBytes() != 64*64*64*CellBytes {
		t.Fatalf("snapshot = %d", c.SnapshotBytes())
	}
	if c.Snapshots() != 40 {
		t.Fatalf("snapshots = %d", c.Snapshots())
	}
	if c.TotalBytes() != 40*c.SnapshotBytes() {
		t.Fatalf("total = %d", c.TotalBytes())
	}
}

func TestBlocksOfDiagonalPartition(t *testing.T) {
	const p = 4
	// Every process owns exactly p blocks, one per z-slab, and the p^2
	// processes tile each z-slab completely without overlap.
	for k := 0; k < p; k++ {
		seen := make(map[[2]int]int)
		for r := 0; r < p*p; r++ {
			for _, b := range blocksOf(r, p) {
				if b.bk == k {
					seen[[2]int{b.bi, b.bj}]++
				}
			}
		}
		if len(seen) != p*p {
			t.Fatalf("z-slab %d covered by %d blocks, want %d", k, len(seen), p*p)
		}
		for pos, count := range seen {
			if count != 1 {
				t.Fatalf("z-slab %d position %v owned %d times", k, pos, count)
			}
		}
	}
}

func TestPiecesTileSnapshotExactly(t *testing.T) {
	c := ClassS(4) // grid 12, p=2
	const p = 2
	covered := make(map[int64]bool)
	var total int64
	for _, pieces := range c.newSolution(p).writes(0) {
		for _, piece := range pieces {
			for i := int64(0); i < int64(len(piece.Data)); i++ {
				off := piece.Off + i
				if covered[off] {
					t.Fatalf("byte %d written twice", off)
				}
				covered[off] = true
			}
			total += int64(len(piece.Data))
		}
	}
	if total != c.SnapshotBytes() {
		t.Fatalf("pieces cover %d bytes, snapshot is %d", total, c.SnapshotBytes())
	}
}

func TestRangesMirrorPieces(t *testing.T) {
	c := ClassS(4)
	const p = 2
	sol := c.newSolution(p)
	for snap := 0; snap < 3; snap++ {
		all, ranges := sol.writes(snap), sol.reads(snap)
		for r, pieces := range all {
			if len(pieces) != len(ranges[r]) {
				t.Fatalf("rank %d: %d pieces vs %d ranges", r, len(pieces), len(ranges[r]))
			}
			for i := range pieces {
				if pieces[i].Off != ranges[r][i].Off || int64(len(pieces[i].Data)) != ranges[r][i].Size {
					t.Fatalf("snapshot %d rank %d piece %d mismatch", snap, r, i)
				}
				if lo := int64(snap) * c.SnapshotBytes(); pieces[i].Off < lo || pieces[i].Off >= lo+c.SnapshotBytes() {
					t.Fatalf("snapshot %d rank %d piece %d at %d, outside the snapshot", snap, r, i, pieces[i].Off)
				}
			}
		}
	}
}

// TestPatternMatchesFormula pins the table-window pattern to its
// definition, byte(31·elem + 101·snap + 7i), over every residue of the
// seed and rows longer than the table's period.
func TestPatternMatchesFormula(t *testing.T) {
	const row = 700
	pat := newPattern(row)
	for snap := 0; snap < 5; snap++ {
		for elem := int64(0); elem < 600; elem += 7 {
			got := pat.row(snap, elem, row)
			seed := elem*31 + int64(snap)*101
			for i := range got {
				if want := byte(seed + int64(i)*7); got[i] != want {
					t.Fatalf("snap %d elem %d byte %d = %d, want %d", snap, elem, i, got[i], want)
				}
			}
		}
	}
}

// TestSolutionRefillsEachSnapshot: the reused solution slab carries each
// snapshot's own pattern when verifying, and stays zero otherwise.
func TestSolutionRefillsEachSnapshot(t *testing.T) {
	c := ClassS(4)
	const p = 2
	sol := c.newSolution(p)
	for _, snap := range []int{0, 1, 0} {
		for r, pieces := range sol.writes(snap) {
			for i, piece := range pieces {
				if !sol.check(snap, r, i, piece.Data) {
					t.Fatalf("snapshot %d rank %d row %d not refilled", snap, r, i)
				}
			}
		}
	}
	c.Verify = false
	for _, pieces := range c.newSolution(p).writes(2) {
		for _, piece := range pieces {
			for _, b := range piece.Data {
				if b != 0 {
					t.Fatal("unverified payload must stay zero")
				}
			}
		}
	}
}

// runBTIO builds a world and runs cfg against a plain file.
func runBTIO(t *testing.T, cfg Config, st layout.Striping) Result {
	t.Helper()
	tb := cluster.MustNew(cluster.Default())
	w := mpiio.NewWorld(tb.FS, cfg.Ranks, cfg.RanksPerNode)
	var f *mpiio.PlainFile
	w.Run(func() {
		w.CreatePlain("btio", st, func(file *mpiio.PlainFile, err error) {
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

func TestRunClassSVerifies(t *testing.T) {
	cfg := ClassS(4)
	cfg.TimeSteps = 15 // 3 snapshots: keep the test fast
	res := runBTIO(t, cfg, layout.Fixed(6, 2, 64<<10))
	if !res.Verified {
		t.Fatal("verification failed")
	}
	if res.WriteBytes != cfg.TotalBytes() || res.ReadBytes != cfg.TotalBytes() {
		t.Fatalf("bytes = %d/%d, want %d", res.WriteBytes, res.ReadBytes, cfg.TotalBytes())
	}
	if res.WriteMBs() <= 0 || res.ReadMBs() <= 0 || res.AggregateMBs() <= 0 {
		t.Fatal("throughput not positive")
	}
}

func TestRunOnHARLFile(t *testing.T) {
	cfg := ClassS(4)
	cfg.TimeSteps = 10
	tb := cluster.MustNew(cluster.Default())
	w := mpiio.NewWorld(tb.FS, cfg.Ranks, cfg.RanksPerNode)
	var f *mpiio.HARLFile
	w.Run(func() {
		w.CreateHARL("btio", testRST(), func(file *mpiio.HARLFile, err error) {
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			f = file
		})
	})
	res, err := Run(w, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("verification failed through HARL file")
	}
}

// testRST covers a snapshot-and-a-bit with two differently striped
// regions so cross-region collective traffic is exercised.
func testRST() *harl.RST {
	return &harl.RST{Entries: []harl.RSTEntry{
		{Offset: 0, End: 32 << 10, H: 8 << 10, S: 32 << 10},
		{Offset: 32 << 10, End: 64 << 10, H: 0, S: 64 << 10},
	}}
}

func TestRunRejects(t *testing.T) {
	tb := cluster.MustNew(cluster.Default())
	w := mpiio.NewWorld(tb.FS, 4, 2)
	var f *mpiio.PlainFile
	w.Run(func() {
		w.CreatePlain("f", layout.Fixed(6, 2, 64<<10), func(file *mpiio.PlainFile, _ error) { f = file })
	})
	if _, err := Run(w, f, ClassS(16)); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	if _, err := Run(w, f, Config{Ranks: 3}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestDifferentProcessCountsRun(t *testing.T) {
	for _, ranks := range []int{1, 4, 16} {
		cfg := ClassS(ranks)
		cfg.TimeSteps = 5
		res := runBTIO(t, cfg, layout.Fixed(6, 2, 64<<10))
		if !res.Verified {
			t.Fatalf("ranks=%d verification failed", ranks)
		}
	}
}

func TestSimpleSubtypeVerifies(t *testing.T) {
	cfg := ClassS(4)
	cfg.TimeSteps = 10
	cfg.Subtype = Simple
	res := runBTIO(t, cfg, layout.Fixed(6, 2, 64<<10))
	if !res.Verified {
		t.Fatal("simple subtype verification failed")
	}
	if res.WriteBytes != cfg.TotalBytes() || res.ReadBytes != cfg.TotalBytes() {
		t.Fatalf("bytes = %d/%d", res.WriteBytes, res.ReadBytes)
	}
}

func TestCollectiveBeatsSimple(t *testing.T) {
	// The point of collective buffering: the full subtype's aggregated
	// requests must outrun the simple subtype's row-at-a-time I/O.
	full := ClassS(4)
	full.TimeSteps = 10
	simple := full
	simple.Subtype = Simple
	fRes := runBTIO(t, full, layout.Fixed(6, 2, 64<<10))
	sRes := runBTIO(t, simple, layout.Fixed(6, 2, 64<<10))
	if fRes.AggregateMBs() <= sRes.AggregateMBs() {
		t.Fatalf("full subtype (%.1f MB/s) should beat simple (%.1f MB/s)",
			fRes.AggregateMBs(), sRes.AggregateMBs())
	}
}

func TestSubtypeString(t *testing.T) {
	if Full.String() != "full" || Simple.String() != "simple" {
		t.Fatal("subtype names wrong")
	}
}

// TestCollectiveRunsReplayExactly: a class-S run's virtual times are a
// function of its seed alone. The collective shuffle used to emit its
// messages in map-iteration order, so same-seed runs disagreed.
func TestCollectiveRunsReplayExactly(t *testing.T) {
	cfg := ClassS(16)
	want := runBTIO(t, cfg, layout.Fixed(6, 2, 64<<10))
	for run := 1; run < 4; run++ {
		got := runBTIO(t, cfg, layout.Fixed(6, 2, 64<<10))
		if got.WriteTime != want.WriteTime || got.ReadTime != want.ReadTime {
			t.Fatalf("run %d: write/read %v/%v, first run %v/%v", run, got.WriteTime, got.ReadTime, want.WriteTime, want.ReadTime)
		}
	}
}
