package mpiio

import (
	"bytes"
	"math/rand"
	"testing"

	"harl/internal/cluster"
	"harl/internal/harl"
	"harl/internal/layout"
	"harl/internal/trace"
)

// world62 builds the default 6H+2S testbed with 16 ranks on 8 nodes.
func world62(t testing.TB, ranks int) (*cluster.Testbed, *World) {
	t.Helper()
	tb := cluster.MustNew(cluster.Default())
	return tb, NewWorld(tb.FS, ranks, 2)
}

func TestWorldPlacement(t *testing.T) {
	_, w := world62(t, 16)
	if w.Ranks() != 16 || w.Nodes() != 8 {
		t.Fatalf("ranks/nodes = %d/%d", w.Ranks(), w.Nodes())
	}
	if w.NodeOf(0) != 0 || w.NodeOf(1) != 0 || w.NodeOf(2) != 1 || w.NodeOf(15) != 7 {
		t.Fatal("rank->node mapping broken")
	}
	// Same-node ranks share the network attachment.
	if w.Client(0).Node() != w.Client(1).Node() {
		t.Fatal("ranks 0,1 should share a node")
	}
	if w.Client(0).Node() == w.Client(2).Node() {
		t.Fatal("ranks 0,2 should be on different nodes")
	}
	aggs := w.aggregators()
	if len(aggs) != 8 || aggs[0] != 0 || aggs[1] != 2 {
		t.Fatalf("aggregators = %v", aggs)
	}
	mustPanic(t, func() { w.Client(99) })
	mustPanic(t, func() { NewWorld(nil, 0, 1) })
}

func TestPlainFileRoundTrip(t *testing.T) {
	_, w := world62(t, 4)
	var f *PlainFile
	var got []byte
	payload := make([]byte, 300<<10)
	rand.New(rand.NewSource(1)).Read(payload)
	w.Run(func() {
		w.CreatePlain("f", layout.Fixed(6, 2, 64<<10), func(file *PlainFile, err error) {
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			f = file
			f.WriteAt(1, 5000, payload, func(error) {
				f.ReadAt(3, 5000, int64(len(payload)), func(data []byte, _ error) { got = data })
			})
		})
	})
	if !bytes.Equal(got, payload) {
		t.Fatal("round trip mismatch")
	}
	if f.Size() != 5000+int64(len(payload)) {
		t.Fatalf("size = %d", f.Size())
	}
	if f.Striping() != layout.Fixed(6, 2, 64<<10) {
		t.Fatal("striping lost")
	}
}

func TestOpenPlain(t *testing.T) {
	_, w := world62(t, 2)
	var openErr error
	w.Run(func() {
		w.CreatePlain("f", layout.Fixed(6, 2, 64<<10), func(_ *PlainFile, err error) {
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			w.OpenPlain("f", func(_ *PlainFile, err error) { openErr = err })
		})
	})
	if openErr != nil {
		t.Fatalf("open: %v", openErr)
	}
	var missErr error
	w.Run(func() {
		w.OpenPlain("nope", func(_ *PlainFile, err error) { missErr = err })
	})
	if missErr == nil {
		t.Fatal("open of missing file should fail")
	}
}

func testRST() *harl.RST {
	return &harl.RST{Entries: []harl.RSTEntry{
		{Offset: 0, End: 1 << 20, H: 16 << 10, S: 64 << 10},
		{Offset: 1 << 20, End: 3 << 20, H: 0, S: 128 << 10},
		{Offset: 3 << 20, End: 4 << 20, H: 36 << 10, S: 148 << 10},
	}}
}

func TestHARLFileRoundTripAcrossRegions(t *testing.T) {
	_, w := world62(t, 4)
	var f *HARLFile
	payload := make([]byte, 2<<20) // spans all three regions from 900KB
	rand.New(rand.NewSource(2)).Read(payload)
	const off = 900 << 10
	var got []byte
	w.Run(func() {
		w.CreateHARL("bigfile", testRST(), func(file *HARLFile, err error) {
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			f = file
			f.WriteAt(0, off, payload, func(error) {
				f.ReadAt(2, off, int64(len(payload)), func(data []byte, _ error) { got = data })
			})
		})
	})
	if !bytes.Equal(got, payload) {
		t.Fatal("cross-region round trip mismatch")
	}
	if f.RST() == nil || f.Name() != "bigfile" {
		t.Fatal("accessors broken")
	}
}

func TestHARLFileSplit(t *testing.T) {
	_, w := world62(t, 1)
	var f *HARLFile
	w.Run(func() {
		w.CreateHARL("f", testRST(), func(file *HARLFile, err error) { f = file })
	})
	// Entirely inside region 0.
	spans := harl.SplitRegions(f.ends, 0, 1000)
	if len(spans) != 1 || spans[0].Region != 0 || spans[0].Local != 0 {
		t.Fatalf("spans = %+v", spans)
	}
	// Crossing region 0->1.
	spans = harl.SplitRegions(f.ends, 1<<20-100, 200)
	if len(spans) != 2 || spans[0].Length != 100 || spans[1].Region != 1 || spans[1].Local != 0 {
		t.Fatalf("spans = %+v", spans)
	}
	// Beyond the RST extent: stays in the last region.
	spans = harl.SplitRegions(f.ends, 10<<20, 500)
	if len(spans) != 1 || spans[0].Region != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Local != 10<<20-(3<<20) {
		t.Fatalf("local = %d", spans[0].Local)
	}
	mustPanic(t, func() { harl.SplitRegions(f.ends, -1, 10) })
}

func TestHARLFileSizeTracksRegions(t *testing.T) {
	_, w := world62(t, 1)
	var f *HARLFile
	w.Run(func() {
		w.CreateHARL("f", testRST(), func(file *HARLFile, err error) { f = file })
	})
	if f.Size() != 0 {
		t.Fatalf("fresh size = %d", f.Size())
	}
	w.Run(func() {
		f.WriteAt(0, 1<<20+5000, make([]byte, 1000), func(error) {})
	})
	if f.Size() != 1<<20+6000 {
		t.Fatalf("size = %d, want %d", f.Size(), 1<<20+6000)
	}
}

func TestCreateHARLRejectsBadRST(t *testing.T) {
	_, w := world62(t, 1)
	var err1, err2 error
	w.Run(func() {
		w.CreateHARL("f", &harl.RST{}, func(_ *HARLFile, err error) { err1 = err })
		bad := &harl.RST{Entries: []harl.RSTEntry{{Offset: 5, End: 10, H: 1, S: 1}}}
		w.CreateHARL("g", bad, func(_ *HARLFile, err error) { err2 = err })
	})
	if err1 == nil || err2 == nil {
		t.Fatalf("bad RSTs accepted: %v, %v", err1, err2)
	}
}

func TestTracingFileRecords(t *testing.T) {
	_, w := world62(t, 4)
	col := trace.NewCollector()
	var tf *TracingFile
	w.Run(func() {
		w.CreatePlain("f", layout.Fixed(6, 2, 64<<10), func(file *PlainFile, err error) {
			tf = w.Trace(file, col)
			tf.WriteAt(2, 1000, make([]byte, 4096), func(error) {
				tf.ReadAt(3, 1000, 2048, func([]byte, error) {})
			})
		})
	})
	tr := col.Trace()
	if tr.Len() != 2 {
		t.Fatalf("records = %d, want 2", tr.Len())
	}
	wrec, rrec := tr.Records[0], tr.Records[1]
	if wrec.Rank != 2 || wrec.Offset != 1000 || wrec.Size != 4096 {
		t.Fatalf("write record = %+v", wrec)
	}
	if rrec.Rank != 3 || rrec.Size != 2048 {
		t.Fatalf("read record = %+v", rrec)
	}
	if wrec.End <= wrec.Start {
		t.Fatal("timestamps not captured")
	}
	if tf.Name() != "f" || tf.Inner() == nil {
		t.Fatal("accessors broken")
	}
}

func TestCollectiveWriteReadRoundTrip(t *testing.T) {
	_, w := world62(t, 8)
	var f *PlainFile
	// Each rank contributes a contiguous 128KB block of a 1MB extent —
	// a dense interleaved pattern like BTIO's.
	const block = 128 << 10
	payload := make([]byte, 8*block)
	rand.New(rand.NewSource(3)).Read(payload)

	pieces := make([][]CollPiece, 8)
	for r := 0; r < 8; r++ {
		off := int64(r) * block
		pieces[r] = []CollPiece{{Off: off, Data: payload[off : off+block]}}
	}
	var collErr error
	var bufs [][][]byte
	w.Run(func() {
		w.CreatePlain("coll", layout.Fixed(6, 2, 64<<10), func(file *PlainFile, err error) {
			f = file
			w.CollectiveWrite(f, pieces, func(err error) {
				collErr = err
				ranges := make([][]CollRange, 8)
				for r := 0; r < 8; r++ {
					ranges[r] = []CollRange{{Off: int64(r) * block, Size: block}}
				}
				w.CollectiveRead(f, ranges, func(out [][][]byte, err error) {
					bufs = out
				})
			})
		})
	})
	if collErr != nil {
		t.Fatalf("collective write: %v", collErr)
	}
	for r := 0; r < 8; r++ {
		want := payload[int64(r)*block : int64(r+1)*block]
		if !bytes.Equal(bufs[r][0], want) {
			t.Fatalf("rank %d read back wrong data", r)
		}
	}
}

func TestCollectiveWriteInterleavedFine(t *testing.T) {
	// Nested-strided pattern: each rank owns every 8th 4KB cell. The
	// aggregators must coalesce these into large contiguous writes.
	_, w := world62(t, 8)
	const cell = 4 << 10
	const cells = 256
	payload := make([]byte, cells*cell)
	rand.New(rand.NewSource(4)).Read(payload)
	pieces := make([][]CollPiece, 8)
	for c := 0; c < cells; c++ {
		r := c % 8
		off := int64(c) * cell
		pieces[r] = append(pieces[r], CollPiece{Off: off, Data: payload[off : off+cell]})
	}
	var f *PlainFile
	var got []byte
	w.Run(func() {
		w.CreatePlain("btio-like", layout.Fixed(6, 2, 64<<10), func(file *PlainFile, err error) {
			f = file
			w.CollectiveWrite(f, pieces, func(err error) {
				if err != nil {
					t.Errorf("collective write: %v", err)
					return
				}
				f.ReadAt(0, 0, int64(len(payload)), func(data []byte, _ error) { got = data })
			})
		})
	})
	if !bytes.Equal(got, payload) {
		t.Fatal("interleaved collective write corrupted data")
	}
}

func TestCollectiveOnHARLFile(t *testing.T) {
	_, w := world62(t, 4)
	const block = 512 << 10
	payload := make([]byte, 4*block) // 2MB: spans RST regions 0-1
	rand.New(rand.NewSource(5)).Read(payload)
	pieces := make([][]CollPiece, 4)
	for r := 0; r < 4; r++ {
		off := int64(r) * block
		pieces[r] = []CollPiece{{Off: off, Data: payload[off : off+block]}}
	}
	var got []byte
	w.Run(func() {
		w.CreateHARL("hf", testRST(), func(f *HARLFile, err error) {
			w.CollectiveWrite(f, pieces, func(err error) {
				if err != nil {
					t.Errorf("collective write: %v", err)
					return
				}
				f.ReadAt(1, 0, int64(len(payload)), func(data []byte, _ error) { got = data })
			})
		})
	})
	if !bytes.Equal(got, payload) {
		t.Fatal("collective write through HARL file corrupted data")
	}
}

func TestCollectiveEmpty(t *testing.T) {
	_, w := world62(t, 4)
	writeDone, readDone := false, false
	w.Run(func() {
		w.CreatePlain("e", layout.Fixed(6, 2, 64<<10), func(f *PlainFile, _ error) {
			w.CollectiveWrite(f, make([][]CollPiece, 4), func(error) { writeDone = true })
			w.CollectiveRead(f, make([][]CollRange, 4), func([][][]byte, error) { readDone = true })
		})
	})
	if !writeDone || !readDone {
		t.Fatal("empty collectives must still complete")
	}
	mustPanic(t, func() { w.CollectiveWrite(nil, make([][]CollPiece, 3), nil) })
	mustPanic(t, func() { w.CollectiveRead(nil, make([][]CollRange, 3), nil) })
}

func TestSplitDomains(t *testing.T) {
	b := splitDomains(0, 100, 4)
	if len(b) != 5 || b[0] != 0 || b[4] != 100 {
		t.Fatalf("bounds = %v", b)
	}
	if domainOf(0, b) != 0 || domainOf(99, b) != 3 || domainOf(25, b) != 1 {
		t.Fatal("domainOf broken")
	}
	// Offsets past the end clamp to the last domain.
	if domainOf(1000, b) != 3 {
		t.Fatal("overflow should clamp")
	}
}

func TestMergePieces(t *testing.T) {
	ivs := mergePieces([]CollPiece{
		{Off: 10, Data: []byte("bb")},
		{Off: 0, Data: []byte("aa")},
		{Off: 2, Data: []byte("cc")},
	})
	if len(ivs) != 2 {
		t.Fatalf("intervals = %+v", ivs)
	}
	if ivs[0].off != 0 || string(ivs[0].data) != "aacc" {
		t.Fatalf("first = %+v", ivs[0])
	}
	if ivs[1].off != 10 || string(ivs[1].data) != "bb" {
		t.Fatalf("second = %+v", ivs[1])
	}
	// Overlap: later piece wins.
	ivs = mergePieces([]CollPiece{
		{Off: 0, Data: []byte("xxxx")},
		{Off: 2, Data: []byte("yyyy")},
	})
	if len(ivs) != 1 || string(ivs[0].data) != "xxyyyy" {
		t.Fatalf("overlap merge = %+v", ivs)
	}
	if mergePieces(nil) != nil {
		t.Fatal("empty merge")
	}
}

func TestMergeRanges(t *testing.T) {
	rs := mergeRanges([]CollRange{{Off: 10, Size: 5}, {Off: 0, Size: 5}, {Off: 5, Size: 5}})
	if len(rs) != 1 || rs[0].Off != 0 || rs[0].Size != 15 {
		t.Fatalf("merged = %+v", rs)
	}
	rs = mergeRanges([]CollRange{{Off: 0, Size: 5}, {Off: 100, Size: 5}})
	if len(rs) != 2 {
		t.Fatalf("disjoint merged = %+v", rs)
	}
	if mergeRanges(nil) != nil {
		t.Fatal("empty merge")
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
