package trace

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"harl/internal/device"
	"harl/internal/sim"
)

func rec(op device.Op, off, size int64) Record {
	return Record{PID: 100, Rank: 0, FD: 3, Op: op, Offset: off, Size: size, Start: 1, End: 2}
}

func TestRecordValidate(t *testing.T) {
	if err := rec(device.Read, 0, 1).Validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	bad := []Record{
		{Offset: -1, Size: 1, End: 1},
		{Offset: 0, Size: 0, End: 1},
		{Offset: 0, Size: 1, Start: 5, End: 1},
		{Offset: 0, Size: 1, End: 1, Op: device.Op(9)},
		{Offset: math.MaxInt64 - 7, Size: 100, End: 1},
	}
	for i, r := range bad {
		if r.Validate() == nil {
			t.Errorf("bad record %d validated", i)
		}
	}
}

func TestCollector(t *testing.T) {
	c := NewCollector()
	c.Record(rec(device.Read, 100, 10))
	c.Record(rec(device.Write, 0, 20))
	tr := c.Trace()
	if tr.Len() != 2 {
		t.Fatalf("len = %d", tr.Len())
	}
	// Capture order preserved.
	if tr.Records[0].Offset != 100 {
		t.Fatal("capture order broken")
	}
	mustPanic(t, func() { c.Record(Record{Size: -1}) })
}

func TestSortByOffsetStable(t *testing.T) {
	tr := &Trace{Records: []Record{
		rec(device.Read, 300, 1),
		rec(device.Write, 100, 2),
		rec(device.Read, 100, 3),
		rec(device.Read, 200, 4),
	}}
	tr.SortByOffset()
	offs := []int64{100, 100, 200, 300}
	for i, want := range offs {
		if tr.Records[i].Offset != want {
			t.Fatalf("order = %+v", tr.Records)
		}
	}
	// Stability: the two offset-100 records keep relative order (sizes 2, 3).
	if tr.Records[0].Size != 2 || tr.Records[1].Size != 3 {
		t.Fatal("sort is not stable")
	}
}

func TestSortByStart(t *testing.T) {
	tr := &Trace{Records: []Record{
		{Size: 1, Start: 30, End: 31},
		{Size: 1, Start: 10, End: 11},
		{Size: 1, Start: 20, End: 21},
	}}
	tr.SortByStart()
	if tr.Records[0].Start != 10 || tr.Records[2].Start != 30 {
		t.Fatalf("order = %+v", tr.Records)
	}
}

// TestSortMatchesStableOracle checks both sorts against sort.SliceStable
// on traces crowded with equal keys: the order must be identical, ties
// in capture order.
func TestSortMatchesStableOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 2, 17, 1000, 5000} {
		for _, keys := range []int64{1, 3, 64} {
			recs := make([]Record, n)
			for i := range recs {
				recs[i] = Record{Rank: i, Offset: rng.Int63n(keys) * 4096, Size: 4096, Start: sim.Time(rng.Int63n(keys))}
			}
			for _, c := range []struct {
				name string
				sort func(*Trace)
				less func(a, b Record) bool
			}{
				{"offset", (*Trace).SortByOffset, func(a, b Record) bool { return a.Offset < b.Offset }},
				{"start", (*Trace).SortByStart, func(a, b Record) bool { return a.Start < b.Start }},
			} {
				want := append([]Record(nil), recs...)
				sort.SliceStable(want, func(i, j int) bool { return c.less(want[i], want[j]) })
				got := &Trace{Records: append([]Record(nil), recs...)}
				c.sort(got)
				if !reflect.DeepEqual(got.Records, want) {
					t.Fatalf("%s sort, n=%d keys=%d: order differs from sort.SliceStable", c.name, n, keys)
				}
			}
		}
	}
}

func BenchmarkSortByOffset(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	recs := make([]Record, 65536)
	for i := range recs {
		recs[i] = rec(device.Read, rng.Int63n(1<<20)*4096, 4096)
	}
	tr := &Trace{Records: make([]Record, len(recs))}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(tr.Records, recs)
		tr.SortByOffset()
	}
}

func TestFilterReadsWrites(t *testing.T) {
	tr := &Trace{Records: []Record{
		rec(device.Read, 0, 1),
		rec(device.Write, 1, 1),
		rec(device.Read, 2, 1),
	}}
	if tr.Reads().Len() != 2 || tr.Writes().Len() != 1 {
		t.Fatalf("reads/writes = %d/%d", tr.Reads().Len(), tr.Writes().Len())
	}
	// Filter must not alias the original backing array.
	tr.Reads().Records[0].Offset = 999
	if tr.Records[0].Offset == 999 {
		t.Fatal("filter aliases the source trace")
	}
}

func TestSummarize(t *testing.T) {
	tr := &Trace{Records: []Record{
		rec(device.Read, 0, 100),
		rec(device.Write, 1000, 300),
		rec(device.Read, 50, 200),
	}}
	s := tr.Summarize()
	if s.Requests != 3 || s.Reads != 2 || s.Writes != 1 {
		t.Fatalf("counts: %+v", s)
	}
	if s.Bytes != 600 || s.BytesRead != 300 || s.BytesWrite != 300 {
		t.Fatalf("bytes: %+v", s)
	}
	if s.MinSize != 100 || s.MaxSize != 300 || s.AvgSize != 200 {
		t.Fatalf("sizes: %+v", s)
	}
	if s.MaxOffset != 1300 {
		t.Fatalf("extent = %d", s.MaxOffset)
	}
	if s.DistinctFDs != 1 {
		t.Fatalf("fds = %d", s.DistinctFDs)
	}
	if (&Trace{}).Summarize().Requests != 0 {
		t.Fatal("empty trace summary should be zero")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	tr := &Trace{Records: []Record{
		{PID: 1, Rank: 2, FD: 3, Op: device.Read, Offset: 4, Size: 5, Start: 6, End: 7},
		{PID: 10, Rank: 0, FD: 5, Op: device.Write, Offset: 1 << 40, Size: 512 << 10, Start: 0, End: sim.Time(3 * sim.Second)},
	}}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, tr.Records) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got.Records, tr.Records)
	}
}

func TestReadSkipsCommentsAndBlank(t *testing.T) {
	in := "#iosig-trace v1\n\n# a comment\n1 0 3 r 0 100 0 5\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 || tr.Records[0].Size != 100 {
		t.Fatalf("parsed %+v", tr.Records)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"1 0 3 r 0 100 0 5\n",                                    // missing header
		"#iosig-trace v1\n1 0 3 r 0 100\n",                       // short line
		"#iosig-trace v1\n1 0 3 x 0 100 0 5\n",                   // bad op
		"#iosig-trace v1\nz 0 3 r 0 100 0 5\n",                   // bad pid
		"#iosig-trace v1\n1 0 3 r -9 100 0 5\n",                  // negative offset
		"#iosig-trace v1\n1 0 3 r 0 0 0 5\n",                     // zero size
		"#iosig-trace v1\n1 0 3 r 0 100 9 5\n",                   // end before start
		"#iosig-trace v1\n1 0 3 r 0 1e3 0 5\n",                   // non-integer size
		"#iosig-trace v1\n1 0 3 r 0 100 0 5 66\n",                // extra field
		"#iosig-trace v1\n1 0 3 w 9223372036854775800 100 0 1\n", // offset+size overflows int64
		// A second header mid-file.
		"#iosig-trace v1\n1 0 3 r 0 100 0 5\n#iosig-trace v1\n2 0 3 r 100 100 0 5\n",
	}
	for i, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: bad input accepted", i)
		}
	}
}

func TestReadEmptyInput(t *testing.T) {
	tr, err := Read(strings.NewReader(""))
	if err != nil {
		t.Fatalf("empty input: %v", err)
	}
	if tr.Len() != 0 {
		t.Fatal("empty input should give empty trace")
	}
}

// Property: Write/Read round-trips arbitrary valid traces.
func TestCodecProperty(t *testing.T) {
	prop := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{}
		for i := 0; i < int(n8%50); i++ {
			op := device.Read
			if rng.Intn(2) == 1 {
				op = device.Write
			}
			start := sim.Time(rng.Int63n(1 << 40))
			tr.Records = append(tr.Records, Record{
				PID:    rng.Intn(1 << 15),
				Rank:   rng.Intn(1024),
				FD:     rng.Intn(64),
				Op:     op,
				Offset: rng.Int63n(1 << 45),
				Size:   rng.Int63n(1<<22) + 1,
				Start:  start,
				End:    start + sim.Time(rng.Int63n(1<<30)),
			})
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Records, tr.Records) ||
			(len(got.Records) == 0 && len(tr.Records) == 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
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
