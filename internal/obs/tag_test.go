package obs

import (
	"bytes"
	"math"
	"strconv"
	"testing"
	"unsafe"

	"harl/internal/sim"
)

// TestTagIntRendersLazily checks that an integer tag keeps its value,
// reads back as the same decimal text a string tag would carry, and
// exports byte-identically to that string tag.
func TestTagIntRendersLazily(t *testing.T) {
	if n := unsafe.Sizeof(Tag{}); n != 32 {
		t.Fatalf("Tag is %d bytes, want 32", n)
	}
	for _, v := range []int64{0, 1, -1, 42, 1 << 40, math.MinInt64, math.MaxInt64} {
		it, st := TInt("bytes", v), T("bytes", strconv.FormatInt(v, 10))
		if n, ok := it.Int(); !ok || n != v {
			t.Errorf("TInt(%d).Int() = (%d, %v)", v, n, ok)
		}
		if _, ok := st.Int(); ok {
			t.Errorf("string tag %q reads as an integer", st.Value())
		}
		if it.Value() != st.Value() || it.String() != "bytes="+st.Value() {
			t.Errorf("TInt(%d) reads %q / %q", v, it.Value(), it.String())
		}
		export := func(tag Tag) string {
			var buf bytes.Buffer
			s := Span{ID: 1, Track: "h0", Name: "disk", End: 5, Tags: []Tag{tag}}
			if err := WriteChromeSpans(&buf, []Span{s}, nil); err != nil {
				t.Fatal(err)
			}
			return buf.String()
		}
		if a, b := export(it), export(st); a != b {
			t.Errorf("TInt(%d) exports\n%s\nstring tag exports\n%s", v, a, b)
		}
	}
	var zero Tag
	if zero.Value() != "" || T("k", "").Value() != "" {
		t.Error("empty tags read non-empty")
	}
	if _, ok := zero.Int(); ok {
		t.Error("the zero Tag reads as an integer")
	}
}

// TestRetainedTagsStayOwn checks the retaining arena: neither End nor a
// caller appending to a retained span's tags writes into a neighbour's.
func TestRetainedTagsStayOwn(t *testing.T) {
	tr := NewTracer(sim.NewEngine(1))
	a := tr.Begin("c0", "a", 0, T("k", "a"))
	b := tr.Begin("c0", "b", 0, T("k", "b"))
	tr.End(a, T("status", "ok"), TInt("n", 7))
	tr.End(b)
	spans := tr.Spans()
	if v, _ := spans[0].Tag("n"); v != "7" || len(spans[0].Tags) != 3 {
		t.Fatalf("span a's tags: %v", spans[0].Tags)
	}
	tr.Begin("c0", "c", 0, T("k", "c"))
	_ = append(tr.Spans()[b-1].Tags, T("k", "clobbered"))
	for _, s := range tr.Spans() {
		if v, _ := s.Tag("k"); v != s.Name {
			t.Fatalf("appending to span b's tags overwrote span %s's: %v", s.Name, s.Tags)
		}
	}
}
