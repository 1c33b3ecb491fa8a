package layout

import (
	"fmt"
	"testing"
	"testing/quick"
)

// Distribution is one request's spread over the two tiers of a Striping
// — the four quantities (m, n, s_m, s_n) the paper's cost model consumes
// (Section III-D, Fig. 5): the number of HServers and SServers touched
// and the largest sub-request size on each class. The oracles below
// produce it so their results compare with ==.
type Distribution struct {
	MTouched int   // m: HServers serving part of the request
	NTouched int   // n: SServers serving part of the request
	MaxH     int64 // s_m: largest sub-request on any HServer
	MaxS     int64 // s_n: largest sub-request on any SServer
}

// Distribute is the fragment-walk oracle: it derives the Distribution
// from Map's sub-requests, so it is exact by construction for every
// placement case at O(size/min stripe) per call.
func (st Striping) Distribute(off, size int64) Distribution {
	var d Distribution
	for _, sub := range st.Map(off, size) {
		if sub.Server < st.M {
			d.MTouched++
			d.MaxH = max(d.MaxH, sub.Size)
		} else {
			d.NTouched++
			d.MaxS = max(d.MaxS, sub.Size)
		}
	}
	return d
}

// analytic runs the production cover loop, Geometry.Distribute, on a
// two-tier striping and returns its loads as a Distribution. It panics
// if st does not validate.
func (st Striping) analytic(off, size int64) Distribution {
	g, err := NewGeometry(TieredOf(st))
	if err != nil {
		panic(err)
	}
	var l [2]Load
	g.Distribute(off, size, l[:])
	return Distribution{MTouched: l[0].Touched, NTouched: l[1].Touched, MaxH: l[0].Max, MaxS: l[1].Max}
}

// Property: the cover loop agrees exactly with the fragment walk for
// arbitrary configurations and ranges.
func TestDistributeAnalyticMatchesWalkProperty(t *testing.T) {
	prop := func(m8, n8 uint8, h16, s16 uint16, off32, size32 uint32) bool {
		m := int(m8%7) + 1
		n := int(n8 % 7)
		h := int64(h16%32) * 4096
		s := int64(s16%32) * 4096
		st := Striping{M: m, N: n, H: h, S: s}
		if st.Validate() != nil {
			return true
		}
		off := int64(off32 % (4 << 20))
		size := int64(size32 % (4 << 20))
		return st.analytic(off, size) == st.Distribute(off, size)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDistributeAnalyticHandWorked(t *testing.T) {
	st := Striping{M: 2, N: 1, H: 10, S: 30}
	// Same example as TestDistributeByHand.
	d := st.analytic(5, 40)
	want := Distribution{MTouched: 2, NTouched: 1, MaxH: 10, MaxS: 25}
	if d != want {
		t.Fatalf("d = %+v, want %+v", d, want)
	}
	if got := st.analytic(0, 0); got != (Distribution{}) {
		t.Fatalf("zero-size = %+v", got)
	}
}

func TestDistributeAnalyticPanics(t *testing.T) {
	st := Fixed(2, 2, 1024)
	mustPanic(t, func() { st.analytic(-1, 5) })
	mustPanic(t, func() { (Striping{M: 1, N: 1}).analytic(0, 5) })
}

// The four sub-request distribution cases of the paper's Figure 4: the
// request may begin and end on either server class. Check each case's
// class participation explicitly.
func TestDistributeFigure4Cases(t *testing.T) {
	st := Striping{M: 2, N: 2, H: 10, S: 20} // round: H zone [0,20), S zone [20,60)
	cases := []struct {
		name     string
		off, end int64
		wantHs   bool // request touches an HServer
		wantSs   bool // request touches an SServer
	}{
		{"a: begins H, ends H", 5, 15, true, false},
		{"b: begins H, ends S", 5, 45, true, true},
		{"c: begins S, ends H (crosses round)", 25, 75, true, true},
		{"d: begins S, ends S", 25, 55, false, true},
	}
	for _, c := range cases {
		d := st.analytic(c.off, c.end-c.off)
		if (d.MTouched > 0) != c.wantHs || (d.NTouched > 0) != c.wantSs {
			t.Errorf("%s: distribution %+v", c.name, d)
		}
		if d != st.Distribute(c.off, c.end-c.off) {
			t.Errorf("%s: analytic and walk disagree", c.name)
		}
	}
}

var loadSink []Load

// BenchmarkDistribute times the one cover loop on the paper's 6H+2S,
// with 16K HServer and 128K SServer stripes, and on a three-tier layout,
// for IOR's 512 KB request and a 2 MB one.
func BenchmarkDistribute(b *testing.B) {
	for _, c := range []struct {
		name string
		tt   Tiered
	}{
		{"6H+2S", TieredOf(Striping{M: 6, N: 2, H: 16 << 10, S: 128 << 10})},
		{"3tier", Tiered{Counts: []int{6, 1, 1}, Stripes: []int64{16 << 10, 64 << 10, 256 << 10}}},
	} {
		g, err := NewGeometry(c.tt)
		if err != nil {
			b.Fatal(err)
		}
		loads := make([]Load, len(c.tt.Counts))
		for _, size := range []int64{512 << 10, 2 << 20} {
			b.Run(fmt.Sprintf("%s/size=%dK", c.name, size>>10), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					g.Distribute(123456, size, loads)
				}
				loadSink = loads
			})
		}
	}
}
