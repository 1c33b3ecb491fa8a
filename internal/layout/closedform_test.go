package layout

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// Closed-form critical parameters, paper Fig. 5.
//
// Section III-D derives the cost model's per-request quantities
// (m, n, s_m, s_n) analytically, case-split on where the request begins
// and ends (Fig. 4); Fig. 5 tabulates case (a), where both boundary
// sub-requests fall on HServers. This file carries that published
// derivation — with its boundary conditions worked out in full — as a
// test oracle, and cross-checks it against the one cover loop,
// Geometry.Distribute, by exhaustive enumeration.
//
// Derivation sketch (case (a), request [o, o+r), round size R = M*h+N*s):
// with r_b/r_e the first/last byte's round indices, n_b/n_e their HServer
// columns, s_b the bytes from the first byte to its stripe's end and s_e
// the bytes from its stripe's start to the last byte, an HServer column c
// accumulates (Δr-1)·h from whole middle rounds plus a first-round term
// f(c) ∈ {0, s_b, h} and a last-round term g(c) ∈ {h, s_e, 0}; maximizing
// f+g over the touched columns gives s_m, and counting columns with
// positive coverage gives m. SServer columns are covered only by whole
// rounds in case (a), so s_n = Δr·s over all N SServers (or none when the
// request stays inside one round's H zone). The published table agrees
// with this everywhere except transcription slips in its fragment-size
// row (it mixes l_e into the l_b arm); the tests pin the corrected forms.

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// CaseKind labels the four begin/end placements of Fig. 4.
type CaseKind int

// The four cases of Fig. 4.
const (
	CaseA CaseKind = iota // begins on HServer, ends on HServer
	CaseB                 // begins on HServer, ends on SServer
	CaseC                 // begins on SServer, ends on HServer
	CaseD                 // begins on SServer, ends on SServer
)

// String names the case as the paper letters it.
func (c CaseKind) String() string { return string(rune('a' + int(c))) }

// CaseOf classifies a request by where its first and last bytes land.
func (st Striping) CaseOf(off, size int64) CaseKind {
	if size <= 0 {
		panic(fmt.Sprintf("layout: CaseOf of empty request %d+%d", off, size))
	}
	beginSrv, _ := st.Locate(off)
	endSrv, _ := st.Locate(off + size - 1)
	beginsH := beginSrv < st.M
	endsH := endSrv < st.M
	switch {
	case beginsH && endsH:
		return CaseA
	case beginsH && !endsH:
		return CaseB
	case !beginsH && endsH:
		return CaseC
	default:
		return CaseD
	}
}

// DistributeCaseA computes (m, n, s_m, s_n) via the closed-form analysis
// of the paper's Fig. 5. It is defined only for case (a) requests — both
// boundary sub-requests on HServers — with M, h > 0; other inputs panic.
// Geometry.Distribute covers every case in O(M+N); this function is the
// paper's published O(1) derivation and is verified equal to it.
func (st Striping) DistributeCaseA(off, size int64) Distribution {
	if st.M <= 0 || st.H <= 0 {
		panic(fmt.Sprintf("layout: DistributeCaseA needs M>0, h>0, got %v", st))
	}
	if st.CaseOf(off, size) != CaseA {
		panic(fmt.Sprintf("layout: request %d+%d is case %v, not (a)", off, size, st.CaseOf(off, size)))
	}
	round := st.RoundSize()
	end := off + size

	rb := off / round
	re := (end - 1) / round
	lb := off - rb*round
	le := (end - 1) - re*round
	nb := int(lb / st.H)
	ne := int(le / st.H)
	sb := st.H - lb%st.H // boundary fragment at the request's start
	se := le%st.H + 1    // boundary fragment at the request's end
	dr := re - rb        // Δr
	dc := ne - nb        // Δc

	var d Distribution
	if dr == 0 {
		// The request lives inside one round's H zone: no SServer data.
		switch {
		case dc == 0:
			d.MTouched, d.MaxH = 1, size
		case dc == 1:
			d.MTouched, d.MaxH = 2, maxI64(sb, se)
		default:
			d.MTouched, d.MaxH = dc+1, st.H
		}
		return d
	}

	// dr >= 1: every SServer serves exactly Δr full stripes.
	d.NTouched, d.MaxS = st.N, dr*st.S

	// HServer columns: (Δr-1)·h from middle rounds plus the best f+g.
	base := (dr - 1) * st.H
	var peak int64
	switch {
	case dc == 0:
		// The begin and end columns coincide: it takes s_b + s_e; any
		// other column (when one exists) takes h from one partial round.
		peak = sb + se
		if st.M >= 2 {
			peak = maxI64(peak, st.H)
		}
		d.MTouched = st.M
		if dr == 1 && st.M > 1 {
			// One wrap, same column: every column is still reached by
			// either the head ([lb, R)) or the tail ([0, le]) partial.
			d.MTouched = st.M
		}
	case dc > 0:
		// Begin column takes s_b + h (head fragment + tail round),
		// end column h + s_e, and columns strictly between take 2h.
		peak = maxI64(sb, se) + st.H
		if dc > 1 {
			peak = 2 * st.H
		}
		d.MTouched = st.M
	default: // dc < 0
		// The tail partial reaches columns < n_e, the head partial
		// columns > n_b; columns in the gap (n_e, n_b) are served only
		// by whole middle rounds, absent when Δr == 1.
		peak = maxI64(sb, se)
		if ne > 0 || nb < st.M-1 {
			peak = maxI64(peak, st.H)
		}
		if dr == 1 {
			d.MTouched = st.M + 1 + dc // the paper's (M + 1 + Δc) row
		} else {
			d.MTouched = st.M
		}
	}
	d.MaxH = base + peak
	return d
}

func TestCaseOf(t *testing.T) {
	st := Striping{M: 2, N: 2, H: 10, S: 20} // H zone [0,20), S zone [20,60)
	cases := []struct {
		off, size int64
		want      CaseKind
	}{
		{0, 10, CaseA},  // within H zone
		{5, 30, CaseB},  // H -> S
		{25, 40, CaseC}, // S -> wraps -> H (ends at 64 in next round's H zone)
		{25, 20, CaseD}, // within S zone
		{0, 60, CaseB},  // a whole round: byte 0 is on an HServer, byte 59 on an SServer
	}
	for i, c := range cases {
		if got := st.CaseOf(c.off, c.size); got != c.want {
			t.Errorf("case %d: CaseOf(%d,%d) = %v, want %v", i, c.off, c.size, got, c.want)
		}
	}
	mustPanic(t, func() { st.CaseOf(0, 0) })
}

func TestCaseKindString(t *testing.T) {
	if CaseA.String() != "a" || CaseD.String() != "d" {
		t.Fatal("case letters wrong")
	}
}

// TestDistributeCaseAExhaustive enumerates every case-(a) request over a
// small geometry and checks the closed form against the exact geometric
// computation.
func TestDistributeCaseAExhaustive(t *testing.T) {
	geometries := []Striping{
		{M: 2, N: 1, H: 4, S: 6},
		{M: 3, N: 2, H: 5, S: 7},
		{M: 1, N: 1, H: 6, S: 10},
		{M: 4, N: 0, H: 3, S: 0},
		{M: 6, N: 2, H: 4, S: 12},
	}
	for _, st := range geometries {
		round := st.RoundSize()
		limit := 4 * round
		for off := int64(0); off < 2*round; off++ {
			for end := off + 1; end <= off+limit; end++ {
				size := end - off
				if st.CaseOf(off, size) != CaseA {
					continue
				}
				got := st.DistributeCaseA(off, size)
				want := st.analytic(off, size)
				if got != want {
					t.Fatalf("%v request (%d,%d): closed form %+v, exact %+v", st, off, size, got, want)
				}
			}
		}
	}
}

// Property: random case-(a) requests over realistic stripe sizes agree.
func TestDistributeCaseARandomProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := Striping{
			M: rng.Intn(6) + 1,
			N: rng.Intn(3),
			H: int64(rng.Intn(64)+1) * 4096,
			S: int64(rng.Intn(64)+1) * 4096,
		}
		if st.N == 0 {
			st.S = 0
		}
		for trial := 0; trial < 50; trial++ {
			off := rng.Int63n(16 << 20)
			size := rng.Int63n(8<<20) + 1
			if st.CaseOf(off, size) != CaseA {
				continue
			}
			if st.DistributeCaseA(off, size) != st.analytic(off, size) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDistributeCaseAPanics(t *testing.T) {
	st := Striping{M: 2, N: 2, H: 10, S: 20}
	mustPanic(t, func() { st.DistributeCaseA(25, 5) }) // case (d)
	mustPanic(t, func() { (Striping{M: 0, N: 2, H: 0, S: 10}).DistributeCaseA(0, 5) })
}
