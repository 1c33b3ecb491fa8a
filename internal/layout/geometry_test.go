package layout

import (
	"math/rand"
	"testing"
)

// randomStripings yields a spread of configurations including the
// degenerate H==0 / S==0 layouts and single-class systems.
func randomStripings(rng *rand.Rand, n int) []Striping {
	sts := []Striping{
		{M: 6, N: 2, H: 4 << 10, S: 64 << 10},
		{M: 6, N: 2, H: 0, S: 64 << 10},
		{M: 6, N: 2, H: 64 << 10, S: 0},
		{M: 4, N: 0, H: 16 << 10, S: 0},
		{M: 0, N: 3, H: 0, S: 32 << 10},
		{M: 1, N: 1, H: 4 << 10, S: 8 << 10},
	}
	for len(sts) < n {
		st := Striping{
			M: rng.Intn(8),
			N: rng.Intn(8),
			H: int64(rng.Intn(64)) * 4096,
			S: int64(rng.Intn(64)) * 4096,
		}
		if st.Validate() != nil {
			continue
		}
		sts = append(sts, st)
	}
	return sts
}

func TestGeometryMatchesDistributeAnalytic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, st := range randomStripings(rng, 40) {
		if _, err := NewGeometry(TieredOf(st)); err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		for trial := 0; trial < 200; trial++ {
			off := rng.Int63n(1 << 28)
			size := rng.Int63n(4<<20) + 1
			// Cross-check the cover loop against the exact fragment walk.
			if got, want := st.analytic(off, size), st.Distribute(off, size); got != want {
				t.Fatalf("%v Distribute(%d,%d) = %+v, walk %+v", st, off, size, got, want)
			}
		}
	}
}

func TestGeometryErrorsAndPanics(t *testing.T) {
	if _, err := NewGeometry(TieredOf(Striping{})); err == nil {
		t.Fatal("empty striping accepted")
	}
	if _, err := NewGeometry(TieredOf(Striping{M: 2, N: 2, H: 0, S: 0})); err == nil {
		t.Fatal("zero-stripe striping accepted")
	}
	g, err := NewGeometry(TieredOf(Striping{M: 2, N: 2, H: 4096, S: 8192}))
	if err != nil {
		t.Fatal(err)
	}
	loads := []Load{{1, 1}, {1, 1}}
	if g.Distribute(0, 0, loads); loads[0] != (Load{}) || loads[1] != (Load{}) {
		t.Fatalf("zero-size request distributes to %v, want nothing", loads)
	}
	mustPanicGeom(t, func() { g.Distribute(-1, 10, loads) })
	mustPanicGeom(t, func() { g.Distribute(0, -1, loads) })
	mustPanicGeom(t, func() { g.Distribute(0, 10, loads[:1]) })
}

func mustPanicGeom(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}
