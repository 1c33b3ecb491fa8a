package mpiio

import (
	"testing"

	"harl/internal/harl"
)

// TestHARLFileFanOutAllocs pins the allocations of one logical request
// that crosses a region boundary, for each of HARLFile's four request
// methods, once the pools are warm. Every IOR request the benchmark
// issues goes through this fan-out, so a new allocation per request or
// per span shows up here first.
func TestHARLFileFanOutAllocs(t *testing.T) {
	tb, w := world62(t, 1)
	rst := &harl.RST{Entries: []harl.RSTEntry{
		{Offset: 0, End: 1 << 20, H: 16 << 10, S: 64 << 10},
		{Offset: 1 << 20, End: 2 << 20, H: 0, S: 128 << 10},
	}}
	var f *HARLFile
	w.Run(func() {
		w.CreateHARL("pin", rst, func(file *HARLFile, err error) {
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			f = file
		})
	})
	// 256 KB on each side of the region boundary.
	const off, size = 768 << 10, 512 << 10
	payload := make([]byte, size)
	var failed error
	check := func(err error) {
		if err != nil {
			failed = err
		}
	}
	readCheck := func(_ []byte, err error) { check(err) }
	for _, c := range []struct {
		name  string
		want  float64
		issue func()
	}{
		{"WriteZeros", 8, func() { f.WriteZeros(0, off, size, check) }},
		{"ReadDiscard", 8, func() { f.ReadDiscard(0, off, size, check) }},
		{"WriteAt", 18, func() { f.WriteAt(0, off, payload, check) }},
		{"ReadAt", 19, func() { f.ReadAt(0, off, size, readCheck) }},
	} {
		if got := harl.SplitRegions(f.ends, off, size); len(got) != 2 {
			t.Fatalf("request splits into %d spans, want 2", len(got))
		}
		allocs := testing.AllocsPerRun(20, func() {
			c.issue()
			tb.Engine.Run()
		})
		if failed != nil {
			t.Fatalf("%s: %v", c.name, failed)
		}
		if allocs != c.want {
			t.Errorf("%s: %v allocs per request, want %v", c.name, allocs, c.want)
		}
	}
}
