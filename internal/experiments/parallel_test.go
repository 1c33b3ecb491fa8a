package experiments

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// fanoutFigs is the differential subset: cheap figures whose worlds
// still cover calibration, planning and full I/O runs.
func fanoutFigs(t *testing.T) []Figure {
	t.Helper()
	var figs []Figure
	for _, name := range []string{"1a", "7"} {
		f, ok := FigureByName(name)
		if !ok {
			t.Fatalf("figure %q missing from registry", name)
		}
		figs = append(figs, f)
	}
	return figs
}

// TestRunParallelByteIdentical is the fan-out determinism contract:
// rendered figure tables are byte-identical to the serial run at 1, 4
// and GOMAXPROCS workers. Run under -race by `make verify`, it also
// proves the worlds share no mutable state.
func TestRunParallelByteIdentical(t *testing.T) {
	o := QuickOptions()
	figs := fanoutFigs(t)
	serial, err := RunParallel(o, figs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		got, err := RunParallel(o, figs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range figs {
			if got[i].String() != serial[i].String() {
				t.Errorf("workers=%d: figure %s diverged from serial:\n got:\n%s\nwant:\n%s",
					workers, figs[i].Name, got[i], serial[i])
			}
		}
	}
}

// TestParallelOrderAndErrors pins the primitive's contract: results
// land by index, every job runs exactly once, and the lowest-index
// error is the canonical one at any worker count.
func TestParallelOrderAndErrors(t *testing.T) {
	for _, workers := range []int{1, 3, 0} {
		n := 50
		out := make([]int, n)
		if err := Parallel(workers, n, func(i int) error {
			out[i] = i + 1
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, v)
			}
		}
	}
	// Jobs 7 and 30 fail; index 7's error must win with multiple workers.
	boom7 := errors.New("boom 7")
	err := Parallel(4, 50, func(i int) error {
		switch i {
		case 7:
			return boom7
		case 30:
			return errors.New("boom 30")
		}
		return nil
	})
	if !errors.Is(err, boom7) {
		t.Fatalf("got error %v, want lowest-index boom 7", err)
	}
}

// TestFiguresRegistryComplete guards the registry against drifting from
// the figure set: every figure is named exactly once, resolvable, and
// pinned by a golden table.
func TestFiguresRegistryComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range Figures() {
		if f.Name == "" || f.Run == nil {
			t.Fatalf("malformed registry entry %+v", f)
		}
		if seen[f.Name] {
			t.Fatalf("duplicate figure %q", f.Name)
		}
		seen[f.Name] = true
		if _, ok := FigureByName(f.Name); !ok {
			t.Fatalf("figure %q not resolvable by name", f.Name)
		}
		if _, err := os.Stat(goldenPath(f.Name)); err != nil {
			t.Errorf("figure %q has no golden table: %v", f.Name, err)
		}
	}
	for _, want := range []string{"1a", "12", "chaos", "drift", "critpath", "scalehuge"} {
		if !seen[want] {
			t.Errorf("registry missing figure %q", want)
		}
	}
	if _, ok := FigureByName("no-such-figure"); ok {
		t.Error("FigureByName resolved a bogus name")
	}
}

// Seed sweeps ride the same fan-out primitive the figures use; this
// pins that a sweep over seeds is deterministic in its per-seed slots.
func TestParallelSeedSweepDeterministic(t *testing.T) {
	sweep := func(workers int) []string {
		out := make([]string, 3)
		if err := Parallel(workers, 3, func(i int) error {
			o := QuickOptions()
			o.Seed = int64(i + 1)
			run, err := runDrift(o, true, false)
			if err != nil {
				return err
			}
			out[i] = fmt.Sprintf("end=%v events=%d bytes=%d", run.End, run.Events, run.Bytes)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := sweep(1)
	parallel := sweep(0)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("seed %d diverged: serial %q, parallel %q", i+1, serial[i], parallel[i])
		}
	}
}
