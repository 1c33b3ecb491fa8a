package main

import (
	"errors"
	"testing"

	"harl/internal/btio"
	"harl/internal/cluster"
	"harl/internal/experiments"
	"harl/internal/harl"
	"harl/internal/ior"
	"harl/internal/layout"
	"harl/internal/mpiio"
	"harl/internal/sim"
)

// outcome fingerprints a run: every event and the final virtual time.
type outcome struct {
	events uint64
	end    sim.Time
}

// testRST is a two-region table over a 32 MB file, so requests split.
var testRST = harl.RST{Entries: []harl.RSTEntry{
	{Offset: 0, End: 16 << 20, H: 64 << 10, S: 64 << 10},
	{Offset: 16 << 20, End: 32 << 20, H: 16 << 10, S: 128 << 10},
}}

// runOnHARL runs fn against a fresh HARL file, through the recorder when
// rec is not nil.
func runOnHARL(t *testing.T, ranks int, rec *recorder, fn func(w *mpiio.World, f mpiio.PhantomFile) error) outcome {
	t.Helper()
	tb := cluster.MustNew(cluster.Default())
	w := mpiio.NewWorld(tb.FS, ranks, 2)
	var f *mpiio.HARLFile
	var err error
	w.Run(func() { w.CreateHARL("f", &testRST, func(file *mpiio.HARLFile, e error) { f, err = file, e }) })
	if err != nil {
		t.Fatal(err)
	}
	var file mpiio.PhantomFile = f
	if rec != nil {
		rec.engine = tb.Engine
		file = timedFile{PhantomFile: f, rec: rec}
	}
	if err := fn(w, file); err != nil {
		t.Fatal(err)
	}
	return outcome{tb.Engine.Processed, tb.Engine.Now()}
}

func TestTimedFileIsAPureObserver(t *testing.T) {
	cfg := ior.Config{Ranks: 16, RanksPerNode: 2, RequestSize: 512 << 10, FileSize: 32 << 20, Random: true, Seed: 3}
	runIOR := func(w *mpiio.World, f mpiio.PhantomFile) error {
		_, err := ior.Run(w, f, cfg)
		return err
	}
	var rec recorder
	bare, timed := runOnHARL(t, cfg.Ranks, nil, runIOR), runOnHARL(t, cfg.Ranks, &rec, runIOR)
	if bare != timed {
		t.Fatalf("phantom ior: recorded run reached %+v, bare %+v", timed, bare)
	}
	if want := 2 * cfg.FileSize; rec.acked != want || len(rec.latMs) != rec.attempted || rec.failed != 0 {
		t.Fatalf("phantom ior: acked %d of %d bytes, %d samples of %d requests, %d failed", rec.acked, want, len(rec.latMs), rec.attempted, rec.failed)
	}

	bt := btio.ClassS(4)
	runBT := func(w *mpiio.World, f mpiio.PhantomFile) error {
		res, err := btio.Run(w, f, bt)
		if err == nil && !res.Verified {
			t.Error("btio did not verify")
		}
		return err
	}
	rec = recorder{}
	bare, timed = runOnHARL(t, bt.Ranks, nil, runBT), runOnHARL(t, bt.Ranks, &rec, runBT)
	if bare != timed {
		t.Fatalf("btio: recorded run reached %+v, bare %+v", timed, bare)
	}
	if want := 2 * bt.TotalBytes(); rec.acked != want {
		t.Fatalf("btio: acked %d of %d bytes", rec.acked, want)
	}
}

// A failed request counts as failed and its bytes as requested but not
// acked, so the gate's byte checks hold while failed_frac counts it.
func TestRecorderCountsFailedOps(t *testing.T) {
	rec := recorder{engine: sim.NewEngine(1)}
	rec.end(rec.begin(0, 100), 100, nil)
	rec.end(rec.begin(100, 50), 50, errors.New("timed out"))
	if rec.attempted != 2 || rec.failed != 1 || len(rec.latMs) != 1 {
		t.Fatalf("attempted %d, failed %d, %d latency samples", rec.attempted, rec.failed, len(rec.latMs))
	}
	if rec.issued != 150 || rec.acked != 100 || rec.failedBytes != 50 {
		t.Fatalf("issued %d, acked %d, failed %d bytes", rec.issued, rec.acked, rec.failedBytes)
	}
}

func TestCountingMapperIsAPureObserverAndMatchesReplay(t *testing.T) {
	cfg := ior.Config{Ranks: 16, RanksPerNode: 2, RequestSize: 96 << 10, FileSize: 48 << 20, Random: true, Seed: 5}
	st := layout.Striping{M: 6, N: 2, H: 16 << 10, S: 48 << 10}
	run := func(lo layout.Mapper, rec *recorder) outcome {
		tb := cluster.MustNew(cluster.Default())
		w := mpiio.NewWorld(tb.FS, cfg.Ranks, cfg.RanksPerNode)
		var f *mpiio.PlainFile
		var err error
		w.Run(func() { w.CreatePlain("f", lo, func(file *mpiio.PlainFile, e error) { f, err = file, e }) })
		if err != nil {
			t.Fatal(err)
		}
		rec.engine, rec.keepReqs = tb.Engine, true
		if _, err := ior.Run(w, timedFile{PhantomFile: f, rec: rec}, cfg); err != nil {
			t.Fatal(err)
		}
		return outcome{tb.Engine.Processed, tb.Engine.Now()}
	}
	var bareRec, countedRec recorder
	counted := &countingMapper{Mapper: st}
	if bare, got := run(st, &bareRec), run(counted, &countedRec); bare != got {
		t.Fatalf("counted run reached %+v, bare %+v", got, bare)
	}
	calls := mapCalls([]mapRegion{{end: 1 << 62, m: st}}, countedRec.reqs)
	if counted.calls != int64(len(calls)) || counted.calls != int64(countedRec.attempted) {
		t.Fatalf("file system made %d Map calls; replay %d; requests %d", counted.calls, len(calls), countedRec.attempted)
	}
}

func TestMapCallsSplitAtRegionBoundaries(t *testing.T) {
	regions := rstRegions(&testRST, 6, 2)
	calls := mapCalls(regions, []request{
		{off: 0, size: 1 << 20},             // inside region 0
		{off: 16<<20 - 4096, size: 8192},    // straddles the boundary
		{off: 40 << 20, size: 1 << 20},      // past the extent: the open-ended last region
		{off: 16<<20 - 1, size: 16<<20 + 2}, // covers region 1 and runs past it
	})
	want := []mapCall{
		{regions[0].m, 0, 1 << 20},
		{regions[0].m, 16<<20 - 4096, 4096},
		{regions[1].m, 0, 4096},
		{regions[1].m, 24 << 20, 1 << 20},
		{regions[0].m, 16<<20 - 1, 1},
		{regions[1].m, 0, 16<<20 + 1},
	}
	if len(calls) != len(want) {
		t.Fatalf("got %d calls, want %d: %+v", len(calls), len(want), calls)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Errorf("call %d = %+v, want %+v", i, calls[i], want[i])
		}
	}
}

// The harness's scale_huge write phase must issue exactly the event
// sequence of experiments.RunScaleHuge (at seed 1: 1,229,314 events,
// virtual end 2.320871934 s).
func TestScaleHugeMatchesExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ScaleHuge twice at full size")
	}
	want, err := experiments.RunScaleHuge(1)
	if err != nil {
		t.Fatal(err)
	}
	it := newIter(1, 0, newSpanLog())
	if err := runScaleHuge(it); err != nil {
		t.Fatal(err)
	}
	if it.writeEvents != want.Events || it.virt.WriteTime.Seconds() != want.EndSeconds {
		t.Fatalf("write phase: %d events ending at %vs; RunScaleHuge: %d events ending at %vs",
			it.writeEvents, it.virt.WriteTime.Seconds(), want.Events, want.EndSeconds)
	}
	if len(it.failures) > 0 {
		t.Fatal(it.failures)
	}
}

func TestPayloadDetectsStaleAndMisplacedData(t *testing.T) {
	const off, size = 3 << 20, 256 << 10
	if !holds(payload(1, off, size), 1, off) {
		t.Fatal("a range does not hold its own payload")
	}
	if holds(payload(0, off, size), 1, off) {
		t.Error("the populate pass's bytes pass for the overwrite's")
	}
	if holds(payload(1, off+size, size), 1, off) {
		t.Error("the next range's bytes pass for this range's")
	}
	stale := payload(1, off, size)
	copy(stale[size/2:], payload(0, off+size/2, 8))
	if holds(stale, 1, off) {
		t.Error("one stale word in the middle goes unnoticed")
	}
}
