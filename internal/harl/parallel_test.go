package harl

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"harl/internal/device"
	"harl/internal/trace"
)

// searchTraces is the trace zoo the determinism tests sweep: uniform
// reads/writes (IOR-like), a mixed-size region, and a tiny-average
// degenerate region.
func searchTraces() map[string][]trace.Record {
	mixed := uniformTrace(40, 256<<10, device.Read, 30).Records
	mixed = append(mixed, uniformTrace(40, 1<<20, device.Write, 31).Records...)
	tiny := []trace.Record{
		{Op: device.Read, Offset: 0, Size: 512, End: 1},
		{Op: device.Write, Offset: 512, Size: 1024, End: 1},
	}
	return map[string][]trace.Record{
		"uniform-read":  uniformTrace(96, 512<<10, device.Read, 27).Records,
		"uniform-write": uniformTrace(96, 512<<10, device.Write, 28).Records,
		"mixed":         mixed,
		"tiny":          tiny,
	}
}

func avgSize(recs []trace.Record) float64 {
	var total int64
	for _, r := range recs {
		total += r.Size
	}
	return float64(total) / float64(len(recs))
}

// TestOptimizeRegionParallelBitIdentical is the intra-region differential
// test: every Parallelism setting, with and without the cache and the
// pruning layer, must return the bit-identical (pair, cost) of the serial
// uncached search (the seed implementation's path).
func TestOptimizeRegionParallelBitIdentical(t *testing.T) {
	hOnly := modelParams()
	hOnly.N = 0
	sOnly := modelParams()
	sOnly.M = 0

	for name, recs := range searchTraces() {
		for _, params := range []struct {
			label string
			opt   Optimizer
		}{
			{"hybrid", Optimizer{Params: modelParams()}},
			{"h-only", Optimizer{Params: hOnly}},
			{"s-only", Optimizer{Params: sOnly}},
		} {
			base := params.opt
			base.Parallelism = 1
			base.noCache = true
			base.noPrune = true
			sorted := append([]trace.Record(nil), recs...)
			(&trace.Trace{Records: sorted}).SortByOffset()
			avg := avgSize(sorted)
			wantPair, wantCost := base.OptimizeRegion(sorted, 0, avg)

			variants := []Optimizer{
				{Params: params.opt.Params, Parallelism: 1},                // cache + prune, serial
				{Params: params.opt.Params, Parallelism: 1, noPrune: true}, // cache only
				{Params: params.opt.Params, Parallelism: 1, noCache: true}, // prune only
				{Params: params.opt.Params, Parallelism: 4},                // parallel, full
				{Params: params.opt.Params, Parallelism: 7},                // odd worker count
				{Params: params.opt.Params, Parallelism: 64},               // more workers than columns
				{Params: params.opt.Params},                                // GOMAXPROCS default
				{Params: params.opt.Params, Parallelism: 4, noCache: true}, // parallel uncached
				{Params: params.opt.Params, Parallelism: 4, noPrune: true}, // parallel unpruned
			}
			for vi, v := range variants {
				gotPair, gotCost := v.OptimizeRegion(sorted, 0, avg)
				if gotPair != wantPair || math.Float64bits(gotCost) != math.Float64bits(wantCost) {
					t.Fatalf("%s/%s variant %d: got (%v, %v), want (%v, %v)",
						name, params.label, vi, gotPair, gotCost, wantPair, wantCost)
				}
			}
		}
	}
}

// TestColumnsCoverGrid pins that the sharded grid enumerates exactly the
// candidate set of the seed's nested loops.
func TestColumnsCoverGrid(t *testing.T) {
	hOnly := modelParams()
	hOnly.N = 0
	sOnly := modelParams()
	sOnly.M = 0
	cases := []struct {
		label string
		opt   Optimizer
		rBar  int64
		step  int64
	}{
		{"hybrid-small", Optimizer{Params: modelParams()}, 4 << 10, 4 << 10},
		{"hybrid", Optimizer{Params: modelParams()}, 64 << 10, 4 << 10},
		{"hybrid-coarse", Optimizer{Params: modelParams()}, 512 << 10, 16 << 10},
		{"h-only", Optimizer{Params: hOnly}, 64 << 10, 4 << 10},
		{"s-only", Optimizer{Params: sOnly}, 64 << 10, 4 << 10},
	}
	for _, tc := range cases {
		want := make(map[StripePair]bool)
		switch {
		case tc.opt.Params.N == 0:
			for h := tc.step; h <= tc.rBar; h += tc.step {
				want[StripePair{H: h}] = true
			}
		case tc.opt.Params.M == 0:
			for s := tc.step; s <= tc.rBar; s += tc.step {
				want[StripePair{S: s}] = true
			}
		default:
			for h := int64(0); h <= tc.rBar; h += tc.step {
				for s := h + tc.step; s <= tc.rBar; s += tc.step {
					want[StripePair{H: h, S: s}] = true
				}
			}
		}
		got := make(map[StripePair]bool)
		for _, col := range tc.opt.columns(tc.rBar, tc.step) {
			p := col.start
			for i := int64(0); i < col.n; i++ {
				if got[p] {
					t.Fatalf("%s: candidate %v enumerated twice", tc.label, p)
				}
				got[p] = true
				p.H += col.delta.H
				p.S += col.delta.S
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: columns enumerate %d candidates, nested loops %d", tc.label, len(got), len(want))
		}
	}
}

// TestAnalyzeParallelMatchesSerial checks the region-level pool: plans
// from serial and parallel Analyze are deeply equal (same regions, same
// stripes, bit-identical model costs, same RST).
func TestAnalyzeParallelMatchesSerial(t *testing.T) {
	tr := &trace.Trace{}
	off := int64(0)
	rng := rand.New(rand.NewSource(33))
	for phase := 0; phase < 4; phase++ {
		size := int64(32<<10) << uint(2*phase)
		for i := 0; i < 80; i++ {
			op := device.Read
			if rng.Intn(3) == 0 {
				op = device.Write
			}
			tr.Records = append(tr.Records, trace.Record{Op: op, Offset: off, Size: size, End: 1})
			off += size
		}
	}
	serial := Planner{Params: modelParams(), ChunkSize: 8 << 20, MaxRequests: 32, Parallelism: 1}
	want, err := serial.Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 3, 8, 0} {
		pl := serial
		pl.Parallelism = par
		got, err := pl.Analyze(tr)
		if err != nil {
			t.Fatalf("Parallelism=%d: %v", par, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Parallelism=%d plan differs:\n got %+v\nwant %+v", par, got, want)
		}
	}
}

// TestSampleRecordsClamp is the regression test for the float-rounding
// index overflow: across adversarial lengths and caps every sampled index
// must stay in range and the sample must keep its size.
func TestSampleRecordsClamp(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7, 11, 127, 129, 1000, 4096} {
		recs := make([]trace.Record, n)
		for i := range recs {
			recs[i] = trace.Record{Op: device.Read, Offset: int64(i) * 4096, Size: 4096, End: 1}
		}
		for _, maxReq := range []int{1, 2, 3, 7, 64, 128} {
			opt := Optimizer{Params: modelParams(), MaxRequests: maxReq}
			sample := opt.sampleRecords(recs) // panics on out-of-range index
			want := maxReq
			if n <= maxReq {
				want = n
			}
			if len(sample) != want {
				t.Fatalf("n=%d max=%d: sample = %d, want %d", n, maxReq, len(sample), want)
			}
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	if workers(3) != 3 {
		t.Fatal("explicit parallelism not honored")
	}
	if workers(0) < 1 {
		t.Fatal("default parallelism must be at least 1")
	}
	if workers(-2) < 1 {
		t.Fatal("negative parallelism must fall back to GOMAXPROCS")
	}
}

func TestScatterCoversIndices(t *testing.T) {
	for _, p := range []int{1, 2, 5, 16} {
		for _, n := range []int{0, 1, 5, 100} {
			hits := make([]int32, n)
			var order [16][]int
			scatter(p, n, func(w, i int) {
				hits[i]++
				order[w] = append(order[w], i)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("p=%d n=%d: index %d executed %d times", p, n, i, h)
				}
			}
			for w, seq := range order {
				for j := 1; j < len(seq); j++ {
					if seq[j] <= seq[j-1] {
						t.Fatalf("p=%d n=%d: worker %d saw indices out of order: %v", p, n, w, seq)
					}
				}
			}
		}
	}
}
