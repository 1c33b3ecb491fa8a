package experiments

import (
	"fmt"
	"os"
	"strconv"
	"testing"
)

// chaosSeeds is the integrity suite's seed set: seeds 1-3, with
// CHAOS_SEED (passed through by `make chaos` and `make verify` only when
// set) prepended so any red run is reproduced by its seed alone.
func chaosSeeds(t *testing.T) []int64 {
	seeds := []int64{1, 2, 3}
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		seeds = append([]int64{n}, seeds...)
	}
	return seeds
}

// The core robustness property: whatever a seeded fault schedule does,
// every acked write reads back byte-identical once faults lift, every
// failed op surfaced an error, and nothing hung (the retry policy rides
// out every episode).
func TestChaosIntegrityUnderSeededChaos(t *testing.T) {
	seeds := chaosSeeds(t)
	results := make([]ChaosResult, len(seeds))
	// Each seed is an independent simulated world — the sweep fans out
	// on the same primitive the figure runner uses.
	if err := Parallel(0, len(seeds), func(i int) error {
		o := QuickOptions()
		o.ChaosSeed = seeds[i]
		res, err := runChaosIOR(o, o.clientPolicy(), true)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seeds[i], err)
		}
		results[i] = res
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var activity uint64
	for i, res := range results {
		seed := seeds[i]
		if res.IntegrityViolations != 0 {
			t.Errorf("seed %d: %d acked ranges failed verification\nfaults:\n%s",
				seed, res.IntegrityViolations, res.FaultLog)
		}
		if res.WatchdogFired {
			t.Errorf("seed %d: traffic hung despite the retry policy\nfaults:\n%s", seed, res.FaultLog)
		}
		if res.Hung != 0 {
			t.Errorf("seed %d: %d ops neither acked nor failed", seed, res.Hung)
		}
		if res.Acked+res.Failed != res.Issued {
			t.Errorf("seed %d: acked %d + failed %d != issued %d",
				seed, res.Acked, res.Failed, res.Issued)
		}
		activity += res.Faults.Retries + res.Faults.Timeouts +
			res.Faults.Dropped + res.Faults.FlakyErrs
	}
	if activity == 0 {
		t.Error("no fault interaction across any seed — the property was tested against nothing")
	}
}

// Chaos runs must be bit-identical at every Parallelism setting: the
// planner's worker pool must not leak into the simulation, the fault
// schedule comes from its own RNG, and the metrics are a pure function
// of (seed, config).
func TestChaosDeterministicAcrossParallelism(t *testing.T) {
	o := QuickOptions()
	var base ChaosResult
	for i, par := range []int{1, 2, 0} {
		o.Parallelism = par
		res, err := runChaosIOR(o, o.clientPolicy(), true)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if i == 0 {
			base = res
			continue
		}
		if res != base {
			t.Errorf("parallelism %d diverged:\n got %+v\nwant %+v", par, res, base)
		}
	}
	if base.Faults.Retries == 0 && base.Faults.Dropped == 0 {
		t.Error("differential run saw no fault activity — comparison is vacuous")
	}
}

// Replaying the same chaos seed must reproduce the identical result.
func TestChaosSeedReplays(t *testing.T) {
	o := QuickOptions()
	a, err := runChaosIOR(o, o.clientPolicy(), true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runChaosIOR(o, o.clientPolicy(), true)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed, different results:\n got %+v\nwant %+v", b, a)
	}
}

// Hedged reads must cut the tail against a request-dropping server: the
// hedge resolves a dropped primary at HedgeAfter instead of burning the
// full request timeout.
func TestHedgeCutsTailLatency(t *testing.T) {
	o := QuickOptions()
	plain, err := runHedgeScan(o, false, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	hedged, err := runHedgeScan(o, true, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Violations != 0 || hedged.Violations != 0 {
		t.Fatalf("reads returned wrong bytes: plain %d, hedged %d", plain.Violations, hedged.Violations)
	}
	if hedged.HedgeWins == 0 {
		t.Error("no hedge ever won against the dropping server")
	}
	if hedged.P99Ms >= plain.P99Ms {
		t.Errorf("hedging did not cut p99: hedged %.2fms vs plain %.2fms", hedged.P99Ms, plain.P99Ms)
	}
}

// Hedging must not change fault-free results: with healthy servers no
// hedge timer wins, and both scans measure identical latencies.
func TestHedgeFaultFreeInvariant(t *testing.T) {
	o := QuickOptions()
	plain, err := runHedgeScan(o, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	hedged, err := runHedgeScan(o, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hedged.Hedges != 0 {
		t.Errorf("fault-free scan issued %d hedges", hedged.Hedges)
	}
	if plain != hedged {
		t.Errorf("fault-free results differ with hedging:\n plain  %+v\n hedged %+v", plain, hedged)
	}
}

func TestFigChaosQuick(t *testing.T) {
	tbl, err := FigChaos(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chaos", tbl)
	if len(tbl.Rows) != 4 {
		t.Fatalf("expected 4 rows, got %d", len(tbl.Rows))
	}
	free, _ := tbl.Get("fault-free", "hung")
	if free != 0 {
		t.Errorf("fault-free row hung %v ops", free)
	}
	recovered, _ := tbl.Get("chaos, retries+hedge", "hung")
	if recovered != 0 {
		t.Errorf("recovery row hung %v ops", recovered)
	}
}

func TestFigHedgeQuick(t *testing.T) {
	tbl, err := FigHedge(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "hedge", tbl)
	if len(tbl.Rows) != 4 {
		t.Fatalf("expected 4 rows, got %d", len(tbl.Rows))
	}
	plain, ok1 := tbl.Get("drops, no hedge", "p99 ms")
	hedged, ok2 := tbl.Get("drops, hedge", "p99 ms")
	if !ok1 || !ok2 {
		t.Fatal("missing straggler rows")
	}
	if hedged >= plain {
		t.Errorf("hedged p99 %.2fms not below plain %.2fms", hedged, plain)
	}
}
