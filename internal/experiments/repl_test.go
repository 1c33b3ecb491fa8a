package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"harl/internal/pfs"
)

// TestReplIntegrityMatrix is the acceptance matrix: read-your-acked-
// writes must hold for seeds 1-3 under every crash shape at r=2 and
// r=3. Protocol-activity assertions are aggregated across the matrix
// (any single cell's faults may land outside the traffic window), so
// the suite proves promotions and catch-up actually ran without being
// flaky per seed.
func TestReplIntegrityMatrix(t *testing.T) {
	o := QuickOptions()
	type agg struct{ promotions, catchUpRecs, acked uint64 }
	sums := map[ReplShape]*agg{}
	for _, shape := range ReplShapes() {
		sums[shape] = &agg{}
	}
	for _, r := range []int{2, 3} {
		for _, shape := range ReplShapes() {
			for seed := int64(1); seed <= 3; seed++ {
				r, shape, seed := r, shape, seed
				t.Run(fmt.Sprintf("r%d/%s/seed%d", r, shape, seed), func(t *testing.T) {
					oo := o
					oo.ChaosSeed = seed
					res, err := runReplIOR(oo, oo.clientPolicy(), r, shape, true)
					if err != nil {
						t.Fatal(err)
					}
					if res.IntegrityViolations > 0 {
						t.Errorf("%d acked ranges failed verification\nfaults:\n%s", res.IntegrityViolations, res.FaultLog)
					}
					if res.Acked == 0 {
						t.Error("no acked writes — integrity check is vacuous")
					}
					if res.Verified == 0 {
						t.Error("no ranges verified — integrity check is vacuous")
					}
					s := sums[shape]
					s.promotions += res.Repl.Promotions
					s.catchUpRecs += res.Repl.CatchUpRecords
					s.acked += uint64(res.Acked)
				})
			}
		}
	}
	if s := sums[ReplShapeDoubleCrash]; s.promotions == 0 {
		t.Error("double-crash shape never promoted a backup across the matrix")
	}
	if s := sums[ReplShapeRecoveryOverlap]; s.catchUpRecs == 0 {
		t.Error("recovery-overlap shape never replayed catch-up records across the matrix")
	}
	for shape, s := range sums {
		if s.acked == 0 {
			t.Errorf("shape %s acked nothing across the matrix", shape)
		}
	}
}

// TestReplR1DifferentialMatchesLegacy proves the replication-aware
// stack at r<=1 is today's protocol, event for event: a run on the
// planner's unstamped RST (r=0) and one with R=1 stamped through the
// replication validation path must be identical in every comparable
// field — processed events, final virtual time, fault log, latencies —
// and must never touch a replication counter.
func TestReplR1DifferentialMatchesLegacy(t *testing.T) {
	o := QuickOptions()
	legacy, err := runReplIOR(o, o.clientPolicy(), 0, ReplShapeCrash, true)
	if err != nil {
		t.Fatal(err)
	}
	stamped, err := runReplIOR(o, o.clientPolicy(), 1, ReplShapeCrash, true)
	if err != nil {
		t.Fatal(err)
	}
	if legacy != stamped {
		t.Errorf("r=1 diverged from the unstamped protocol:\n r=0 %+v\n r=1 %+v", legacy, stamped)
	}
	if legacy.Events == 0 || legacy.Acked == 0 {
		t.Error("differential run processed no traffic — comparison is vacuous")
	}
	if legacy.Faults.Crashes == 0 {
		t.Error("differential run saw no crash — comparison is vacuous")
	}
	if legacy.Repl != (pfs.ReplStats{}) {
		t.Errorf("r<=1 run touched replication counters: %+v", legacy.Repl)
	}
	if stamped.Repl != (pfs.ReplStats{}) {
		t.Errorf("stamped r=1 run touched replication counters: %+v", stamped.Repl)
	}
}

// TestReplRunDeterministic replays the heaviest shape twice at the same
// seed: every comparable field, including the event count and fault
// log, must match exactly.
func TestReplRunDeterministic(t *testing.T) {
	o := QuickOptions()
	a, err := runReplIOR(o, o.clientPolicy(), 2, ReplShapeDoubleCrash, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runReplIOR(o, o.clientPolicy(), 2, ReplShapeDoubleCrash, true)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same-seed repl runs diverged:\n first  %+v\n second %+v", a, b)
	}
	if a.Repl.Promotions == 0 && a.Repl.CatchUpRecords == 0 {
		t.Error("determinism run saw no replication activity — comparison is vacuous")
	}
}

// TestFigReplTable renders the replication figure: six rows, zero
// integrity violations, and replication must cost something — the
// fault-free r=2 goodput cannot exceed r=1's (forwards and acks are
// extra work, never free).
func TestFigReplTable(t *testing.T) {
	o := QuickOptions()
	tab, err := FigRepl(o)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "repl", tab)
	if len(tab.Rows) != 6 {
		t.Fatalf("FigRepl has %d rows, want 6", len(tab.Rows))
	}
	g1, ok1 := tab.Get("r=1 fault-free", "goodput MB/s")
	g2, ok2 := tab.Get("r=2 fault-free", "goodput MB/s")
	if !ok1 || !ok2 {
		t.Fatal("goodput rows missing")
	}
	if g1 <= 0 || g2 <= 0 {
		t.Fatalf("non-positive goodput: r=1 %.1f, r=2 %.1f", g1, g2)
	}
	if g2 > g1 {
		t.Errorf("replicated writes outran unreplicated ones: r=2 %.1f MB/s > r=1 %.1f MB/s", g2, g1)
	}
	if v, _ := tab.Get("r=2 double-crash", "promotions"); v == 0 {
		t.Error("double-crash row shows no promotions")
	}
}

// TestReplRecoveryMeasured checks the catch-up measurement: a recovered
// backup must replay its missed writes in nonzero virtual time, and the
// measurement must be deterministic.
func TestReplRecoveryMeasured(t *testing.T) {
	o := QuickOptions()
	rec, err := RunReplRecovery(o)
	if err != nil {
		t.Fatal(err)
	}
	if rec.RecoverySeconds <= 0 {
		t.Errorf("recovery took %.6fs, want > 0", rec.RecoverySeconds)
	}
	pinNanos(t, "repl_recovery", secondsToNanos(rec.RecoverySeconds), 60_000_000)
	if rec.CatchUps == 0 || rec.LaggedRecords == 0 || rec.LaggedBytes == 0 {
		t.Errorf("no catch-up activity: %+v", rec)
	}
	again, err := RunReplRecovery(o)
	if err != nil {
		t.Fatal(err)
	}
	if rec != again {
		t.Errorf("recovery measurement not deterministic:\n first  %+v\n second %+v", rec, again)
	}
}

// TestReplStatusReport runs the status demo: the crashed primary must
// show up as view changes with a dead, lagging member, yet every slot
// stays available (that is the point of replication).
func TestReplStatusReport(t *testing.T) {
	rep, err := RunReplStatus(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regions) != 2 {
		t.Fatalf("report covers %d regions, want 2", len(rep.Regions))
	}
	if len(rep.Regions[0].Slots) != 0 {
		t.Error("unreplicated region reports replica slots")
	}
	if len(rep.Regions[1].Slots) == 0 {
		t.Fatal("replicated region reports no slots")
	}
	if n := rep.Unavailable(); n != 0 {
		t.Errorf("%d slots unavailable despite a surviving replica per group", n)
	}
	moved := 0
	for _, s := range rep.Regions[1].Slots {
		if s.View > 0 {
			moved++
		}
	}
	if moved == 0 {
		t.Error("no view change recorded after the primary crash")
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"replica/view status", "unreplicated", "r=2", "view changes", "dead"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
