package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// FigCritPath's four gates — coverage, identity replay, blame-vs-model
// and what-if-top-equals-oracle — must hold deterministically across
// seeds; the ISSUE's acceptance criterion runs seeds 1-3 at quick scale.
func TestFigCritPathSeeds(t *testing.T) {
	tables := make([]*Table, 3)
	// Independent seeds fan out on the experiments worker pool.
	if err := Parallel(0, len(tables), func(i int) error {
		o := QuickOptions()
		o.Seed = int64(i + 1)
		tab, err := FigCritPath(o)
		if err != nil {
			return fmt.Errorf("seed %d: %w", i+1, err)
		}
		tables[i] = tab
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Seed 1 is QuickOptions' own seed, so its table is the figure's.
	checkGolden(t, "critpath", tables[0])
	for i, tab := range tables {
		if out := tab.String(); !strings.Contains(out, "restripe/r") {
			t.Errorf("seed %d: table missing what-if ranking:\n%s", i+1, out)
		}
	}
}

// The IOR what-if engine's identity candidate must measure a delta of
// exactly zero (bare replays are event-identical), and every counter-
// factual speedup must not slow the run down.
func TestTraceRunWhatIf(t *testing.T) {
	run, err := TraceIOR(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run.WhatIf(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) < 5 {
		t.Fatalf("expected >=5 candidates, got %d", len(rep.Outcomes))
	}
	found := false
	for _, out := range rep.Outcomes {
		if out.Name == "identity" {
			found = true
			if out.Delta != 0 {
				t.Errorf("identity replay delta %v, want exactly 0", out.Delta)
			}
		}
		if out.Delta < 0 {
			t.Errorf("speedup candidate %q slowed the run by %v", out.Name, -out.Delta)
		}
	}
	if !found {
		t.Error("no identity candidate in report")
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "#1 ") {
		t.Errorf("what-if report malformed:\n%s", buf.String())
	}
}

// The highlighted Chrome export must include the synthetic
// critical-path track and stay byte-deterministic.
func TestWriteChromeHighlightedDeterministic(t *testing.T) {
	export := func() *bytes.Buffer {
		run, err := TraceIOR(QuickOptions())
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := run.WriteChromeHighlighted(&b); err != nil {
			t.Fatal(err)
		}
		return &b
	}
	a := export()
	if !strings.Contains(a.String(), `"critical-path"`) {
		t.Fatal("export missing critical-path track")
	}
	if b := export(); !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("highlighted exports differ between identical runs")
	}
}

// RunDriftWhatIf must stamp the measured causal gain into the monitored
// run's advice, and the monitor's text report must cite it.
func TestDriftWhatIfStampsCausalGain(t *testing.T) {
	dw, err := RunDriftWhatIf(QuickOptions(), 2)
	if err != nil {
		t.Fatal(err)
	}
	adv, ok := dw.Advice()
	if !ok {
		t.Fatal("no advice on profiled drift run")
	}
	if !adv.CausalMeasured || adv.CausalGain <= 0 {
		t.Fatalf("advice causal gain not stamped: %+v", adv)
	}
	if top := dw.Report.Top(); top.Name != dw.Restripe {
		t.Errorf("top candidate %q, want %q", top.Name, dw.Restripe)
	}
	var buf bytes.Buffer
	if err := dw.Run.Report.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "causal gain") || !strings.Contains(buf.String(), "(measured)") {
		t.Errorf("health report does not cite the measured causal gain:\n%s", buf.String())
	}
}
