package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"harl/internal/sim"
)

// Two instrumented runs from the same seed must export byte-identical
// traces and metrics — the obs determinism contract, end to end.
func TestTraceDeterministic(t *testing.T) {
	o := QuickOptions()
	var chromes, metrics [2]bytes.Buffer
	for i := 0; i < 2; i++ {
		run, err := TraceIOR(o)
		if err != nil {
			t.Fatal(err)
		}
		if run.Tracer.Len() == 0 {
			t.Fatal("instrumented run recorded no spans")
		}
		if err := run.WriteChrome(&chromes[i]); err != nil {
			t.Fatal(err)
		}
		if err := run.WriteMetrics(&metrics[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(chromes[0].Bytes(), chromes[1].Bytes()) {
		t.Error("same-seed runs exported different Chrome traces")
	}
	if !bytes.Equal(metrics[0].Bytes(), metrics[1].Bytes()) {
		t.Errorf("same-seed runs exported different metrics:\n%s\n---\n%s",
			metrics[0].String(), metrics[1].String())
	}
	for _, want := range []string{"pfs_op_seconds", "pfs_disk_busy_seconds", "net_transfers_total"} {
		if !strings.Contains(metrics[0].String(), want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
}

// Tracing is a passive observer: the instrumented run must execute the
// exact event sequence of the bare one and land on identical results.
func TestTracingDisabledDifferential(t *testing.T) {
	o := QuickOptions()
	bare, err := traceIOR(o, false)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := traceIOR(o, true)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Tracer != nil || bare.Metrics != nil {
		t.Fatal("bare run carries instruments")
	}
	if bare.Result != traced.Result {
		t.Errorf("results diverge under tracing:\nbare:   %+v\ntraced: %+v", bare.Result, traced.Result)
	}
	if bare.End != traced.End {
		t.Errorf("end time diverges under tracing: bare %v, traced %v", bare.End, traced.End)
	}
	pinNanos(t, "ior_end", int64(bare.End), 852_789_329)
	if bp, tp := bare.FS.Engine().Processed, traced.FS.Engine().Processed; bp != tp {
		t.Errorf("event counts diverge under tracing: bare %d, traced %d", bp, tp)
	}
}

// The disk spans must account for every nanosecond the disks were busy:
// per server, the summed disk.read/disk.write span durations equal the
// resource's own busy total exactly.
func TestDiskSpansMatchBusyTotals(t *testing.T) {
	run, err := TraceIOR(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	busy := make(map[string]sim.Duration)
	for _, sp := range run.Tracer.Spans() {
		if sp.Name == "disk.read" || sp.Name == "disk.write" {
			busy[sp.Track] += sp.Duration()
		}
	}
	for _, s := range run.FS.Servers() {
		if got, want := busy[s.Name], s.DiskBusy(); got != want {
			t.Errorf("server %s: disk spans sum to %v, DiskBusy %v", s.Name, got, want)
		}
	}
}

// The measured per-tier device-time split must agree with the cost
// model's expectation for the identical sub-request stream — the
// acceptance gate on the whole tracing pipeline.
func TestBreakdownMatchesCostModel(t *testing.T) {
	tab, err := FigTraceBreakdown(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "breakdown", tab)
	if len(tab.Rows) != 3 {
		t.Fatalf("breakdown table has %d rows, want 3 (hdd, ssd, net)", len(tab.Rows))
	}
	for _, tier := range []string{"hdd", "ssd"} {
		dev, ok := tab.Get(tier, "device s")
		if !ok || dev <= 0 {
			t.Errorf("tier %s has no measured device time", tier)
		}
		model, ok := tab.Get(tier, "model device s")
		if !ok || model <= 0 {
			t.Errorf("tier %s has no modeled device time", tier)
		}
	}
	hShare, _ := tab.Get("hdd", "share %")
	sShare, _ := tab.Get("ssd", "share %")
	if math.Abs(hShare+sShare-100) > 1e-6 {
		t.Errorf("measured shares sum to %v%%, want 100%%", hShare+sShare)
	}
}
