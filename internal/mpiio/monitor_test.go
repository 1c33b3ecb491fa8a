package mpiio

import (
	"math/rand"
	"strconv"
	"testing"

	"harl/internal/cost"
	"harl/internal/device"
	"harl/internal/harl"
	"harl/internal/monitor"
	"harl/internal/obs"
)

// monParams is a valid cost-model parameter set for monitor wiring tests.
func monParams() cost.Params {
	return cost.Params{
		NetUnit: 1.0 / (117 << 20),
		Tiers: []cost.TierParams{
			{Name: "hserver", Count: 6,
				Read:  cost.DeviceFit{AlphaMin: 3e-3, AlphaMax: 7e-3, Beta: 1.0 / (100 << 20)},
				Write: cost.DeviceFit{AlphaMin: 3e-3, AlphaMax: 7e-3, Beta: 1.0 / (100 << 20)}},
			{Name: "sserver", Count: 2,
				Read:  cost.DeviceFit{AlphaMin: 6e-4, AlphaMax: 1.2e-3, Beta: 1.0 / (400 << 20)},
				Write: cost.DeviceFit{AlphaMin: 8e-4, AlphaMax: 1.6e-3, Beta: 1.0 / (200 << 20)}},
		},
	}
}

// fingerprintForRST freezes a minimal fingerprint aligned with an RST,
// enough for feed-alignment tests.
func fingerprintForRST(rst *harl.RST) *harl.PlanFingerprint {
	fp := &harl.PlanFingerprint{Threshold: 1}
	for _, e := range rst.Entries {
		deciles := [9]float64{}
		for i := range deciles {
			deciles[i] = 64 << 10
		}
		fp.Regions = append(fp.Regions, harl.RegionFingerprint{
			Offset: e.Offset, End: e.End, H: e.H, S: e.S,
			Requests: 1, MeanSize: 64 << 10, CV: 0, WriteMix: 1,
			SizeDeciles: deciles,
		})
	}
	return fp
}

// TestHARLFileMonitorMatchesRegistry is the feed-alignment contract: the
// monitor observes region traffic at the exact registry-counter sites, so
// its per-region byte totals always equal mpi_region_*_bytes_total, and
// its tier counters account for every logical byte exactly once.
func TestHARLFileMonitorMatchesRegistry(t *testing.T) {
	tb, w := world62(t, 2)
	reg := obs.NewRegistry()
	tb.FS.Instrument(nil, reg)
	rst := testRST()
	var f *HARLFile
	w.Run(func() {
		w.CreateHARL("mon", rst, func(file *HARLFile, err error) {
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			f = file
		})
	})

	mon, err := monitor.New(tb.Engine, fingerprintForRST(rst), monParams(), monitor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AttachMonitor(mon); err != nil {
		t.Fatal(err)
	}
	if f.Monitor() != mon {
		t.Fatal("monitor accessor broken")
	}
	tb.FS.SetTierObserver(mon)

	// A monitor sized for a different plan is rejected.
	short := fingerprintForRST(&harl.RST{Entries: rst.Entries[:1]})
	wrong, err := monitor.New(tb.Engine, short, monParams(), monitor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AttachMonitor(wrong); err == nil {
		t.Fatal("region-count mismatch accepted")
	}

	// Traffic through every path: cross-region write, read-back, and
	// phantom I/O into the last region.
	payload := make([]byte, 2<<20)
	rand.New(rand.NewSource(9)).Read(payload)
	w.Run(func() {
		f.WriteAt(0, 900<<10, payload, func(error) {
			f.ReadAt(1, 900<<10, int64(len(payload)), func([]byte, error) {})
		})
		f.WriteZeros(0, 3<<20, 8192, func(error) {})
		f.ReadDiscard(1, 3<<20, 4096, func(error) {})
	})

	var tot monitorTotals
	for i := 0; i < f.Regions(); i++ {
		labels := []obs.Tag{obs.T("file", "mon"), obs.T("region", strconv.Itoa(i))}
		rb, wb := mon.RegionBytes(i)
		if want := reg.CounterValue("mpi_region_write_bytes_total", labels...); wb != want {
			t.Errorf("region %d: monitor saw %d write bytes, registry %d", i, wb, want)
		}
		if want := reg.CounterValue("mpi_region_read_bytes_total", labels...); rb != want {
			t.Errorf("region %d: monitor saw %d read bytes, registry %d", i, rb, want)
		}
		tot.read += rb
		tot.write += wb
	}
	if want := int64(len(payload)) + 8192; tot.write != want {
		t.Errorf("monitor region write bytes %d, want %d logical bytes", tot.write, want)
	}
	if want := int64(len(payload)) + 4096; tot.read != want {
		t.Errorf("monitor region read bytes %d, want %d logical bytes", tot.read, want)
	}

	// Every logical byte lands on exactly one tier disk pass.
	tierW := mon.TierBytes(device.HDD, device.Write) + mon.TierBytes(device.SSD, device.Write)
	tierR := mon.TierBytes(device.HDD, device.Read) + mon.TierBytes(device.SSD, device.Read)
	if tierW != tot.write {
		t.Errorf("tier write bytes %d, region write bytes %d", tierW, tot.write)
	}
	if tierR != tot.read {
		t.Errorf("tier read bytes %d, region read bytes %d", tierR, tot.read)
	}
	// Region 1 is SServer-only (H=0), so SSDs must have seen traffic.
	if mon.TierBytes(device.SSD, device.Write) == 0 {
		t.Error("no SSD write bytes observed")
	}

	// Detaching stops the feed without disturbing the file.
	if err := f.AttachMonitor(nil); err != nil {
		t.Fatal(err)
	}
	_, before := mon.RegionBytes(0)
	w.Run(func() { f.WriteZeros(0, 0, 4096, func(error) {}) })
	if _, after := mon.RegionBytes(0); after != before {
		t.Error("detached monitor still fed")
	}
}

type monitorTotals struct{ read, write int64 }
