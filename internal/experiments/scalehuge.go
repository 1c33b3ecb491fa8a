package experiments

import (
	"fmt"
	"time"

	"harl/internal/cluster"
	"harl/internal/device"
	"harl/internal/layout"
	"harl/internal/netsim"
	"harl/internal/pfs"
)

// ScaleHuge is the raw-speed proof scenario from the ROADMAP's
// "100x bigger runs" item: 1024 data servers (768 HDD + 256 SSD), 256
// client streams, and over a million processed events in one engine.
// Payloads are phantom (WriteZeros), so the run exercises the full
// striping/network/disk event machinery at cloud scale without storing
// a byte. Everything virtual about the result is a pure function of the
// seed; only the wall-clock fields are machine-dependent.
const (
	scaleHugeHServers = 768
	scaleHugeSServers = 256
	scaleHugeClients  = 256
	scaleHugeWrites   = 400       // sequential requests per client
	scaleHugeReqSize  = 256 << 10 // bytes per request
	scaleHugeStripe   = 64 << 10  // stripe size on every server
)

// ScaleHugeResult is one ScaleHuge run's summary.
type ScaleHugeResult struct {
	Servers      int
	Clients      int
	Requests     int
	Events       uint64  // engine events processed (deterministic)
	EndSeconds   float64 // virtual end time (deterministic)
	WallSeconds  float64 // host time for the event loop (machine-dependent)
	EventsPerSec float64 // Events / WallSeconds
}

// RunScaleHuge executes the scenario and reports its scale and timing.
func RunScaleHuge(seed int64) (*ScaleHugeResult, error) {
	profiles := make([]device.Profile, 0, scaleHugeHServers+scaleHugeSServers)
	for i := 0; i < scaleHugeHServers; i++ {
		profiles = append(profiles, device.DefaultHDD())
	}
	for i := 0; i < scaleHugeSServers; i++ {
		profiles = append(profiles, device.DefaultSSD())
	}
	tb, err := cluster.NewCustom(profiles, netsim.GigabitEthernet(), seed)
	if err != nil {
		return nil, err
	}
	st := layout.Striping{M: scaleHugeHServers, N: scaleHugeSServers, H: scaleHugeStripe, S: scaleHugeStripe}

	// Each client owns a disjoint span of the shared file and streams
	// sequential phantom writes through it, one in flight at a time —
	// the many-tenant steady state the wheel and the pools exist for.
	span := int64(scaleHugeWrites) * scaleHugeReqSize
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
			tb.Engine.Stop()
		}
	}
	creator := tb.FS.NewClient("client0")
	creator.Create("huge", st, func(f *pfs.File, err error) {
		if err != nil {
			fail(err)
			return
		}
		for i := 0; i < scaleHugeClients; i++ {
			c := tb.FS.NewClient(fmt.Sprintf("client%d", i+1))
			base := int64(i) * span
			c.Open("huge", func(h *pfs.File, err error) {
				if err != nil {
					fail(err)
					return
				}
				var issued int64
				var step func(error)
				step = func(err error) {
					if err != nil {
						fail(err)
						return
					}
					if issued == span {
						return
					}
					off := base + issued
					issued += scaleHugeReqSize
					h.WriteZeros(off, scaleHugeReqSize, step)
				}
				step(nil)
			})
		}
	})

	wallStart := time.Now()
	end := tb.Engine.Run()
	wall := time.Since(wallStart).Seconds()
	if firstErr != nil {
		return nil, firstErr
	}

	res := &ScaleHugeResult{
		Servers:     scaleHugeHServers + scaleHugeSServers,
		Clients:     scaleHugeClients,
		Requests:    scaleHugeClients * scaleHugeWrites,
		Events:      tb.Engine.Processed,
		EndSeconds:  end.Seconds(),
		WallSeconds: wall,
	}
	if wall > 0 {
		res.EventsPerSec = float64(res.Events) / wall
	}
	if res.Events < 1_000_000 {
		return nil, fmt.Errorf("experiments: ScaleHuge processed only %d events, want >= 1M", res.Events)
	}
	return res, nil
}

// FigScaleHuge renders the scenario's deterministic facts as a table —
// wall-clock numbers deliberately stay out so the table is byte-identical
// across runs and across serial and parallel regeneration, and can be
// pinned as a golden. The timing is measured by the scale_huge workload
// of the bench module.
func FigScaleHuge(o Options) (*Table, error) {
	res, err := RunScaleHuge(o.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "ScaleHuge: 1024-server / 1M-event engine scale proof",
		Columns: []string{"value"},
	}
	t.Add("servers", float64(res.Servers))
	t.Add("client streams", float64(res.Clients))
	t.Add("requests", float64(res.Requests))
	t.Add("events processed", float64(res.Events))
	t.Add("virtual end s", res.EndSeconds)
	return t, nil
}
