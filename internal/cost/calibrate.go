package cost

import (
	"fmt"
	"math/rand"

	"harl/internal/device"
	"harl/internal/netsim"
	"harl/internal/sim"
)

// Calibration mirrors the measurement procedure of Section III-G: before
// the analysis phase, HARL probes one file server of each class with
// repeated read/write accesses to estimate the startup time α and unit
// transfer time β, and a client/server node pair to estimate the network
// unit transfer time t. The probe counts are configurable, as in the
// paper ("we repeat the tests thousands of times").

// DefaultProbes is the default number of probe accesses per (device, op,
// size) combination.
const DefaultProbes = 2000

// probeSizes are the two access sizes used to separate the startup term
// from the transfer term by linear fit.
var probeSizes = [2]int64{64 << 10, 1 << 20}

// DeviceFit is the fitted storage profile of one device class and
// operation: startup uniform on [AlphaMin, AlphaMax] plus Beta seconds
// per byte.
type DeviceFit struct {
	AlphaMin float64
	AlphaMax float64
	Beta     float64
}

// FitDevice probes a fresh device built from prof with reps accesses per
// probe size at random offsets and fits (α, β). Random offsets defeat the
// device's sequential-access discount, so the fit reflects the scattered
// sub-request pattern striping produces.
func FitDevice(prof device.Profile, op device.Op, reps int, seed int64) (DeviceFit, error) {
	if reps < 2 {
		return DeviceFit{}, fmt.Errorf("cost: need >= 2 probes, got %d", reps)
	}
	dev, err := device.New(prof)
	if err != nil {
		return DeviceFit{}, err
	}
	rng := rand.New(rand.NewSource(seed))

	means := [2]float64{}
	samples := make([][]float64, 2)
	for si, size := range probeSizes {
		var sum float64
		for i := 0; i < reps; i++ {
			// Spread probes over the device, stride > max probe size so
			// consecutive probes never look sequential.
			off := rng.Int63n(prof.Capacity/4/(4<<20)) * (4 << 20)
			t := dev.ServiceTime(op, off, size, rng).Seconds()
			samples[si] = append(samples[si], t)
			sum += t
		}
		means[si] = sum / float64(reps)
	}

	var fit DeviceFit
	fit.Beta = (means[1] - means[0]) / float64(probeSizes[1]-probeSizes[0])
	if fit.Beta < 0 {
		fit.Beta = 0
	}
	// Recover the startup distribution from the small-size samples.
	fit.AlphaMin = samples[0][0] - float64(probeSizes[0])*fit.Beta
	fit.AlphaMax = fit.AlphaMin
	for _, t := range samples[0] {
		a := t - float64(probeSizes[0])*fit.Beta
		if a < fit.AlphaMin {
			fit.AlphaMin = a
		}
		if a > fit.AlphaMax {
			fit.AlphaMax = a
		}
	}
	if fit.AlphaMin < 0 {
		fit.AlphaMin = 0
	}
	if fit.AlphaMax < fit.AlphaMin {
		fit.AlphaMax = fit.AlphaMin
	}
	return fit, nil
}

// FitNetwork estimates the unit network transfer time t by timing large
// transfers between a dedicated client/server node pair on a private
// simulation, as the paper does with a pair of physical nodes.
func FitNetwork(cfg netsim.Config, reps int, seed int64) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if reps < 1 {
		return 0, fmt.Errorf("cost: need >= 1 probe, got %d", reps)
	}
	const probe = 4 << 20
	e := sim.NewEngine(seed)
	net := netsim.MustNew(e, cfg)
	a, b := net.AddNode("probe-client"), net.AddNode("probe-server")
	var total sim.Duration
	var run func(i int)
	run = func(i int) {
		if i == reps {
			return
		}
		start := e.Now()
		net.Transfer(a, b, probe, func(at sim.Time) {
			total += at.Sub(start)
			run(i + 1)
		})
	}
	e.Schedule(0, func() { run(0) })
	e.Run()
	return total.Seconds() / float64(reps) / float64(probe), nil
}

// Calibrate assembles the two-tier parameter set for a hybrid system of
// m HServers (profile hProf) and n SServers (profile sProf) on the given
// network. HServers are fitted on the read path only, matching Table I's
// single HServer profile; SServers are fitted separately for reads and
// writes.
func Calibrate(hProf, sProf device.Profile, netCfg netsim.Config, m, n, reps int, seed int64) (Params, error) {
	p := Params{Tiers: []TierParams{{Name: "hserver", Count: m}, {Name: "sserver", Count: n}}}
	var err error
	if p.NetUnit, err = FitNetwork(netCfg, min(reps, 50), seed); err != nil {
		return Params{}, err
	}
	if m > 0 {
		h := &p.Tiers[0]
		if h.Read, err = FitDevice(hProf, device.Read, reps, seed+1); err != nil {
			return Params{}, err
		}
		h.Write = h.Read
	}
	if n > 0 {
		s := &p.Tiers[1]
		if s.Read, err = FitDevice(sProf, device.Read, reps, seed+2); err != nil {
			return Params{}, err
		}
		if s.Write, err = FitDevice(sProf, device.Write, reps, seed+3); err != nil {
			return Params{}, err
		}
	}
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}

// CalibrateTiers fits a parameter set against one device profile per
// tier plus the network — the Section III-G measurement run generalized
// to any tier count. Unlike Calibrate, it fits every tier's reads and
// writes separately.
func CalibrateTiers(profiles []device.Profile, counts []int, netCfg netsim.Config, reps int, seed int64) (Params, error) {
	if len(profiles) == 0 || len(profiles) != len(counts) {
		return Params{}, fmt.Errorf("cost: need matching profiles/counts, got %d/%d", len(profiles), len(counts))
	}
	var p Params
	var err error
	if p.NetUnit, err = FitNetwork(netCfg, min(reps, 50), seed); err != nil {
		return Params{}, err
	}
	for i, prof := range profiles {
		tier := TierParams{Name: prof.Name, Count: counts[i]}
		if counts[i] > 0 {
			if tier.Read, err = FitDevice(prof, device.Read, reps, seed+int64(2*i)+1); err != nil {
				return Params{}, err
			}
			if tier.Write, err = FitDevice(prof, device.Write, reps, seed+int64(2*i)+2); err != nil {
				return Params{}, err
			}
		}
		p.Tiers = append(p.Tiers, tier)
	}
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}
