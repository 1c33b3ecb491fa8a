package cost

import (
	"fmt"

	"harl/internal/device"
	"harl/internal/layout"
	"harl/internal/netsim"
)

// Multi-profile cost model — the paper's first future-work item: "extend
// our cost model to accommodate more than two server performance
// profiles". The structure of Eqs. (1)-(8) generalizes directly: each
// tier contributes an order-statistics startup term and a transfer term
// for its largest sub-request, and the request cost takes the maximum
// across tiers for each of T_X, T_S and T_T.

// TierParams is one server class's Table I row pair (read and write
// profiles) plus its server count.
type TierParams struct {
	Name  string
	Count int

	ReadAlphaMin, ReadAlphaMax float64
	ReadBeta                   float64

	WriteAlphaMin, WriteAlphaMax float64
	WriteBeta                    float64
}

// Validate reports whether the tier is usable.
func (t TierParams) Validate() error {
	switch {
	case t.Count < 0:
		return fmt.Errorf("cost: tier %q has negative count", t.Name)
	case t.ReadAlphaMin < 0 || t.ReadAlphaMax < t.ReadAlphaMin:
		return fmt.Errorf("cost: tier %q has bad read startup range", t.Name)
	case t.WriteAlphaMin < 0 || t.WriteAlphaMax < t.WriteAlphaMin:
		return fmt.Errorf("cost: tier %q has bad write startup range", t.Name)
	case t.ReadBeta < 0 || t.WriteBeta < 0:
		return fmt.Errorf("cost: tier %q has negative unit transfer time", t.Name)
	}
	return nil
}

// MultiParams is the generalized parameter set.
type MultiParams struct {
	NetUnit float64
	Tiers   []TierParams
}

// Validate reports whether the parameters are usable.
func (p MultiParams) Validate() error {
	if p.NetUnit < 0 {
		return fmt.Errorf("cost: negative network unit time")
	}
	if len(p.Tiers) == 0 {
		return fmt.Errorf("cost: no tiers")
	}
	total := 0
	for _, t := range p.Tiers {
		if err := t.Validate(); err != nil {
			return err
		}
		total += t.Count
	}
	if total == 0 {
		return fmt.Errorf("cost: no servers across tiers")
	}
	return nil
}

// Counts returns the per-tier server counts in tier order.
func (p MultiParams) Counts() []int {
	counts := make([]int, len(p.Tiers))
	for i, t := range p.Tiers {
		counts[i] = t.Count
	}
	return counts
}

// MultiOf lifts the two-tier Params into the generalized form; the
// resulting model computes identical costs.
func MultiOf(p Params) MultiParams {
	return MultiParams{
		NetUnit: p.NetUnit,
		Tiers: []TierParams{
			{
				Name: "hserver", Count: p.M,
				ReadAlphaMin: p.AlphaHMin, ReadAlphaMax: p.AlphaHMax, ReadBeta: p.BetaH,
				WriteAlphaMin: p.AlphaHMin, WriteAlphaMax: p.AlphaHMax, WriteBeta: p.BetaH,
			},
			{
				Name: "sserver", Count: p.N,
				ReadAlphaMin: p.AlphaSRMin, ReadAlphaMax: p.AlphaSRMax, ReadBeta: p.BetaSR,
				WriteAlphaMin: p.AlphaSWMin, WriteAlphaMax: p.AlphaSWMax, WriteBeta: p.BetaSW,
			},
		},
	}
}

// RequestCost returns the modeled completion time of one request under
// per-tier stripe sizes (stripes[i] for tier i; 0 skips the tier).
func (p MultiParams) RequestCost(op device.Op, offset, size int64, stripes []int64) float64 {
	return p.RequestBreakdown(op, offset, size, stripes).Total()
}

// RequestBreakdown itemizes the generalized cost terms.
func (p MultiParams) RequestBreakdown(op device.Op, offset, size int64, stripes []int64) Breakdown {
	if size <= 0 {
		return Breakdown{}
	}
	geo, err := layout.NewGeometry(layout.Tiered{Counts: p.Counts(), Stripes: stripes})
	if err != nil {
		panic(err)
	}
	loads := make([]layout.Load, len(p.Tiers))
	geo.Distribute(offset, size, loads)
	t := newRequestTerms(op, 1)
	for i, tier := range p.Tiers {
		m := loads[i].Touched * t.chain
		if op == device.Read {
			t = t.add(loads[i], expectedMaxUniform(tier.ReadAlphaMin, tier.ReadAlphaMax, m), tier.ReadBeta)
		} else {
			t = t.add(loads[i], expectedMaxUniform(tier.WriteAlphaMin, tier.WriteAlphaMax, m), tier.WriteBeta)
		}
	}
	return t.breakdown(p.NetUnit)
}

// CalibrateTiers fits a MultiParams against one device profile per tier
// plus the network — the generalized Section III-G measurement run.
func CalibrateTiers(profiles []device.Profile, counts []int, netCfg netsim.Config, reps int, seed int64) (MultiParams, error) {
	if len(profiles) == 0 || len(profiles) != len(counts) {
		return MultiParams{}, fmt.Errorf("cost: need matching profiles/counts, got %d/%d", len(profiles), len(counts))
	}
	var p MultiParams
	var err error
	if p.NetUnit, err = FitNetwork(netCfg, min(reps, 50), seed); err != nil {
		return MultiParams{}, err
	}
	for i, prof := range profiles {
		tier := TierParams{Name: prof.Name, Count: counts[i]}
		if counts[i] > 0 {
			rFit, err := FitDevice(prof, device.Read, reps, seed+int64(2*i)+1)
			if err != nil {
				return MultiParams{}, err
			}
			wFit, err := FitDevice(prof, device.Write, reps, seed+int64(2*i)+2)
			if err != nil {
				return MultiParams{}, err
			}
			tier.ReadAlphaMin, tier.ReadAlphaMax, tier.ReadBeta = rFit.AlphaMin, rFit.AlphaMax, rFit.Beta
			tier.WriteAlphaMin, tier.WriteAlphaMax, tier.WriteBeta = wFit.AlphaMin, wFit.AlphaMax, wFit.Beta
		}
		p.Tiers = append(p.Tiers, tier)
	}
	if err := p.Validate(); err != nil {
		return MultiParams{}, err
	}
	return p, nil
}
