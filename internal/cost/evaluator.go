package cost

import (
	"harl/internal/device"
	"harl/internal/layout"
)

// Evaluator scores requests under one pinned (h, s) stripe candidate.
// It is the inner loop of Algorithm 2's grid search: RequestCost
// re-validates the striping and re-derives its round geometry on every
// call, while an Evaluator does both once per candidate and memoizes the
// per-tier sub-request loads of each distinct request shape.
//
// The memoization key is (Canonical(offset), size): distributions are
// periodic in the striping round (layout.Geometry.Canonical), so the many
// same-size, stripe-aligned requests of a region collapse to a handful of
// geometry computations. All quantities are integers and the final cost
// arithmetic is shared with RequestBreakdown, so evaluator results are
// bit-identical to the uncached path.
//
// It also tabulates each tier's expected maximum startup (Eqs. (2)-(4))
// per operation and touched count once, so no evaluation divides for
// it; the table holds Params.startup's own values, bit for bit.
//
// An Evaluator is not safe for concurrent use; parallel searches give
// each worker its own and Reset it between candidates.
type Evaluator struct {
	p       Params
	tiers   layout.Tiered // the M HServers and N SServers; Stripes holds (h, s)
	geo     layout.Geometry
	cache   map[requestShape][2]layout.Load
	startup [2][2][]float64 // [read, write][tier][touched]: p.startup
}

// requestShape is a memo key: a request's offset in the round and its size.
type requestShape struct {
	off, size int64
}

// NewEvaluator returns an evaluator pinned to stripe sizes (h, s) on this
// parameter set's M+N servers.
func (p Params) NewEvaluator(h, s int64) (*Evaluator, error) {
	e := &Evaluator{p: p, tiers: layout.TieredOf(layout.Striping{M: p.M, N: p.N}), cache: make(map[requestShape][2]layout.Load)}
	if err := e.Reset(h, s); err != nil {
		return nil, err
	}
	for o, op := range []device.Op{device.Read, device.Write} {
		for tier, count := range []int{p.M, p.N} {
			e.startup[o][tier] = make([]float64, count+1)
			for m := range e.startup[o][tier] {
				e.startup[o][tier][m] = p.startup(op, tier, m)
			}
		}
	}
	return e, nil
}

// Reset re-pins the evaluator to a new candidate pair, dropping the
// memoized distributions (they are geometry-specific) but keeping the
// allocated cache storage. A rejected pair leaves the previous one pinned.
func (e *Evaluator) Reset(h, s int64) error {
	h0, s0 := e.Pair()
	e.tiers.Stripes[0], e.tiers.Stripes[1] = h, s
	geo, err := layout.NewGeometry(e.tiers)
	if err != nil {
		e.tiers.Stripes[0], e.tiers.Stripes[1] = h0, s0
		return err
	}
	e.geo = geo
	clear(e.cache)
	return nil
}

// Pair returns the pinned (h, s) candidate.
func (e *Evaluator) Pair() (h, s int64) { return e.tiers.Stripes[0], e.tiers.Stripes[1] }

// RequestCost returns the modeled completion time (seconds) of one
// request, bit-identical to Params.RequestCost under the pinned pair.
func (e *Evaluator) RequestCost(op device.Op, offset, size int64) float64 {
	return e.RequestBreakdown(op, offset, size).Total()
}

// RequestCostDirect is RequestCost through the pinned geometry but
// without consulting the memo: cheaper when the caller already
// deduplicates repeated requests (HARL's grid search memoizes by sample
// index instead, which costs no hashing), still bit-identical to
// Params.RequestCost.
func (e *Evaluator) RequestCostDirect(op device.Op, offset, size int64) float64 {
	if size <= 0 {
		return 0
	}
	var loads [2]layout.Load
	e.geo.Distribute(offset, size, loads[:])
	return e.breakdown(op, loads[0], loads[1]).Total()
}

// RequestBreakdown is RequestCost with the three terms itemized.
func (e *Evaluator) RequestBreakdown(op device.Op, offset, size int64) Breakdown {
	if size <= 0 {
		return Breakdown{}
	}
	shape := requestShape{off: e.geo.Canonical(offset), size: size}
	loads, ok := e.cache[shape]
	if !ok {
		e.geo.Distribute(shape.off, size, loads[:])
		e.cache[shape] = loads
	}
	return e.breakdown(op, loads[0], loads[1])
}

// breakdown is Params.breakdown with each tier's startup looked up.
func (e *Evaluator) breakdown(op device.Op, hl, sl layout.Load) Breakdown {
	st := &e.startup[0]
	if op != device.Read {
		st = &e.startup[1]
	}
	return e.p.breakdown(op, hl, sl, st[0][hl.Touched], st[1][sl.Touched])
}
