package cost

import (
	"fmt"

	"harl/internal/device"
	"harl/internal/layout"
)

// Evaluator scores requests under one pinned stripe candidate (one
// stripe size per tier). It is the inner loop of the planner's grid
// search: RequestCost re-validates the striping and re-derives its round
// geometry on every call, while an Evaluator does both once per
// candidate. It also tabulates each tier's expected maximum startup
// (Eqs. (2)-(4)) per operation and touched count once, so no evaluation
// divides for it; the table holds Params.startup's own values, bit for
// bit, and the rest of the arithmetic is RequestBreakdown's, so an
// Evaluator's costs are bit-identical to Params.RequestCost.
//
// An Evaluator is not safe for concurrent use; parallel searches give
// each worker its own and Reset it between candidates.
type Evaluator struct {
	p     Params
	tiers layout.Tiered // Counts from p; Stripes holds the pinned candidate
	next  []int64       // Reset's staging buffer for a candidate
	geo   layout.Geometry
	loads []layout.Load  // per-tier scratch for one request
	terms [2][]tierTerms // [read, write][tier]
}

// tierTerms is one tier's precomputed arithmetic for one operation: its
// unit transfer time and its expected maximum startup per touched count
// (p.startup).
type tierTerms struct {
	beta    float64
	startup []float64
}

// opTerms returns the per-tier terms of op.
func (e *Evaluator) opTerms(op device.Op) []tierTerms {
	if op == device.Read {
		return e.terms[0]
	}
	return e.terms[1]
}

// NewEvaluator returns an evaluator pinned to the per-tier stripe sizes
// (h, s in the two-tier case) on this parameter set's servers.
func (p Params) NewEvaluator(stripes ...int64) (*Evaluator, error) {
	k := len(p.Tiers)
	e := &Evaluator{
		p:     p,
		tiers: layout.Tiered{Counts: p.Counts(), Stripes: make([]int64, k)},
		next:  make([]int64, k),
		loads: make([]layout.Load, k),
	}
	if err := e.Reset(stripes...); err != nil {
		return nil, err
	}
	for o, op := range []device.Op{device.Read, device.Write} {
		e.terms[o] = make([]tierTerms, k)
		for i, tier := range p.Tiers {
			st := make([]float64, tier.Count+1)
			for m := range st {
				st[m] = p.startup(op, i, m)
			}
			e.terms[o][i] = tierTerms{beta: tier.Fit(op).Beta, startup: st}
		}
	}
	return e, nil
}

// Reset re-pins the evaluator to a new candidate. A rejected candidate
// leaves the previous one pinned.
func (e *Evaluator) Reset(stripes ...int64) error {
	if len(stripes) != len(e.next) {
		return fmt.Errorf("cost: %d stripe sizes for %d tiers", len(stripes), len(e.next))
	}
	copy(e.next, stripes)
	geo, err := layout.NewGeometry(layout.Tiered{Counts: e.tiers.Counts, Stripes: e.next})
	if err != nil {
		return err
	}
	e.geo = geo
	e.tiers.Stripes, e.next = e.next, e.tiers.Stripes
	return nil
}

// Stripes returns the pinned candidate, one stripe size per tier. The
// slice is the evaluator's own: the caller must not change it.
func (e *Evaluator) Stripes() []int64 { return e.tiers.Stripes }

// RequestCost returns the modeled completion time (seconds) of one
// request, bit-identical to Params.RequestCost under the pinned
// candidate. It memoizes nothing: HARL's grid search memoizes by sample
// index instead, which costs no hashing.
func (e *Evaluator) RequestCost(op device.Op, offset, size int64) float64 {
	if size <= 0 {
		return 0
	}
	e.geo.Distribute(offset, size, e.loads)
	terms := e.opTerms(op)[:len(e.loads)]
	var t requestTerms
	for i, l := range e.loads {
		t = terms[i].fold(t, l)
	}
	return t.breakdown(e.p.NetUnit).Total()
}

// fold is Params.RequestBreakdown's per-tier step, with the tier's
// startup looked up.
func (tt *tierTerms) fold(t requestTerms, l layout.Load) requestTerms {
	return t.add(l, tt.startup[l.Touched], tt.beta)
}
