// Package cost implements the analytical data-access cost model of
// Section III-D of the paper: the expected I/O completion time of one file
// request in a hybrid PFS, as a function of the I/O pattern, the system
// architecture, network and storage parameters (Table I), and the data
// layout (stripe sizes h on HServers and s on SServers).
//
// The cost of a request is T = T_X + T_S + T_T:
//
//   - T_X, the network transfer time, is the larger of the biggest
//     sub-request on either class times the unit network time t (Eq. 1);
//   - T_S, the storage startup time, is the expected maximum of the
//     per-server startup draws. For m servers with startup uniform on
//     [αmin, αmax] the expected maximum is αmin + m/(m+1)·(αmax-αmin)
//     (Eqs. 2-4), and T_S is the larger of the HServer and SServer terms
//     (Eq. 5);
//   - T_T, the storage transfer time, is the larger of s_m·β_h and
//     s_n·β_s for the class-specific transfer rates (Eq. 6).
//
// Reads and writes use the same formulas with the class parameters
// swapped in (Eqs. 7-8); SServer writes are slower than reads, reflecting
// flash garbage collection and wear leveling.
//
// With more than two server classes (tiers; see Params) each term is
// the maximum over every tier's, the paper's first future-work item.
//
// The per-request quantities (m, n, s_m, s_n), one (touched servers,
// largest sub-request) pair per tier, come from package layout's one
// cover loop, Geometry.Distribute, which Params and Evaluator both
// read. It computes exactly, in O(servers) per request, what the paper
// derives with the case analysis of its Figures 4-5; package layout
// keeps that closed form as the loop's test oracle.
// Evaluator.Bound floors a request's cost over every offset from its
// size alone, which lets the grid search reject a candidate unscored.
package cost

import (
	"fmt"

	"harl/internal/device"
	"harl/internal/layout"
)

// Params carries every Table I parameter, for any number of server
// performance classes (tiers). The paper's hybrid system is the two-tier
// case: tier 0 holds the M HServers, whose one profile serves both
// operations, and tier 1 the N SServers, whose writes are slower than
// their reads. More tiers are the paper's first future-work item ("extend
// our cost model to accommodate more than two server performance
// profiles"): each tier adds its own startup and transfer terms, and each
// of T_X, T_S and T_T stays the maximum across tiers. Times are in
// seconds and rates in seconds per byte, since the model is pure
// arithmetic (the simulator, not the model, owns the integer virtual
// clock).
type Params struct {
	// NetUnit is the network's unit data transfer time t (seconds per
	// byte).
	NetUnit float64

	// Tiers lists the server classes in server-numbering order.
	Tiers []TierParams
}

// TierParams is one server class: its server count and its storage
// profile per operation (Table I's startup range [α_min, α_max] and unit
// transfer time β).
type TierParams struct {
	Name        string
	Count       int
	Read, Write DeviceFit
}

// Fit returns the tier's storage profile for op.
func (t *TierParams) Fit(op device.Op) *DeviceFit {
	if op == device.Read {
		return &t.Read
	}
	return &t.Write
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.NetUnit < 0 {
		return fmt.Errorf("cost: negative network unit time")
	}
	if len(p.Tiers) == 0 {
		return fmt.Errorf("cost: no tiers")
	}
	for _, t := range p.Tiers {
		if t.Count < 0 {
			return fmt.Errorf("cost: tier %q has negative count %d", t.Name, t.Count)
		}
		for _, f := range []DeviceFit{t.Read, t.Write} {
			switch {
			case f.AlphaMin < 0 || f.AlphaMax < f.AlphaMin:
				return fmt.Errorf("cost: tier %q has bad startup range [%v,%v]", t.Name, f.AlphaMin, f.AlphaMax)
			case f.Beta < 0:
				return fmt.Errorf("cost: tier %q has negative unit transfer time", t.Name)
			}
		}
	}
	if p.Servers() == 0 {
		return fmt.Errorf("cost: no servers across tiers")
	}
	return nil
}

// Servers returns the server count across all tiers.
func (p Params) Servers() int {
	total := 0
	for _, t := range p.Tiers {
		total += t.Count
	}
	return total
}

// Counts returns the per-tier server counts in tier order.
func (p Params) Counts() []int {
	counts := make([]int, len(p.Tiers))
	for i, t := range p.Tiers {
		counts[i] = t.Count
	}
	return counts
}

// expectedMaxUniform returns E[max of m iid U(lo,hi) draws] =
// lo + m/(m+1)·(hi-lo), the order-statistics term of Eqs. (3)-(4).
// Zero servers contribute no startup.
func expectedMaxUniform(lo, hi float64, m int) float64 {
	if m <= 0 {
		return 0
	}
	k := float64(m)
	return lo + k/(k+1)*(hi-lo)
}

// Breakdown itemizes one request's modeled cost.
type Breakdown struct {
	Network  float64 // T_X
	Startup  float64 // T_S
	Transfer float64 // T_T
}

// Total returns T = T_X + T_S + T_T.
func (b Breakdown) Total() float64 { return b.Network + b.Startup + b.Transfer }

// RequestCost returns the modeled completion time (seconds) of one file
// request of the given size at the given offset under per-tier stripe
// sizes (stripes[i] for tier i; 0 skips the tier). The two-tier call is
// RequestCost(op, offset, size, h, s).
func (p Params) RequestCost(op device.Op, offset, size int64, stripes ...int64) float64 {
	return p.RequestBreakdown(op, offset, size, stripes...).Total()
}

// maxStackTiers is how many tiers RequestBreakdown lays out on the stack.
const maxStackTiers = 4

// RequestBreakdown is RequestCost with the three terms itemized.
func (p Params) RequestBreakdown(op device.Op, offset, size int64, stripes ...int64) Breakdown {
	if size <= 0 {
		return Breakdown{}
	}
	var countBuf [maxStackTiers]int
	var loadBuf [maxStackTiers]layout.Load
	counts, loads := countBuf[:0], loadBuf[:0]
	for _, t := range p.Tiers {
		counts = append(counts, t.Count)
		loads = append(loads, layout.Load{})
	}
	geo, err := layout.NewGeometry(layout.Tiered{Counts: counts, Stripes: stripes})
	if err != nil {
		panic(err)
	}
	geo.Distribute(offset, size, loads)
	var t requestTerms
	for i, l := range loads {
		t = t.add(l, p.startup(op, i, l.Touched), p.Tiers[i].Fit(op).Beta)
	}
	return t.breakdown(p.NetUnit)
}

// startup is Eqs. (2)-(4) for one tier under op: the expected maximum
// startup draw when m of its servers are touched. It depends on nothing
// but its arguments, so an Evaluator may tabulate it per touched count.
func (p *Params) startup(op device.Op, tier, m int) float64 {
	f := p.Tiers[tier].Fit(op)
	return expectedMaxUniform(f.AlphaMin, f.AlphaMax, m)
}

// requestTerms is Eqs. (1)-(6) over any number of tiers, folded one tier
// at a time from its zero value: add takes a tier's load, its expected
// maximum startup and its unit transfer time for the operation, and
// breakdown closes the network term. Each term is the maximum across
// tiers. Every term is non-negative, so running maxima that start at 0
// equal the paper's max over the tiers; and float rounding is monotone,
// so max(sub-request) × t equals the max of the per-tier products. It is
// a value of three words, so the fold stays in registers.
type requestTerms struct {
	startup, transfer float64
	maxSub            int64
}

// add folds in one tier: its load, the expected maximum startup of its
// l.Touched touched servers (Eqs. (2)-(4)) and its unit transfer time
// beta.
func (t requestTerms) add(l layout.Load, startup, beta float64) requestTerms {
	t.maxSub = max(t.maxSub, l.Max)
	// Eq. (5): the slower tier's startup.
	t.startup = max(t.startup, startup)
	// Eq. (6): storage transfer of the tier's largest sub-request.
	t.transfer = max(t.transfer, float64(l.Max)*beta)
	return t
}

// breakdown closes Eq. (1): network transfer of the largest sub-request.
func (t requestTerms) breakdown(netUnit float64) Breakdown {
	return Breakdown{Network: float64(t.maxSub) * netUnit, Startup: t.startup, Transfer: t.transfer}
}
