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
// The per-request quantities (m, n, s_m, s_n), one (touched servers,
// largest sub-request) pair per tier, come from package layout's one
// cover loop, Geometry.Distribute, which Params, Evaluator and
// MultiParams all read. It computes exactly, in O(servers) per request,
// what the paper derives with the case analysis of its Figures 4-5;
// package layout keeps that closed form as the loop's test oracle.
// Evaluator.Bound floors a request's cost over every offset from its
// size alone, which lets the grid search reject a candidate unscored.
package cost

import (
	"fmt"

	"harl/internal/device"
	"harl/internal/layout"
)

// Params carries every Table I parameter. Times are in seconds and rates
// in seconds per byte, since the model is pure arithmetic (the simulator,
// not the model, owns the integer virtual clock).
type Params struct {
	// Architecture.
	M int // number of HServers
	N int // number of SServers

	// Network: unit data transfer time t (seconds per byte).
	NetUnit float64

	// HServer storage: startup uniform on [AlphaHMin, AlphaHMax], unit
	// transfer time BetaH. The paper uses one HServer profile for both
	// operations.
	AlphaHMin, AlphaHMax float64
	BetaH                float64

	// SServer storage, read path.
	AlphaSRMin, AlphaSRMax float64
	BetaSR                 float64

	// SServer storage, write path.
	AlphaSWMin, AlphaSWMax float64
	BetaSW                 float64

	// Replication factor for writes: every written byte is committed on
	// R replicas before the ack (primary/backup chain). 0 and 1 both
	// mean "no replication" and leave every formula untouched, so the
	// zero value models exactly the original paper. Reads are served by
	// one replica and never pay for R.
	R int
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.M < 0 || p.N < 0 || p.M+p.N == 0:
		return fmt.Errorf("cost: invalid server counts M=%d N=%d", p.M, p.N)
	case p.NetUnit < 0:
		return fmt.Errorf("cost: negative network unit time")
	case p.AlphaHMin < 0 || p.AlphaHMax < p.AlphaHMin:
		return fmt.Errorf("cost: bad HServer startup range [%v,%v]", p.AlphaHMin, p.AlphaHMax)
	case p.AlphaSRMin < 0 || p.AlphaSRMax < p.AlphaSRMin:
		return fmt.Errorf("cost: bad SServer read startup range")
	case p.AlphaSWMin < 0 || p.AlphaSWMax < p.AlphaSWMin:
		return fmt.Errorf("cost: bad SServer write startup range")
	case p.BetaH < 0 || p.BetaSR < 0 || p.BetaSW < 0:
		return fmt.Errorf("cost: negative unit transfer time")
	case p.R < 0:
		return fmt.Errorf("cost: negative replication factor R=%d", p.R)
	case p.R > p.M+p.N:
		return fmt.Errorf("cost: replication factor R=%d exceeds cluster size %d", p.R, p.M+p.N)
	}
	return nil
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
// request of the given size at the given offset under stripe sizes (h, s).
func (p Params) RequestCost(op device.Op, offset, size, h, s int64) float64 {
	return p.RequestBreakdown(op, offset, size, h, s).Total()
}

// RequestBreakdown is RequestCost with the three terms itemized.
func (p Params) RequestBreakdown(op device.Op, offset, size, h, s int64) Breakdown {
	if size <= 0 {
		return Breakdown{}
	}
	geo, err := layout.NewGeometry(layout.TieredOf(layout.Striping{M: p.M, N: p.N, H: h, S: s}))
	if err != nil {
		panic(err)
	}
	var loads [2]layout.Load
	geo.Distribute(offset, size, loads[:])
	return p.breakdown(op, loads[0], loads[1], p.startup(op, 0, loads[0].Touched), p.startup(op, 1, loads[1].Touched))
}

// breakdown applies Eqs. (1)-(6) to the HServer and SServer loads of one
// request (hl and sl), given each tier's expected maximum startup
// (startup of its touched count). It is the single arithmetic path
// shared by RequestBreakdown, Evaluator and Bound, so cached and uncached
// evaluations are bit-identical. The receiver is a pointer and the
// tiers are separate arguments, not arrays, so that a call copies no
// Params and passes the loads in registers (Bound makes eight calls).
func (p *Params) breakdown(op device.Op, hl, sl layout.Load, hStartup, sStartup float64) Breakdown {
	t := newRequestTerms(op, p.R).add(hl, hStartup, p.BetaH)
	if op == device.Read {
		t = t.add(sl, sStartup, p.BetaSR)
	} else {
		t = t.add(sl, sStartup, p.BetaSW)
	}
	return t.breakdown(p.NetUnit)
}

// startup is Eqs. (2)-(4) for one tier (0 for HServers, 1 for SServers)
// under op: the expected maximum startup draw when m of its servers are
// touched, across every store of each touched slot's replica chain. It
// depends on nothing but its arguments, so an Evaluator may tabulate it
// per touched count.
func (p *Params) startup(op device.Op, tier, m int) float64 {
	lo, hi := p.AlphaHMin, p.AlphaHMax
	switch {
	case tier == 0:
	case op == device.Read:
		lo, hi = p.AlphaSRMin, p.AlphaSRMax
	default:
		lo, hi = p.AlphaSWMin, p.AlphaSWMax
	}
	return expectedMaxUniform(lo, hi, m*newRequestTerms(op, p.R).chain)
}

// requestTerms is Eqs. (1)-(6) over any number of tiers, folded one tier
// at a time: add takes a tier's load, its expected maximum startup and
// its unit transfer time for the operation, and breakdown closes the
// network term. Each term is the maximum across tiers. Every term is
// non-negative, so running maxima that start at 0 equal the paper's max
// over the tiers; and float rounding is monotone, so max(sub-request) × t
// equals the max of the per-tier products. It is a value of at most four
// words, so the fold stays in registers.
//
// A write replicated r > 1 ways forwards each primary's sub-request
// serially down its chain over the primary's uplink (r-1 extra hops of
// the largest sub-request), and its ack waits on startup draws across
// all r stores of each touched slot. Reads are served by one replica.
type requestTerms struct {
	startup, transfer float64
	maxSub            int64
	chain             int // stores per touched slot: r for a replicated write, else 1
}

func newRequestTerms(op device.Op, r int) requestTerms {
	if op == device.Write && r > 1 {
		return requestTerms{chain: r}
	}
	return requestTerms{chain: 1}
}

// add folds in one tier: its load, the expected maximum startup of its
// l.Touched·chain touched stores (Eqs. (2)-(4)) and its unit transfer
// time beta.
func (t requestTerms) add(l layout.Load, startup, beta float64) requestTerms {
	t.maxSub = max(t.maxSub, l.Max)
	// Eq. (5): the slower tier's startup.
	t.startup = max(t.startup, startup)
	// Eq. (6): storage transfer of the tier's largest sub-request.
	t.transfer = max(t.transfer, float64(l.Max)*beta)
	return t
}

// breakdown closes Eq. (1): network transfer of the largest sub-request,
// plus its forwarding hops down a write's replica chain.
func (t requestTerms) breakdown(netUnit float64) Breakdown {
	b := Breakdown{Network: float64(t.maxSub) * netUnit, Startup: t.startup, Transfer: t.transfer}
	if t.chain > 1 {
		b.Network += float64(t.chain-1) * float64(t.maxSub) * netUnit
	}
	return b
}
