package cost

import (
	"math"

	"harl/internal/device"
	"harl/internal/layout"
)

// boundSlices is how many equal slices Bound cuts the residual's
// HServer share into. More slices tighten the bound and cost more per
// call. Eight is where the planner ran fastest on the IOR four-region
// workload: four left 3.6x more requests to score, and sixteen cost
// more per bound than the 20% fewer scored requests saved.
const boundSlices = 8

// Bound returns a floor on the modeled cost of every request of the
// given operation and size under the pinned candidate, whatever its
// offset:
//
//	e.Bound(op, size) <= e.RequestCost(op, off, size) for every off >= 0,
//
// exactly in float64. The grid search compares it against its running
// best to reject a candidate before scoring any request.
//
// Proof. Let tier i have c_i servers of stripe x_i, W = Σ c_i·x_i be the
// striping round, q = size / W and ρ = size mod W. A request covers
// every in-round byte q times, plus the ρ bytes of one cyclic arc once
// more. A server with stripe x > 0 therefore serves q·x bytes plus its
// window's overlap with the arc. Tier i's zone holds b_i of the arc's
// bytes, at most c_i·x_i of them, and Σ b_i = ρ. So tier 0's share is
// b_0 ∈ [max(0, ρ − Σ_{j≠0} c_j·x_j), min(ρ, c_0·x_0)], and when
// b_0 <= hi, every other tier i holds
// b_i >= max(0, ρ − hi − Σ_{j∉{0,i}} c_j·x_j) bytes. With two tiers that
// floor is ρ − hi. Take a tier of c servers with stripe x > 0 that holds
// b of the arc's bytes (tierFloor):
//
//   - If q > 0, all c servers are touched. If q = 0, at least ⌈b/x⌉
//     are, since one window holds at most x arc bytes.
//   - The arc meets the zone in at most two pieces, and two only at the
//     zone's two ends. So at most ⌈b/x⌉+1 windows share the b bytes,
//     and never more than c. The largest share is therefore an integer
//     at least b/c and at least b/(b/x+2) = x·b/(b+2x), and the largest
//     sub-request is at least q·x + max(⌈b/c⌉, ⌈x·b/(b+2x)⌉).
//
// Both floors are non-decreasing in b. On a slice [lo, hi] of tier 0's
// range, tier 0's floor at b_0 = lo and every other tier's floor at its
// least b_i are therefore below every load the slice allows, and Bound
// returns the least cost over boundSlices slices that cover the range.
//
// This holds in float64 and not just in the reals, because the cost is
// non-decreasing in every Load field after rounding too. Its steps are
// int-to-float conversion, max, multiplication by a non-negative
// β or t, addition of non-negative terms, and the correctly rounded
// k/(k+1) of expectedMaxUniform. Each is monotone under round-to-nearest.
func (e *Evaluator) Bound(op device.Op, size int64) float64 {
	if size <= 0 {
		return 0
	}
	terms := e.opTerms(op)
	counts, stripes := e.tiers.Counts[:len(terms)], e.tiers.Stripes[:len(terms)]
	zone0 := int64(counts[0]) * stripes[0]
	round := e.geo.Round()
	q, rho := size/round, size%round
	lo, hi := max(0, rho-(round-zone0)), min(rho, zone0)
	best := math.Inf(1)
	prev := lo
	for i := int64(1); i <= boundSlices; i++ {
		next := lo + (hi-lo)*i/boundSlices
		if next == prev && i > 1 {
			// An empty slice [prev, prev] has the previous slice's
			// other-tier floors and a larger tier-0 one: it cannot be
			// lower.
			continue
		}
		t := terms[0].fold(requestTerms{}, tierFloor(counts[0], stripes[0], q, prev))
		for j := 1; j < len(terms); j++ {
			others := round - zone0 - int64(counts[j])*stripes[j]
			t = terms[j].fold(t, tierFloor(counts[j], stripes[j], q, max(0, rho-next-others)))
		}
		best = min(best, t.breakdown(e.p.NetUnit).Total())
		prev = next
	}
	return best
}

// tierFloor is the least Load a tier of c servers with stripe x can
// carry for a request of q whole rounds whose residual arc puts b bytes
// in the tier (see Bound). With b = 0 both share floors are 0, and with
// q = 0 too the Load is empty; it is small enough to inline into Bound's
// loop.
func tierFloor(c int, x, q, b int64) layout.Load {
	if int64(c)*x == 0 { // the tier's zone, which fits in an int64
		return layout.Load{}
	}
	// On a wide tier with huge stripes x·b can overflow. The wrapped
	// product is smaller than the true one, so the floor only gets
	// weaker, never unsound (FuzzEvaluatorBound's wide seed).
	num, den := x*b, b+2*x
	if b >= int64(c-2)*x {
		// b/c >= x·b/(b+2x): one division finds the larger floor.
		num, den = b, int64(c)
	}
	share := (num + den - 1) / den // ⌈num/den⌉
	if q > 0 {
		return layout.Load{Touched: c, Max: q*x + share}
	}
	return layout.Load{Touched: int(ceilDiv(b, x)), Max: share}
}

// ceilDiv returns ⌈a/b⌉ for a >= 0, b > 0.
func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }
