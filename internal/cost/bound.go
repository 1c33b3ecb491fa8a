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
// given operation and size under the pinned pair, whatever its offset:
//
//	e.Bound(op, size) <= e.RequestCost(op, off, size) for every off >= 0,
//
// exactly in float64. The grid search compares it against its running
// best to reject a candidate before scoring any request.
//
// Proof. Let W = M·h + N·s be the striping round, q = size / W and
// ρ = size mod W. A request covers every in-round byte q times, plus
// the ρ bytes of one cyclic arc once more. A server with stripe x > 0
// therefore serves q·x bytes plus its window's overlap with the arc. The
// arc splits into b_H bytes in the HServer zone [0, M·h) and
// b_S = ρ − b_H in the SServer zone, so
// b_H ∈ [max(0, ρ − N·s), min(ρ, M·h)]. Take a tier of c servers with
// stripe x > 0 that holds b of the arc's bytes (tierFloor):
//
//   - If q > 0, all c servers are touched. If q = 0, at least ⌈b/x⌉
//     are, since one window holds at most x arc bytes.
//   - The arc meets the zone in at most two pieces, and two only at the
//     zone's two ends. So at most ⌈b/x⌉+1 windows share the b bytes,
//     and never more than c. The largest share is therefore an integer
//     at least b/c and at least b/(b/x+2) = x·b/(b+2x), and the largest
//     sub-request is at least q·x + max(⌈b/c⌉, ⌈x·b/(b+2x)⌉).
//
// Both floors are non-decreasing in b. On a slice [lo, hi] of the b_H
// range, the HServer floor at b_H = lo and the SServer floor at
// b_S = ρ − hi are therefore below every load the slice allows, and
// Bound returns the least breakdown over boundSlices slices that cover
// the range.
//
// This holds in float64 and not just in the reals, because breakdown is
// non-decreasing in every Load field after rounding too. Its steps are
// int-to-float conversion, max, multiplication by a non-negative
// β or t, addition of non-negative terms, and the correctly rounded
// k/(k+1) of expectedMaxUniform. Each is monotone under round-to-nearest.
// A replicated write (R > 1) goes through the same requestTerms, whose
// chain factor only scales Touched and the network term.
func (e *Evaluator) Bound(op device.Op, size int64) float64 {
	if size <= 0 {
		return 0
	}
	h, s := e.Pair()
	zoneH, zoneS := int64(e.p.M)*h, int64(e.p.N)*s
	q, rho := size/(zoneH+zoneS), size%(zoneH+zoneS)
	lo, hi := max(0, rho-zoneS), min(rho, zoneH)
	best := math.Inf(1)
	prev := lo
	for i := int64(1); i <= boundSlices; i++ {
		next := lo + (hi-lo)*i/boundSlices
		if next == prev && i > 1 {
			// An empty slice [prev, prev] has the previous slice's
			// SServer floor and a larger HServer one: it cannot be lower.
			continue
		}
		hl, sl := tierFloor(e.p.M, h, q, prev), tierFloor(e.p.N, s, q, rho-next)
		best = min(best, e.breakdown(op, hl, sl).Total())
		prev = next
	}
	return best
}

// tierFloor is the least Load a tier of c servers with stripe x can
// carry for a request of q whole rounds whose residual arc puts b bytes
// in the tier (see Bound).
func tierFloor(c int, x, q, b int64) layout.Load {
	if c == 0 || x == 0 || q == 0 && b == 0 {
		return layout.Load{}
	}
	var share int64
	switch {
	case b == 0:
	case b >= int64(c-2)*x:
		// b/c >= x·b/(b+2x): one division finds the larger floor.
		share = ceilDiv(b, int64(c))
	default:
		// On a wide tier with huge stripes x·b can overflow. The
		// wrapped product is smaller than the true one, so the floor
		// only gets weaker, never unsound (FuzzEvaluatorBound's wide
		// seed).
		share = ceilDiv(x*b, b+2*x)
	}
	if q > 0 {
		return layout.Load{Touched: c, Max: q*x + share}
	}
	return layout.Load{Touched: int(ceilDiv(b, x)), Max: share}
}

// ceilDiv returns ⌈a/b⌉ for a >= 0, b > 0.
func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }
