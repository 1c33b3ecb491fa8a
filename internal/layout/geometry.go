package layout

import "fmt"

// Geometry is a validated k-tier layout compiled for the cost model,
// which needs, per request, how many servers of each tier the request
// touches and the largest sub-request on each (paper Section III-D,
// Figs. 4-5). NewGeometry validates once and precomputes the round size,
// so the per-request work is the cover arithmetic alone: HARL's
// stripe-size search scores thousands of requests under each candidate.
type Geometry struct {
	t     Tiered
	round int64 // t.RoundSize()
}

// NewGeometry validates t and compiles it. The geometry keeps t's slices
// without copying them; the caller must not change them afterwards.
func NewGeometry(t Tiered) (Geometry, error) {
	round, err := t.validRound()
	if err != nil {
		return Geometry{}, err
	}
	return Geometry{t: t, round: round}, nil
}

// Round returns the bytes in one striping round.
func (g Geometry) Round() int64 { return g.round }

// Load is one tier's share of a request: the number of its servers
// serving part of the request and the largest sub-request among them —
// (m, s_m) and (n, s_n) of the paper's cost model for the HServer and
// SServer tiers.
type Load struct {
	Touched int
	Max     int64
}

// Distribute fills loads[i] with tier i's Load for the request
// [off, off+size); len(loads) must equal the tier count. It is exact for
// every placement case, including the four begin/end cases of the
// paper's Fig. 4 and tiers with a zero stripe, and costs O(servers)
// independent of the request size.
//
// Each server's stripe occupies a fixed window of every striping round:
// the request's middle rounds cover it entirely, and its first and last
// rounds contribute their overlaps with the window.
func (g Geometry) Distribute(off, size int64, loads []Load) {
	checkRange(off, size)
	if len(loads) != len(g.t.Counts) {
		panic(fmt.Sprintf("layout: %d loads for %d tiers", len(loads), len(g.t.Counts)))
	}
	if size == 0 {
		clear(loads)
		return
	}
	end := off + size
	rb := off / g.round       // first round
	re := (end - 1) / g.round // last round
	mid := max(re-rb-1, 0)    // whole rounds in between
	// In-round coordinates: the first round covers [a, head) and the last
	// round [0, tail); a request inside one round has no separate tail.
	a := off - rb*g.round
	head, tail := g.round, end-re*g.round
	if re == rb {
		head, tail = tail, 0
	}
	var zone int64 // in-round offset of the current tier's zone
	for ti, c := range g.t.Counts {
		stripe := g.t.Stripes[ti]
		var l Load
		for w, zoneEnd := zone, zone+int64(c)*stripe; w < zoneEnd; w += stripe {
			if cov := mid*stripe + overlap(a, head, w, w+stripe) + overlap(0, tail, w, w+stripe); cov > 0 {
				l.Touched++
				l.Max = max(l.Max, cov)
			}
		}
		loads[ti] = l
		zone += int64(c) * stripe
	}
}

// overlap returns the length of [a,b) ∩ [c,d).
func overlap(a, b, c, d int64) int64 {
	return max(min(b, d)-max(a, c), 0)
}
