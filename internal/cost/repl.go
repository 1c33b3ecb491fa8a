package cost

import "math"

// RebuildCost models the time (seconds) to re-replicate the given byte
// count after a replica is lost: every byte crosses the network once and
// is written once at the slowest tier's store rate. The
// planner charges it, weighted by failure likelihood, when scoring a
// region's replication factor — higher r loses more bytes per crash but
// keeps more copies to rebuild from; this term prices the former.
func (p Params) RebuildCost(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	var beta float64
	for _, t := range p.Tiers {
		beta = math.Max(beta, t.Write.Beta)
	}
	return float64(bytes) * (p.NetUnit + beta)
}
