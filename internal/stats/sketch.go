package stats

import (
	"fmt"
	"math"
)

// QuantileSketch is a mergeable quantile sketch over positive values,
// in the spirit of DDSketch: values collapse into logarithmic buckets
// chosen so every quantile estimate carries a bounded relative error
// alpha. Two sketches built with the same alpha merge by bucket-count
// addition, which is what lets the workload monitor keep one cumulative
// sketch per region while folding in per-window sketches as they close.
//
// Only strictly positive finite samples land in buckets (request sizes
// and offsets are); zero, negative and non-finite samples are counted in
// Invalid and excluded from quantiles, mirroring Histogram's NaN policy.
//
// The buckets are dense: counts[i] holds bucket key lo+i, and the range
// [lo, lo+len(counts)) only grows, to cover every key a sample or merge
// has reached. Reset zeroes the counts but keeps the range, so a sketch
// reused window after window stops allocating once its range settles.
//
// The sketch is deterministic: bucket indices are pure arithmetic and
// quantile queries walk the buckets in key order, so equal sample
// streams always produce equal answers.
type QuantileSketch struct {
	alpha   float64
	gamma   float64
	invLogG float64
	lo      int     // bucket key of counts[0]
	counts  []int64 // counts[i] is bucket lo+i's sample count
	total   int64
	// Invalid counts rejected samples (<= 0, NaN, ±Inf).
	Invalid int64
}

// DefaultSketchAlpha is the relative accuracy monitors use: quantile
// estimates are within 1% of a true sample value.
const DefaultSketchAlpha = 0.01

// NewQuantileSketch creates an empty sketch with relative accuracy
// alpha in (0, 1).
func NewQuantileSketch(alpha float64) *QuantileSketch {
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("stats: sketch alpha %v outside (0,1)", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &QuantileSketch{
		alpha:   alpha,
		gamma:   gamma,
		invLogG: 1 / math.Log(gamma),
	}
}

// Alpha returns the sketch's relative accuracy.
func (s *QuantileSketch) Alpha() float64 { return s.alpha }

// Count returns the number of bucketed samples.
func (s *QuantileSketch) Count() int64 { return s.total }

// Add records one sample.
func (s *QuantileSketch) Add(x float64) { s.AddKey(s.Key(x)) }

// Key returns the bucket x falls in and whether x is a valid sample.
// Feeding one value to several sketches of the same alpha — Key once,
// then AddKey on each — equals calling Add on each, with one logarithm.
func (s *QuantileSketch) Key(x float64) (k int, ok bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) || x <= 0 {
		return 0, false
	}
	return int(math.Ceil(math.Log(x) * s.invLogG)), true
}

// AddKey records one sample in bucket k, as Key returned it from a
// sketch with the same alpha; ok false records an invalid sample.
func (s *QuantileSketch) AddKey(k int, ok bool) {
	if !ok {
		s.Invalid++
		return
	}
	s.cover(k, k)
	s.counts[k-s.lo]++
	s.total++
}

// cover grows the bucket range to include keys lo..hi. Growing upward
// appends, so the runtime's capacity doubling amortizes it; growing
// downward reallocates, which happens only when a new minimum arrives.
func (s *QuantileSketch) cover(lo, hi int) {
	if len(s.counts) == 0 {
		s.lo, s.counts = lo, make([]int64, hi-lo+1)
		return
	}
	if top := s.lo + len(s.counts) - 1; hi > top {
		s.counts = append(s.counts, make([]int64, hi-top)...)
	}
	if lo < s.lo {
		grown := make([]int64, s.lo-lo+len(s.counts))
		copy(grown[s.lo-lo:], s.counts)
		s.lo, s.counts = lo, grown
	}
}

// Merge folds other's buckets into s. Both sketches must share the same
// alpha — merging differently-sized buckets is always a bug.
func (s *QuantileSketch) Merge(other *QuantileSketch) {
	if other == nil {
		return
	}
	if other.alpha != s.alpha {
		panic(fmt.Sprintf("stats: merging sketches with alphas %v and %v", s.alpha, other.alpha))
	}
	if n := len(other.counts); n > 0 {
		s.cover(other.lo, other.lo+n-1)
		off := other.lo - s.lo
		for i, c := range other.counts {
			s.counts[off+i] += c
		}
	}
	s.total += other.total
	s.Invalid += other.Invalid
}

// Quantile estimates the q-th quantile (0 <= q <= 1). ok is false on an
// empty sketch; out-of-range q panics.
func (s *QuantileSketch) Quantile(q float64) (float64, bool) {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of range", q))
	}
	if s.total == 0 {
		return 0, false
	}
	rank := int64(q * float64(s.total-1))
	var cum int64
	for i, c := range s.counts {
		cum += c
		if cum > rank {
			// Midpoint of bucket (γ^(k-1), γ^k]: relative error <= alpha.
			return 2 * math.Pow(s.gamma, float64(s.lo+i)) / (1 + s.gamma), true
		}
	}
	// Unreachable: cum reaches total > rank.
	return 0, false
}

// Deciles returns the nine interior deciles (q10..q90); ok is false on
// an empty sketch.
func (s *QuantileSketch) Deciles() ([9]float64, bool) {
	var d [9]float64
	if s.total == 0 {
		return d, false
	}
	for i := range d {
		d[i], _ = s.Quantile(float64(i+1) / 10)
	}
	return d, true
}

// Reset empties the sketch, keeping its accuracy and its bucket range.
func (s *QuantileSketch) Reset() {
	clear(s.counts)
	s.total = 0
	s.Invalid = 0
}

// Reservoir keeps a uniform sample of at most K items from a stream
// (Vitter's Algorithm R). Randomness comes from a private xorshift64*
// generator seeded at construction — never the simulation engine's RNG —
// so an attached monitor perturbs nothing and the kept sample is a pure
// function of (seed, stream).
type Reservoir[T any] struct {
	k     int
	seen  int64
	state uint64
	items []T
}

// NewReservoir creates a reservoir of capacity k. Seed 0 is remapped to
// a fixed non-zero constant (xorshift has no zero state).
func NewReservoir[T any](k int, seed uint64) *Reservoir[T] {
	if k <= 0 {
		panic(fmt.Sprintf("stats: reservoir capacity %d", k))
	}
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Reservoir[T]{k: k, state: seed}
}

// next advances the xorshift64* state.
func (r *Reservoir[T]) next() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Add offers one item to the reservoir.
func (r *Reservoir[T]) Add(x T) {
	r.seen++
	if len(r.items) < r.k {
		r.items = append(r.items, x)
		return
	}
	if j := r.next() % uint64(r.seen); j < uint64(r.k) {
		r.items[j] = x
	}
}

// Seen returns how many items were offered.
func (r *Reservoir[T]) Seen() int64 { return r.seen }

// Items exposes the kept sample; the slice is the reservoir's backing
// store and must not be modified.
func (r *Reservoir[T]) Items() []T { return r.items }

// Reset empties the reservoir without reseeding, so a rolling window
// reuses one allocation and stays deterministic across resets.
func (r *Reservoir[T]) Reset() {
	r.items = r.items[:0]
	r.seen = 0
}
