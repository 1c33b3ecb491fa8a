package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// mapSketch is the map-bucketed QuantileSketch the dense one replaced,
// kept as the oracle: the same bucket keys, quantiles from a sorted walk
// of the occupied keys.
type mapSketch struct {
	alpha   float64
	gamma   float64
	invLogG float64
	counts  map[int]int64
	total   int64
	Invalid int64
}

func newMapSketch(alpha float64) *mapSketch {
	gamma := (1 + alpha) / (1 - alpha)
	return &mapSketch{alpha: alpha, gamma: gamma, invLogG: 1 / math.Log(gamma), counts: make(map[int]int64)}
}

func (s *mapSketch) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) || x <= 0 {
		s.Invalid++
		return
	}
	s.counts[int(math.Ceil(math.Log(x)*s.invLogG))]++
	s.total++
}

func (s *mapSketch) Merge(other *mapSketch) {
	for k, c := range other.counts {
		s.counts[k] += c
	}
	s.total += other.total
	s.Invalid += other.Invalid
}

func (s *mapSketch) Quantile(q float64) (float64, bool) {
	if s.total == 0 {
		return 0, false
	}
	keys := make([]int, 0, len(s.counts))
	for k := range s.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	rank := int64(q * float64(s.total-1))
	var cum int64
	for _, k := range keys {
		cum += s.counts[k]
		if cum > rank {
			return 2 * math.Pow(s.gamma, float64(k)) / (1 + s.gamma), true
		}
	}
	return 0, false
}

func (s *mapSketch) Deciles() ([9]float64, bool) {
	var d [9]float64
	if s.total == 0 {
		return d, false
	}
	for i := range d {
		d[i], _ = s.Quantile(float64(i+1) / 10)
	}
	return d, true
}

func (s *mapSketch) Reset() {
	s.counts = make(map[int]int64)
	s.total = 0
	s.Invalid = 0
}

// sketchPair runs one QuantileSketch beside its oracle.
type sketchPair struct {
	dense  *QuantileSketch
	oracle *mapSketch
}

func newSketchPair() sketchPair {
	return sketchPair{NewQuantileSketch(DefaultSketchAlpha), newMapSketch(DefaultSketchAlpha)}
}

func (p sketchPair) add(x float64) {
	p.dense.Add(x)
	p.oracle.Add(x)
}

// check requires the two sketches to answer every query bit-identically.
func (p sketchPair) check(t *testing.T, step string) {
	t.Helper()
	if p.dense.Count() != p.oracle.total || p.dense.Invalid != p.oracle.Invalid {
		t.Fatalf("%s: count/invalid %d/%d, oracle %d/%d", step,
			p.dense.Count(), p.dense.Invalid, p.oracle.total, p.oracle.Invalid)
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 0.999, 1} {
		got, gok := p.dense.Quantile(q)
		want, wok := p.oracle.Quantile(q)
		if gok != wok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: quantile %v = (%v, %v), oracle (%v, %v)", step, q, got, gok, want, wok)
		}
	}
	gd, gok := p.dense.Deciles()
	wd, wok := p.oracle.Deciles()
	if gok != wok || gd != wd {
		t.Fatalf("%s: deciles %v (%v), oracle %v (%v)", step, gd, gok, wd, wok)
	}
}

// sketchValue maps a random draw to a latency-like sample: log-uniform
// over 1e-9..1e3 s, with zeros, negatives, NaN and ±Inf mixed in.
func sketchValue(u uint64) float64 {
	switch u % 16 {
	case 0:
		return 0
	case 1:
		return -float64(u>>8%1000) * 1e-6
	case 2:
		return math.NaN()
	case 3:
		return math.Inf(1 - 2*int(u>>8&1))
	}
	return math.Pow(10, -9+12*float64(u>>11)/(1<<53))
}

// runSketchOps drives a pair of sketch pairs through an op stream: Add
// to either, Merge one into the other, Reset either. Each op reads one
// 8-byte word; the stream ends when the words run out.
func runSketchOps(t *testing.T, words []uint64) {
	a, b := newSketchPair(), newSketchPair()
	for i, w := range words {
		dst, src := a, b
		if w>>63 == 1 {
			dst, src = b, a
		}
		switch op := w >> 60 & 7; {
		case op < 5:
			dst.add(sketchValue(w))
		case op == 5:
			dst.dense.Merge(src.dense)
			dst.oracle.Merge(src.oracle)
		case op == 6:
			dst.dense.Reset()
			dst.oracle.Reset()
		default:
			// A burst of nearby values, the shape of a steady latency.
			base := sketchValue(w)
			for j := 0; j < 8; j++ {
				dst.add(base * (1 + float64(j)/64))
			}
		}
		if i%7 == 0 || i == len(words)-1 {
			a.check(t, "a")
			b.check(t, "b")
		}
	}
}

// TestQuantileSketchMatchesMapOracle is the property: random
// Add/Merge/Reset sequences over values spanning 1e-9..1e3 s, zeros,
// negatives, NaN and ±Inf leave the dense sketch answering exactly as
// the map-bucketed oracle does.
func TestQuantileSketchMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		words := make([]uint64, 1+rng.Intn(400))
		for i := range words {
			words[i] = rng.Uint64()
		}
		runSketchOps(t, words)
	}
}

// FuzzQuantileSketch explores op streams beyond the property's seeds.
func FuzzQuantileSketch(f *testing.F) {
	seed := func(words ...uint64) []byte {
		var b []byte
		for _, w := range words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	f.Add(seed())
	// Adds to a, a burst into b, merge b into a, reset b, add to b.
	f.Add(seed(0x0123456789abcdef, 0xf000_0000_0000_0004, 0x5000_0000_0000_0000,
		0xe000_0000_0000_0000, 0x8000_0000_0000_0005))
	f.Fuzz(func(t *testing.T, data []byte) {
		words := make([]uint64, 0, len(data)/8)
		for len(data) >= 8 {
			words = append(words, binary.LittleEndian.Uint64(data))
			data = data[8:]
		}
		runSketchOps(t, words)
	})
}
