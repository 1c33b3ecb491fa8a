package layout

import (
	"fmt"
	"math"
)

// Tiered generalizes Striping to any number of server performance
// classes — the paper's first future-work item ("extend our cost model
// to accommodate more than two server performance profiles"). Tier i
// contributes Counts[i] servers, each striped with Stripes[i] bytes per
// round; servers are numbered tier by tier in declaration order, and a
// zero stripe size skips the tier exactly as H == 0 or S == 0 do in the
// two-tier layout.
type Tiered struct {
	Counts  []int
	Stripes []int64
}

// TieredOf converts a two-tier Striping to the general form.
func TieredOf(st Striping) Tiered {
	return Tiered{Counts: []int{st.M, st.N}, Stripes: []int64{st.H, st.S}}
}

// Validate reports whether the configuration can hold data.
func (t Tiered) Validate() error {
	if len(t.Counts) == 0 || len(t.Counts) != len(t.Stripes) {
		return fmt.Errorf("layout: tiered config needs matching counts/stripes, got %d/%d",
			len(t.Counts), len(t.Stripes))
	}
	total := 0
	var bytes int64
	for i, c := range t.Counts {
		if c < 0 {
			return fmt.Errorf("layout: tier %d has negative count %d", i, c)
		}
		if t.Stripes[i] < 0 {
			return fmt.Errorf("layout: tier %d has negative stripe %d", i, t.Stripes[i])
		}
		if c > math.MaxInt-total {
			return fmt.Errorf("layout: tiered config %v has too many servers", t)
		}
		total += c
		var ok bool
		if bytes, ok = addZone(bytes, c, t.Stripes[i]); !ok {
			return fmt.Errorf("layout: tiered config %v round size overflows int64", t)
		}
	}
	if total == 0 {
		return fmt.Errorf("layout: tiered config has no servers")
	}
	if bytes == 0 {
		return fmt.Errorf("layout: tiered config %v stores no data", t)
	}
	return nil
}

// Tiers returns the number of tiers.
func (t Tiered) Tiers() int { return len(t.Counts) }

// Servers returns the total server count.
func (t Tiered) Servers() int {
	total := 0
	for _, c := range t.Counts {
		total += c
	}
	return total
}

// RoundSize returns the bytes per striping round.
func (t Tiered) RoundSize() int64 {
	var bytes int64
	for i, c := range t.Counts {
		bytes += int64(c) * t.Stripes[i]
	}
	return bytes
}

// TierOf returns the tier owning a global server index.
func (t Tiered) TierOf(server int) int {
	if server < 0 {
		panic(fmt.Sprintf("layout: negative server %d", server))
	}
	for i, c := range t.Counts {
		if server < c {
			return i
		}
		server -= c
	}
	panic(fmt.Sprintf("layout: server out of range for %v", t))
}

// StripeOf returns the stripe size of a global server index.
func (t Tiered) StripeOf(server int) int64 {
	return t.Stripes[t.TierOf(server)]
}

// zoneStart returns the in-round byte offset where a tier's zone begins.
func (t Tiered) zoneStart(tier int) int64 {
	var z int64
	for i := 0; i < tier; i++ {
		z += int64(t.Counts[i]) * t.Stripes[i]
	}
	return z
}

// serverBase returns the global index of a tier's first server.
func (t Tiered) serverBase(tier int) int {
	base := 0
	for i := 0; i < tier; i++ {
		base += t.Counts[i]
	}
	return base
}

// Locate maps a logical offset to (global server index, server-local
// offset), like Striping.Locate.
func (t Tiered) Locate(off int64) (server int, local int64) {
	if off < 0 {
		panic(fmt.Sprintf("layout: negative offset %d", off))
	}
	round := t.RoundSize()
	if round <= 0 {
		panic(fmt.Sprintf("layout: %v stores no data", t))
	}
	r := off / round
	l := off % round
	for i, c := range t.Counts {
		zone := int64(c) * t.Stripes[i]
		if l < zone {
			in := l % t.Stripes[i]
			server = t.serverBase(i) + int(l/t.Stripes[i])
			return server, r*t.Stripes[i] + in
		}
		l -= zone
	}
	panic("layout: unreachable: offset beyond round")
}

// Map splits [off, off+size) into per-server sub-requests, one contiguous
// range per touched server, ordered by server index. It is the same walk
// as Striping.Map (see mapRange).
func (t Tiered) Map(off, size int64) []SubRequest {
	checkRange(off, size)
	if size == 0 {
		return nil
	}
	if t.RoundSize() <= 0 {
		panic(fmt.Sprintf("layout: %v stores no data", t))
	}
	minStripe := int64(math.MaxInt64)
	for i, c := range t.Counts {
		if c > 0 && t.Stripes[i] > 0 {
			minStripe = min(minStripe, t.Stripes[i])
		}
	}
	return mapRange(t, t.Servers(), minStripe, off, size)
}

// TierDistribution generalizes Distribution: per tier, the number of
// touched servers and the largest sub-request — the quantities the
// multi-profile cost model consumes.
type TierDistribution struct {
	Touched []int
	Max     []int64
}

// Distribute computes the per-tier distribution in O(total servers),
// independent of request size, mirroring Striping.DistributeAnalytic.
func (t Tiered) Distribute(off, size int64) TierDistribution {
	if off < 0 || size < 0 {
		panic(fmt.Sprintf("layout: invalid range %d+%d", off, size))
	}
	d := TierDistribution{Touched: make([]int, t.Tiers()), Max: make([]int64, t.Tiers())}
	if size == 0 {
		return d
	}
	round := t.RoundSize()
	if round <= 0 {
		panic(fmt.Sprintf("layout: %v stores no data", t))
	}
	end := off + size
	rb := off / round
	re := (end - 1) / round
	mid := re - rb - 1
	if mid < 0 {
		mid = 0
	}
	for ti, c := range t.Counts {
		stripe := t.Stripes[ti]
		if stripe == 0 {
			continue
		}
		zs := t.zoneStart(ti)
		for i := 0; i < c; i++ {
			zone := zs + int64(i)*stripe
			cov := mid * stripe
			cov += overlap(off, end, rb*round+zone, rb*round+zone+stripe)
			if re > rb {
				cov += overlap(off, end, re*round+zone, re*round+zone+stripe)
			}
			if cov > 0 {
				d.Touched[ti]++
				if cov > d.Max[ti] {
					d.Max[ti] = cov
				}
			}
		}
	}
	return d
}

// String renders the configuration, e.g. "[6x16K 1x64K 1x256K]".
func (t Tiered) String() string {
	s := "["
	for i, c := range t.Counts {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%dx%s", c, kb(t.Stripes[i]))
	}
	return s + "]"
}
