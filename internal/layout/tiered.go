package layout

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Tiered is the striping geometry over any number of server performance
// classes — the paper's first future-work item ("extend our cost model
// to accommodate more than two server performance profiles"), and the
// one implementation Striping views as two tiers. Tier i contributes
// Counts[i] servers, each striped with Stripes[i] bytes per round;
// servers are numbered tier by tier in declaration order, and a zero
// stripe size skips the tier exactly as H == 0 or S == 0 do in the
// two-tier layout.
//
// No method retains its receiver (panic and error messages format it
// through String), so a Tiered built on the caller's stack stays there.
type Tiered struct {
	Counts  []int
	Stripes []int64
}

// Validate reports whether the configuration can hold data: its round
// size must be positive and fit in an int64.
func (t Tiered) Validate() error {
	_, err := t.validRound()
	return err
}

// validRound validates t and returns its round size.
func (t Tiered) validRound() (int64, error) {
	if len(t.Counts) == 0 || len(t.Counts) != len(t.Stripes) {
		return 0, fmt.Errorf("layout: tiered config needs matching counts/stripes, got %d/%d",
			len(t.Counts), len(t.Stripes))
	}
	total := 0
	var bytes int64
	for i, c := range t.Counts {
		stripe := t.Stripes[i]
		if c < 0 || stripe < 0 {
			return 0, fmt.Errorf("layout: tier %d has negative count %d or stripe %d", i, c, stripe)
		}
		hi, zone := bits.Mul64(uint64(c), uint64(stripe))
		switch {
		case c > math.MaxInt-total:
			return 0, fmt.Errorf("layout: tiered config %s has too many servers", t.String())
		case hi != 0 || zone > uint64(math.MaxInt64-bytes):
			return 0, fmt.Errorf("layout: tiered config %s round size overflows int64", t.String())
		}
		total += c
		bytes += int64(zone)
	}
	if total == 0 {
		return 0, fmt.Errorf("layout: tiered config has no servers")
	}
	if bytes == 0 {
		return 0, fmt.Errorf("layout: tiered config %s stores no data", t.String())
	}
	return bytes, nil
}

// Servers returns the total server count.
func (t Tiered) Servers() int {
	total := 0
	for _, c := range t.Counts {
		total += c
	}
	return total
}

// RoundSize returns the bytes per striping round, the sum over tiers of
// count × stripe.
func (t Tiered) RoundSize() int64 {
	var bytes int64
	for i, c := range t.Counts {
		bytes += int64(c) * t.Stripes[i]
	}
	return bytes
}

// StripeOf returns the stripe size of a global server index.
func (t Tiered) StripeOf(server int) int64 {
	if server >= 0 {
		for i, rest := 0, server; i < len(t.Counts); i++ {
			if rest < t.Counts[i] {
				return t.Stripes[i]
			}
			rest -= t.Counts[i]
		}
	}
	panic(fmt.Sprintf("layout: server %d out of range [0,%d)", server, t.Servers()))
}

// Locate maps a logical file offset to (server, local offset). The local
// offset is the position within the server's backing object, which stores
// that server's stripes contiguously — exactly how OrangeFS datafiles
// work. Panics if the layout stores no data or off is negative.
func (t Tiered) Locate(off int64) (server int, local int64) {
	server, local, _ = t.locate(t.RoundSize(), off)
	return server, local
}

// locate is Locate given the round size, also returning the server's
// stripe size.
func (t Tiered) locate(round, off int64) (server int, local, stripe int64) {
	if off < 0 {
		panic(fmt.Sprintf("layout: negative offset %d", off))
	}
	if round <= 0 {
		panic(fmt.Sprintf("layout: %s stores no data", t.String()))
	}
	r := off / round // rb in the paper: index of the striping round
	l := off % round // lb: position within the round
	for i, c := range t.Counts {
		stripe = t.Stripes[i]
		if zone := int64(c) * stripe; l >= zone {
			l -= zone
			server += c
			continue
		}
		return server + int(l/stripe), r*stripe + l%stripe, stripe
	}
	panic("layout: unreachable: offset beyond round")
}

// Map splits the logical byte range [off, off+size) into per-server
// sub-requests. Because a contiguous logical range touches a contiguous
// run of each server's stripes, each touched server receives exactly one
// contiguous sub-request; results are ordered by server index.
//
// Map walks the range's stripe fragments, O(size/min stripe), and keeps
// one entry per touched server rather than per-server scratch. The walk
// visits the servers that store data cyclically in ascending index
// order, so once subs[0]'s server comes round again every server the
// range touches already has an entry, and each later fragment extends
// the entry at a cursor that follows the cycle. The entries are finally
// rotated into ascending server order. The result is sized once, so the
// call makes exactly one allocation.
func (t Tiered) Map(off, size int64) []SubRequest {
	checkRange(off, size)
	if size == 0 {
		return nil
	}
	minStripe := int64(math.MaxInt64) // of the tiers that store data
	for i, c := range t.Counts {
		if c > 0 && t.Stripes[i] > 0 {
			minStripe = min(minStripe, t.Stripes[i])
		}
	}
	capacity := t.Servers()
	if q := size / minStripe; q < int64(capacity)-2 {
		capacity = int(q) + 2 // a range has at most size/minStripe+2 fragments
	}
	subs := make([]SubRequest, 0, capacity)
	cursor := -1 // index of the entry the next fragment extends, once the walk has wrapped
	round := t.RoundSize()
	for pos, end := off, off+size; pos < end; {
		server, local, stripe := t.locate(round, pos)
		n := fragment(stripe, local, end-pos)
		pos += n
		if cursor < 0 {
			if len(subs) == 0 || server != subs[0].Server {
				subs = append(subs, SubRequest{Server: server, Local: local, Size: n})
				continue
			}
			cursor = 0
		}
		subs[cursor].Size = local + n - subs[cursor].Local
		if cursor++; cursor == len(subs) {
			cursor = 0
		}
	}
	// The entries ascend from the first fragment's server, wrap once past
	// the highest touched server, and ascend again.
	for k := 1; k < len(subs); k++ {
		if subs[k].Server < subs[k-1].Server {
			slices.Reverse(subs[:k])
			slices.Reverse(subs[k:])
			slices.Reverse(subs)
			break
		}
	}
	return subs
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
