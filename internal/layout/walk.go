package layout

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// geometry is what the fragment walk needs from a layout. Striping,
// Tiered and every Mapper provide it.
type geometry interface {
	Locate(off int64) (server int, local int64)
	StripeOf(server int) int64
}

// walk visits the stripe fragments of [off, off+size) in logical order:
// bytes [pos, pos+n) of the file are bytes [local, local+n) of server's
// backing object. A fragment runs to the end of its stripe or of the
// range, so a range of size bytes has at most size/minStripe+2 of them.
// Fragments visit the servers that store data cyclically, in ascending
// index order.
func walk[G geometry](g G, off, size int64, visit func(server int, local, pos, n int64)) {
	for pos, end := off, off+size; pos < end; {
		server, local := g.Locate(pos)
		stripe := g.StripeOf(server)
		n := min(stripe-local%stripe, end-pos)
		visit(server, local, pos, n)
		pos += n
	}
}

// checkRange panics on a range no layout can map.
func checkRange(off, size int64) {
	if off < 0 || size < 0 || off > math.MaxInt64-size {
		panic(fmt.Sprintf("layout: invalid range %d+%d", off, size))
	}
}

// mapRange is Map for any geometry; minStripe is the smallest stripe
// size that stores data and servers the layout's server count. It keeps
// one entry per touched server rather than per-server scratch. Because
// the walk visits servers cyclically, once subs[0]'s server comes round
// again every server the range touches already has an entry, and each
// later fragment extends the entry at a cursor that follows the cycle.
// The entries are finally rotated into ascending server order. The
// result is sized once, so the call makes exactly one allocation.
func mapRange[G geometry](g G, servers int, minStripe, off, size int64) []SubRequest {
	capacity := servers
	if q := size / minStripe; q < int64(servers)-2 {
		capacity = int(q) + 2
	}
	subs := make([]SubRequest, 0, capacity)
	cursor := -1 // index of the entry the next fragment extends, once the walk has wrapped
	walk(g, off, size, func(server int, local, _, n int64) {
		if cursor < 0 {
			if len(subs) == 0 || server != subs[0].Server {
				subs = append(subs, SubRequest{Server: server, Local: local, Size: n})
				return
			}
			cursor = 0
		}
		sub := &subs[cursor]
		sub.Size = local + n - sub.Local
		if cursor++; cursor == len(subs) {
			cursor = 0
		}
	})
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

// Fragments walks the stripe fragments of [off, off+size), the walk Map
// makes, and reports each one against subs, which must be m.Map(off,
// size): bytes [pos, pos+n) of the file are bytes [at, at+n) of subs[i].
// The walk meets the sub-requests cyclically, so after the first one it
// finds each by stepping, without a search. The file system uses it to
// split a write buffer into per-server payloads and to reassemble read
// replies.
func Fragments(m Mapper, subs []SubRequest, off, size int64, visit func(i int, at, pos, n int64)) {
	checkRange(off, size)
	i := -1
	walk(m, off, size, func(server int, local, pos, n int64) {
		if i < 0 {
			i = sort.Search(len(subs), func(j int) bool { return subs[j].Server >= server })
		} else if i++; i == len(subs) {
			i = 0
		}
		if i == len(subs) || subs[i].Server != server {
			panic(fmt.Sprintf("layout: fragment on server %d is not in the sub-requests", server))
		}
		visit(i, local-subs[i].Local, pos, n)
	})
}
