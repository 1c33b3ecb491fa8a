package layout

import (
	"fmt"
	"math"
	"sort"
)

// checkRange panics on a range no layout can map.
func checkRange(off, size int64) {
	if off < 0 || size < 0 || off > math.MaxInt64-size {
		panic(fmt.Sprintf("layout: invalid range %d+%d", off, size))
	}
}

// fragment returns the length of the stripe fragment at a server-local
// offset: it runs to the end of its stripe or of the rest bytes left in
// the range, so a range of size bytes has at most size/minStripe+2
// fragments.
func fragment(stripe, local, rest int64) int64 {
	return min(stripe-local%stripe, rest)
}

// Fragments walks the stripe fragments of [off, off+size) in logical
// order, the walk Map makes, and reports each one against subs, which
// must be m.Map(off, size): bytes [pos, pos+n) of the file are bytes
// [at, at+n) of subs[i]. The walk meets the sub-requests cyclically, so
// after the first one it finds each by stepping, without a search. The
// file system uses it to split a write buffer into per-server payloads
// and to reassemble read replies.
func Fragments(m Mapper, subs []SubRequest, off, size int64, visit func(i int, at, pos, n int64)) {
	checkRange(off, size)
	i := -1
	for pos, end := off, off+size; pos < end; {
		server, local := m.Locate(pos)
		if i < 0 {
			i = sort.Search(len(subs), func(j int) bool { return subs[j].Server >= server })
		} else if i++; i == len(subs) {
			i = 0
		}
		if i == len(subs) || subs[i].Server != server {
			panic(fmt.Sprintf("layout: fragment on server %d is not in the sub-requests", server))
		}
		n := fragment(m.StripeOf(server), local, end-pos)
		visit(i, local-subs[i].Local, pos, n)
		pos += n
	}
}
