package mpiio

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"harl/internal/obs"
	"harl/internal/sim"
)

// Two-phase collective I/O (ROMIO's collective buffering), the access
// method BTIO uses. All ranks enter the collective together; a subset of
// ranks — one aggregator per compute node — partitions the aggregate byte
// range into contiguous file domains, shuffles data between ranks and
// aggregators over the network, and issues one large contiguous file
// request per covered interval of each domain. This turns the many small
// noncontiguous per-rank accesses of nested-strided patterns into the
// large well-formed requests the file system (and HARL's analysis) sees.

// CollPiece is one rank's contribution to a collective write: data placed
// at a logical file offset.
type CollPiece struct {
	Off  int64
	Data []byte
}

// CollRange is one rank's request in a collective read.
type CollRange struct {
	Off  int64
	Size int64
}

// interval is a covered byte range within a file domain.
type interval struct {
	off  int64
	end  int64
	data []byte // writes only
}

// CollectiveWrite performs MPI_File_write_all: pieces[r] lists rank r's
// contributions (nil for non-contributing ranks). done fires when the
// slowest aggregator's last file request completes — the collective's
// implicit synchronization. Each payload byte is copied once, into its
// aggregator's interval buffer, and the collective keeps no reference to
// any piece's Data once done fires.
func (w *World) CollectiveWrite(f File, pieces [][]CollPiece, done func(error)) {
	if len(pieces) != w.Ranks() {
		panic(fmt.Sprintf("mpiio: pieces for %d ranks, world has %d", len(pieces), w.Ranks()))
	}
	lo, hi := collExtent(pieces)
	if lo >= hi {
		w.engine.Schedule(0, func() { done(nil) })
		return
	}
	aggs := w.aggregators()
	domains := splitDomains(lo, hi, len(aggs))

	tr := w.fs.Tracer()
	var collSpan obs.SpanID
	if tr != nil {
		collSpan = tr.Begin("mpiio", "coll.write", 0,
			obs.T("file", f.Name()), obs.TInt("lo", lo), obs.TInt("hi", hi),
			obs.TInt("aggregators", int64(len(aggs))))
		origDone := done
		done = func(err error) {
			tr.End(collSpan, obs.T("status", opStatus(err)))
			origDone(err)
		}
	}

	// Shuffle phase: move each rank's bytes into its target aggregators'
	// buffers, one coalesced network message per (rank, aggregator) pair.
	// A counting pass sizes the plan exactly: aggregator a's cut pieces
	// occupy planned[base[a]:base[a+1]], rank-major, so every message's
	// pieces are one contiguous run of it.
	nAgg := len(aggs)
	base := make([]int, nAgg+1)
	for _, ps := range pieces {
		for _, p := range ps {
			cutByDomains(p.Off, int64(len(p.Data)), domains, func(ai int, _, _ int64) { base[ai+1]++ })
		}
	}
	for ai := 0; ai < nAgg; ai++ {
		base[ai+1] += base[ai]
	}
	planned := make([]CollPiece, base[nAgg])
	fill := append([]int(nil), base[:nAgg]...)

	type msg struct {
		fromRank int
		agg      int
		bytes    int64
		pieces   []CollPiece
	}
	// Messages go out rank by rank in ascending aggregator order, so their
	// transfer order, and with it every virtual time, is fixed by the
	// inputs alone.
	var msgs []msg
	first := make([]int, nAgg) // fill at the current rank's start
	sent := make([]int64, nAgg)
	for r, ps := range pieces {
		copy(first, fill)
		clear(sent)
		for _, p := range ps {
			cutByDomains(p.Off, int64(len(p.Data)), domains, func(ai int, off, n int64) {
				at := off - p.Off
				planned[fill[ai]] = CollPiece{Off: off, Data: p.Data[at : at+n]}
				fill[ai]++
				sent[ai] += n
			})
		}
		for ai := 0; ai < nAgg; ai++ {
			if fill[ai] > first[ai] {
				msgs = append(msgs, msg{fromRank: r, agg: ai, bytes: sent[ai], pieces: planned[first[ai]:fill[ai]]})
			}
		}
	}
	if len(msgs) == 0 {
		w.engine.Schedule(0, func() { done(nil) })
		return
	}

	// Each aggregator's pieces land in arrived in message-arrival order,
	// the order mergePieces resolves overlaps by.
	arrived := make([]CollPiece, len(planned))
	copy(fill, base[:nAgg])

	writeBack := func() {
		// Write phase: each aggregator flushes its covered intervals.
		var reqs int
		intervalsByAgg := make([][]interval, nAgg)
		for ai := range intervalsByAgg {
			intervalsByAgg[ai] = mergePieces(arrived[base[ai]:base[ai+1]])
			reqs += len(intervalsByAgg[ai])
		}
		if reqs == 0 {
			w.engine.Schedule(0, func() { done(nil) })
			return
		}
		finish := sim.NewErrCountdown(reqs, done)
		for ai, ivs := range intervalsByAgg {
			for _, iv := range ivs {
				f.WriteAt(aggs[ai], iv.off, iv.data, finish.Done)
			}
		}
	}
	shuffle := sim.NewCountdown(len(msgs), writeBack)
	land := func(arg any, _ sim.Time) {
		m := arg.(*msg)
		fill[m.agg] += copy(arrived[fill[m.agg]:], m.pieces)
		shuffle.Done()
	}
	for i := range msgs {
		m := &msgs[i]
		from := w.Client(m.fromRank)
		to := w.Client(aggs[m.agg])
		w.fs.Network().TransferCall(collSpan, from.Node(), to.Node(), m.bytes, land, m)
	}
}

// CollectiveRead performs MPI_File_read_all: ranges[r] lists rank r's
// requests; done receives per-rank, per-request buffers in the same
// shape. Each rank's buffers are views of one slab.
func (w *World) CollectiveRead(f File, ranges [][]CollRange, done func([][][]byte, error)) {
	if len(ranges) != w.Ranks() {
		panic(fmt.Sprintf("mpiio: ranges for %d ranks, world has %d", len(ranges), w.Ranks()))
	}
	out := make([][][]byte, w.Ranks())
	lo, hi := int64(1<<62), int64(0)
	var any bool
	for r, rs := range ranges {
		var total int64
		for _, rg := range rs {
			total += rg.Size
			if rg.Size == 0 {
				continue
			}
			any = true
			lo = min(lo, rg.Off)
			hi = max(hi, rg.Off+rg.Size)
		}
		slab := make([]byte, total)
		out[r] = make([][]byte, len(rs))
		var at int64
		for i, rg := range rs {
			out[r][i] = slab[at : at+rg.Size : at+rg.Size]
			at += rg.Size
		}
	}
	if !any {
		w.engine.Schedule(0, func() { done(out, nil) })
		return
	}
	aggs := w.aggregators()
	nAgg, nRanks := len(aggs), len(ranges)
	domains := splitDomains(lo, hi, nAgg)

	tr := w.fs.Tracer()
	var collSpan obs.SpanID
	if tr != nil {
		collSpan = tr.Begin("mpiio", "coll.read", 0,
			obs.T("file", f.Name()), obs.TInt("lo", lo), obs.TInt("hi", hi),
			obs.TInt("aggregators", int64(nAgg)))
		origDone := done
		done = func(bufs [][][]byte, err error) {
			tr.End(collSpan, obs.T("status", opStatus(err)))
			origDone(bufs, err)
		}
	}

	// Aggregators read the covered intervals of their domains. Coverage
	// is the union of all rank ranges clipped to the domain: aggregator
	// a's cuts occupy coverage[base[a]:base[a+1]], sized by a counting
	// pass and merged in place.
	base := make([]int, nAgg+1)
	for _, rs := range ranges {
		for _, rg := range rs {
			cutByDomains(rg.Off, rg.Size, domains, func(ai int, _, _ int64) { base[ai+1]++ })
		}
	}
	for ai := 0; ai < nAgg; ai++ {
		base[ai+1] += base[ai]
	}
	coverage := make([]CollRange, base[nAgg])
	fill := append([]int(nil), base[:nAgg]...)
	for _, rs := range ranges {
		for _, rg := range rs {
			cutByDomains(rg.Off, rg.Size, domains, func(ai int, off, n int64) {
				coverage[fill[ai]] = CollRange{Off: off, Size: n}
				fill[ai]++
			})
		}
	}
	// got lists every aggregator read in (aggregator, offset) order. The
	// domains ascend and are disjoint, so got is sorted by offset.
	type readPiece struct {
		agg  int
		off  int64
		end  int64
		data []byte
	}
	var got []readPiece
	for ai := 0; ai < nAgg; ai++ {
		for _, rg := range mergeRanges(coverage[base[ai]:base[ai+1]]) {
			got = append(got, readPiece{agg: ai, off: rg.Off, end: rg.Off + rg.Size})
		}
	}
	if len(got) == 0 {
		w.engine.Schedule(0, func() { done(out, nil) })
		return
	}

	scatter := func() {
		// Scatter phase: aggregators ship each rank its bytes; one
		// message per (aggregator, rank) pair with that rank's total,
		// sent in (aggregator, rank) order.
		pairBytes := make([]int64, nAgg*nRanks)
		for r, rs := range ranges {
			for i, rg := range rs {
				end := rg.Off + rg.Size
				k := sort.Search(len(got), func(k int) bool { return got[k].end > rg.Off })
				for ; k < len(got) && got[k].off < end; k++ {
					rp := &got[k]
					ov := overlap(rg.Off, end, rp.off, rp.end)
					if ov.length <= 0 {
						continue
					}
					copy(out[r][i][ov.lo-rg.Off:ov.lo-rg.Off+ov.length],
						rp.data[ov.lo-rp.off:ov.lo-rp.off+ov.length])
					pairBytes[rp.agg*nRanks+r] += ov.length
				}
			}
		}
		var msgs int
		for _, b := range pairBytes {
			if b > 0 {
				msgs++
			}
		}
		if msgs == 0 {
			w.engine.Schedule(0, func() { done(out, nil) })
			return
		}
		finish := sim.NewCountdown(msgs, func() { done(out, nil) })
		landed := func(sim.Time) { finish.Done() }
		for i, b := range pairBytes {
			if b > 0 {
				from := w.Client(aggs[i/nRanks])
				to := w.Client(i % nRanks)
				w.fs.Network().TransferSpan(collSpan, from.Node(), to.Node(), b, landed)
			}
		}
	}

	// The gather waits for every aggregator read (first error wins), then
	// fails fast: a failed read leaves holes in the aggregation buffers,
	// so the scatter phase is skipped rather than shipping bad bytes.
	gather := sim.NewErrCountdown(len(got), func(err error) {
		if err != nil {
			done(nil, err)
			return
		}
		scatter()
	})
	for k := range got {
		rp := &got[k]
		f.ReadAt(aggs[rp.agg], rp.off, rp.end-rp.off, func(data []byte, err error) {
			if err == nil {
				rp.data = data
			}
			gather.Done(err)
		})
	}
}

// --- helpers ---

func collExtent(pieces [][]CollPiece) (lo, hi int64) {
	lo, hi = int64(1<<62), 0
	for _, ps := range pieces {
		for _, p := range ps {
			if len(p.Data) == 0 {
				continue
			}
			if p.Off < lo {
				lo = p.Off
			}
			if end := p.Off + int64(len(p.Data)); end > hi {
				hi = end
			}
		}
	}
	return lo, hi
}

// splitDomains divides [lo, hi) into n near-equal contiguous file domains.
func splitDomains(lo, hi int64, n int) []int64 {
	// domains[i] is the start of domain i; domain i covers
	// [domains[i], domains[i+1]) with a sentinel end.
	span := hi - lo
	bounds := make([]int64, n+1)
	for i := 0; i <= n; i++ {
		bounds[i] = lo + span*int64(i)/int64(n)
	}
	bounds[n] = hi
	return bounds
}

func domainOf(off int64, bounds []int64) int {
	i := sort.Search(len(bounds)-1, func(i int) bool { return bounds[i+1] > off })
	if i >= len(bounds)-1 {
		i = len(bounds) - 2
	}
	return i
}

// cutByDomains calls fn once for each piece of [off, off+n) that falls
// in one domain, in offset order, walking the domains forward from the
// first one the range touches. Bytes past the last bound belong to the
// last domain.
func cutByDomains(off, n int64, bounds []int64, fn func(agg int, off, n int64)) {
	last := len(bounds) - 2
	ai := domainOf(off, bounds)
	for n > 0 {
		for ai < last && bounds[ai+1] <= off {
			ai++
		}
		take := n
		if ai < last && off+take > bounds[ai+1] {
			take = bounds[ai+1] - off
		}
		fn(ai, off, take)
		off += take
		n -= take
	}
}

// mergePieces sorts a domain's pieces by offset and merges
// adjacent/overlapping ones into maximal contiguous intervals. Later
// pieces win overlaps, matching write ordering: the sort is stable and
// pieces are copied in sorted order. A first pass sizes every interval,
// so each is allocated once and each piece copied once. Empty pieces are
// skipped.
func mergePieces(pieces []CollPiece) []interval {
	slices.SortStableFunc(pieces, func(a, b CollPiece) int { return cmp.Compare(a.Off, b.Off) })
	var out []interval
	for _, p := range pieces {
		if len(p.Data) == 0 {
			continue
		}
		end := p.Off + int64(len(p.Data))
		if k := len(out) - 1; k >= 0 && p.Off <= out[k].end {
			out[k].end = max(out[k].end, end)
			continue
		}
		out = append(out, interval{off: p.Off, end: end})
	}
	for i := range out {
		out[i].data = make([]byte, out[i].end-out[i].off)
	}
	k := 0
	for _, p := range pieces {
		if len(p.Data) == 0 {
			continue
		}
		for p.Off >= out[k].end {
			k++
		}
		copy(out[k].data[p.Off-out[k].off:], p.Data)
	}
	return out
}

// mergeRanges merges overlapping/adjacent read ranges into maximal
// contiguous ranges, in place: the result reuses the input's prefix.
func mergeRanges(ranges []CollRange) []CollRange {
	if len(ranges) == 0 {
		return nil
	}
	slices.SortFunc(ranges, func(a, b CollRange) int { return cmp.Compare(a.Off, b.Off) })
	out := ranges[:1]
	for _, r := range ranges[1:] {
		cur := &out[len(out)-1]
		if r.Off <= cur.Off+cur.Size {
			if end := r.Off + r.Size; end > cur.Off+cur.Size {
				cur.Size = end - cur.Off
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

type ov struct {
	lo     int64
	length int64
}

func overlap(a, b, c, d int64) ov {
	lo, hi := a, b
	if c > lo {
		lo = c
	}
	if d < hi {
		hi = d
	}
	return ov{lo: lo, length: hi - lo}
}
