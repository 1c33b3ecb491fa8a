package mpiio

import (
	"fmt"
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
	data []byte // writes only
}

// CollectiveWrite performs MPI_File_write_all: pieces[r] lists rank r's
// contributions (nil for non-contributing ranks). done fires when the
// slowest aggregator's last file request completes — the collective's
// implicit synchronization.
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
	type aggState struct {
		rank   int
		pieces []CollPiece
	}
	states := make([]*aggState, len(aggs))
	for i, r := range aggs {
		states[i] = &aggState{rank: r}
	}

	// Plan the shuffle messages first so the completion countdown is exact.
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
	perAgg := make([]msg, len(aggs))
	for r, ps := range pieces {
		clear(perAgg)
		for _, p := range ps {
			for _, cut := range cutByDomains(p, domains) {
				m := &perAgg[cut.agg]
				m.pieces = append(m.pieces, cut.piece)
				m.bytes += int64(len(cut.piece.Data))
			}
		}
		for ai, m := range perAgg {
			if m.pieces != nil {
				msgs = append(msgs, msg{fromRank: r, agg: ai, bytes: m.bytes, pieces: m.pieces})
			}
		}
	}
	if len(msgs) == 0 {
		w.engine.Schedule(0, func() { done(nil) })
		return
	}

	writeBack := func() {
		// Write phase: each aggregator flushes its covered intervals.
		var reqs int
		intervalsByAgg := make([][]interval, len(aggs))
		for i, st := range states {
			intervalsByAgg[i] = mergePieces(st.pieces)
			reqs += len(intervalsByAgg[i])
		}
		if reqs == 0 {
			w.engine.Schedule(0, func() { done(nil) })
			return
		}
		finish := sim.NewErrCountdown(reqs, done)
		for i, ivs := range intervalsByAgg {
			aggRank := states[i].rank
			for _, iv := range ivs {
				f.WriteAt(aggRank, iv.off, iv.data, func(err error) {
					finish.Done(err)
				})
			}
		}
	}
	shuffle := sim.NewCountdown(len(msgs), writeBack)
	for _, m := range msgs {
		m := m
		from := w.Client(m.fromRank)
		to := w.Client(aggs[m.agg])
		w.fs.Network().TransferSpan(collSpan, from.Node(), to.Node(), m.bytes, func(sim.Time) {
			states[m.agg].pieces = append(states[m.agg].pieces, m.pieces...)
			shuffle.Done()
		})
	}
}

// CollectiveRead performs MPI_File_read_all: ranges[r] lists rank r's
// requests; done receives per-rank, per-request buffers in the same
// shape.
func (w *World) CollectiveRead(f File, ranges [][]CollRange, done func([][][]byte, error)) {
	if len(ranges) != w.Ranks() {
		panic(fmt.Sprintf("mpiio: ranges for %d ranks, world has %d", len(ranges), w.Ranks()))
	}
	out := make([][][]byte, w.Ranks())
	lo, hi := int64(1<<62), int64(0)
	var any bool
	for r, rs := range ranges {
		out[r] = make([][]byte, len(rs))
		for i, rg := range rs {
			out[r][i] = make([]byte, rg.Size)
			if rg.Size == 0 {
				continue
			}
			any = true
			if rg.Off < lo {
				lo = rg.Off
			}
			if rg.Off+rg.Size > hi {
				hi = rg.Off + rg.Size
			}
		}
	}
	if !any {
		w.engine.Schedule(0, func() { done(out, nil) })
		return
	}
	aggs := w.aggregators()
	domains := splitDomains(lo, hi, len(aggs))

	tr := w.fs.Tracer()
	var collSpan obs.SpanID
	if tr != nil {
		collSpan = tr.Begin("mpiio", "coll.read", 0,
			obs.T("file", f.Name()), obs.TInt("lo", lo), obs.TInt("hi", hi),
			obs.TInt("aggregators", int64(len(aggs))))
		origDone := done
		done = func(bufs [][][]byte, err error) {
			tr.End(collSpan, obs.T("status", opStatus(err)))
			origDone(bufs, err)
		}
	}

	// Aggregators read the covered intervals of their domains. Coverage
	// is the union of all rank ranges clipped to the domain.
	coverage := make([][]CollRange, len(aggs))
	for _, rs := range ranges {
		for _, rg := range rs {
			for _, cut := range cutRangeByDomains(rg, domains) {
				coverage[cut.agg] = append(coverage[cut.agg], cut.rng)
			}
		}
	}

	type readPiece struct {
		off  int64
		data []byte
	}
	var got []readPiece
	var reads int
	merged := make([][]CollRange, len(aggs))
	for i := range coverage {
		merged[i] = mergeRanges(coverage[i])
		reads += len(merged[i])
	}
	if reads == 0 {
		w.engine.Schedule(0, func() { done(out, nil) })
		return
	}

	scatter := func() {
		// Scatter phase: aggregators ship each rank its bytes; one
		// message per (aggregator, rank) pair with that rank's total.
		type outMsg struct {
			agg, rank int
			bytes     int64
		}
		var msgs []outMsg
		perPair := make(map[[2]int]int64)
		fill := func(rank int, idx int, rg CollRange) {
			for _, rp := range got {
				ov := overlap(rg.Off, rg.Off+rg.Size, rp.off, rp.off+int64(len(rp.data)))
				if ov.length <= 0 {
					continue
				}
				copy(out[rank][idx][ov.lo-rg.Off:ov.lo-rg.Off+ov.length],
					rp.data[ov.lo-rp.off:ov.lo-rp.off+ov.length])
				ai := domainOf(ov.lo, domains)
				perPair[[2]int{ai, rank}] += ov.length
			}
		}
		for r, rs := range ranges {
			for i, rg := range rs {
				if rg.Size > 0 {
					fill(r, i, rg)
				}
			}
		}
		for pair, bytes := range perPair {
			msgs = append(msgs, outMsg{agg: pair[0], rank: pair[1], bytes: bytes})
		}
		sort.Slice(msgs, func(i, j int) bool {
			if msgs[i].agg != msgs[j].agg {
				return msgs[i].agg < msgs[j].agg
			}
			return msgs[i].rank < msgs[j].rank
		})
		if len(msgs) == 0 {
			w.engine.Schedule(0, func() { done(out, nil) })
			return
		}
		finish := sim.NewCountdown(len(msgs), func() { done(out, nil) })
		for _, m := range msgs {
			from := w.Client(aggs[m.agg])
			to := w.Client(m.rank)
			w.fs.Network().TransferSpan(collSpan, from.Node(), to.Node(), m.bytes, func(sim.Time) {
				finish.Done()
			})
		}
	}

	// The gather waits for every aggregator read (first error wins), then
	// fails fast: a failed read leaves holes in the aggregation buffers,
	// so the scatter phase is skipped rather than shipping bad bytes.
	gather := sim.NewErrCountdown(reads, func(err error) {
		if err != nil {
			done(nil, err)
			return
		}
		scatter()
	})
	for i, ivs := range merged {
		aggRank := aggs[i]
		for _, rg := range ivs {
			rg := rg
			f.ReadAt(aggRank, rg.Off, rg.Size, func(data []byte, err error) {
				if err == nil {
					got = append(got, readPiece{off: rg.Off, data: data})
				}
				gather.Done(err)
			})
		}
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

type pieceCut struct {
	agg   int
	piece CollPiece
}

func cutByDomains(p CollPiece, bounds []int64) []pieceCut {
	var cuts []pieceCut
	off := p.Off
	data := p.Data
	for len(data) > 0 {
		ai := domainOf(off, bounds)
		domEnd := bounds[ai+1]
		n := int64(len(data))
		if off+n > domEnd && ai < len(bounds)-2 {
			n = domEnd - off
		}
		cuts = append(cuts, pieceCut{agg: ai, piece: CollPiece{Off: off, Data: data[:n]}})
		off += n
		data = data[n:]
	}
	return cuts
}

type rangeCut struct {
	agg int
	rng CollRange
}

func cutRangeByDomains(rg CollRange, bounds []int64) []rangeCut {
	var cuts []rangeCut
	off, size := rg.Off, rg.Size
	for size > 0 {
		ai := domainOf(off, bounds)
		domEnd := bounds[ai+1]
		n := size
		if off+n > domEnd && ai < len(bounds)-2 {
			n = domEnd - off
		}
		cuts = append(cuts, rangeCut{agg: ai, rng: CollRange{Off: off, Size: n}})
		off += n
		size -= n
	}
	return cuts
}

// mergePieces sorts a domain's pieces and merges adjacent/overlapping
// ones into maximal contiguous intervals (later pieces win overlaps,
// matching write ordering).
func mergePieces(pieces []CollPiece) []interval {
	if len(pieces) == 0 {
		return nil
	}
	sort.SliceStable(pieces, func(i, j int) bool { return pieces[i].Off < pieces[j].Off })
	var out []interval
	cur := interval{off: pieces[0].Off, data: append([]byte(nil), pieces[0].Data...)}
	for _, p := range pieces[1:] {
		curEnd := cur.off + int64(len(cur.data))
		switch {
		case p.Off > curEnd:
			out = append(out, cur)
			cur = interval{off: p.Off, data: append([]byte(nil), p.Data...)}
		case p.Off+int64(len(p.Data)) <= curEnd:
			copy(cur.data[p.Off-cur.off:], p.Data)
		default:
			keep := curEnd - p.Off
			copy(cur.data[p.Off-cur.off:], p.Data[:keep])
			cur.data = append(cur.data, p.Data[keep:]...)
		}
	}
	out = append(out, cur)
	return out
}

// mergeRanges merges overlapping/adjacent read ranges into maximal
// contiguous ranges.
func mergeRanges(ranges []CollRange) []CollRange {
	if len(ranges) == 0 {
		return nil
	}
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].Off < ranges[j].Off })
	var out []CollRange
	cur := ranges[0]
	for _, r := range ranges[1:] {
		if r.Off <= cur.Off+cur.Size {
			if end := r.Off + r.Size; end > cur.Off+cur.Size {
				cur.Size = end - cur.Off
			}
			continue
		}
		out = append(out, cur)
		cur = r
	}
	return append(out, cur)
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
