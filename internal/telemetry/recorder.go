package telemetry

import (
	"sort"
	"unsafe"

	"harl/internal/obs"
)

// The flight recorder keeps the recent past, not the whole run: one
// fixed-capacity ring of finalized spans per track, overwriting the
// oldest entry once full. Memory is O(tracks × capacity) regardless of
// run length, which is what lets telemetry stay always-on where the
// retaining tracer's whole-run capture cannot. The recorder is a passive
// consumer — it never schedules events or draws engine randomness — so
// an attached run executes the exact event sequence of a bare one.
//
// Each ring slot owns its tag storage: a span arriving from the tracer
// is copied into the slot it overwrites, its tags into that slot's
// segment of the ring's tag array, so a recorder whose rings are full
// allocates nothing per span. The segment width (stride) is the most
// tags any span on the track has carried; a wider span re-lays the
// ring's tags out once. One array per ring, not one per slot, because
// per-slot arrays measured 12-13% slower end to end on bench's
// ior_observed workload (2 vCPUs).

// ring is one track's fixed-capacity span buffer. Slot i's tags live in
// tags[i*stride:(i+1)*stride].
type ring struct {
	buf    []obs.Span
	next   int // overwrite cursor once len(buf) == cap(buf)
	tags   []obs.Tag
	stride int // the most tags any span on the track has carried
}

// add copies s into the next slot — a fresh one until the ring is full,
// then the oldest — and reports whether it overwrote a span.
func (r *ring) add(s *obs.Span) (evicted bool) {
	i := len(r.buf)
	if i < cap(r.buf) {
		r.buf = r.buf[:i+1]
	} else {
		i = r.next
		r.next = (r.next + 1) % len(r.buf)
		evicted = true
	}
	n := len(s.Tags)
	if n > r.stride {
		r.restride(n)
	}
	at := i * r.stride
	tags := r.tags[at : at+n : at+n]
	copy(tags, s.Tags)
	slot := &r.buf[i]
	*slot = *s
	slot.Tags = tags
	return evicted
}

// restride moves the ring's tags to a wider stride of n.
func (r *ring) restride(n int) {
	tags := make([]obs.Tag, cap(r.buf)*n)
	for i := range r.buf {
		old := r.buf[i].Tags
		at := i * n
		r.buf[i].Tags = tags[at : at+len(old) : at+len(old)]
		copy(r.buf[i].Tags, old)
	}
	r.tags, r.stride = tags, n
}

// appendChrono appends deep copies of the ring's spans, oldest first, to
// out; each copy's tags are carved from *tags.
func (r *ring) appendChrono(out []obs.Span, tags *[]obs.Tag) []obs.Span {
	for _, part := range [2][]obs.Span{r.buf[r.next:], r.buf[:r.next]} {
		for i := range part {
			s := part[i]
			n := len(*tags)
			*tags = append(*tags, s.Tags...)
			s.Tags = (*tags)[n:len(*tags):len(*tags)]
			out = append(out, s)
		}
	}
	return out
}

// trackCacheBits sizes the direct-mapped cache in front of the ring
// map: 1<<trackCacheBits entries.
const trackCacheBits = 6

// trackEntry caches one track's ring.
type trackEntry struct {
	track string
	rg    *ring
}

// Recorder holds the per-track rings.
type Recorder struct {
	perTrack int
	rings    map[string]*ring
	// cache finds a track's ring by the address of the track string's
	// bytes: call sites pass the same track string on every span, so the
	// common case compares one pointer instead of hashing the name.
	cache    [1 << trackCacheBits]trackEntry
	captured uint64
	evicted  uint64
}

// RecorderStats summarizes a recorder's occupancy.
type RecorderStats struct {
	Tracks   int    // distinct tracks seen
	Held     int    // spans currently buffered
	Captured uint64 // spans ever delivered
	Evicted  uint64 // spans overwritten by ring wrap
}

// NewRecorder returns a recorder keeping up to perTrack spans per track.
func NewRecorder(perTrack int) *Recorder {
	if perTrack <= 0 {
		perTrack = 256
	}
	return &Recorder{perTrack: perTrack, rings: make(map[string]*ring)}
}

// ring returns track's ring, creating it on first use.
func (r *Recorder) ring(track string) *ring {
	h := uint64(uintptr(unsafe.Pointer(unsafe.StringData(track))))
	e := &r.cache[(h*0x9e3779b97f4a7c15)>>(64-trackCacheBits)]
	// Equal data pointers make == true without comparing bytes.
	if e.rg != nil && e.track == track {
		return e.rg
	}
	rg := r.rings[track]
	if rg == nil {
		rg = &ring{buf: make([]obs.Span, 0, r.perTrack)}
		r.rings[track] = rg
	}
	*e = trackEntry{track: track, rg: rg}
	return rg
}

// Add captures one finalized span. The recorder copies what it keeps,
// so s remains the caller's.
func (r *Recorder) Add(s *obs.Span) {
	r.captured++
	if r.ring(s.Track).add(s) {
		r.evicted++
	}
}

// Stats reports the recorder's occupancy.
func (r *Recorder) Stats() RecorderStats {
	st := RecorderStats{Tracks: len(r.rings), Captured: r.captured, Evicted: r.evicted}
	for _, rg := range r.rings {
		st.Held += len(rg.buf)
	}
	return st
}

// Window snapshots everything the recorder currently holds as one
// deterministic span list: all tracks merged, sorted by (Start, ID), and
// parent links pointing at evicted spans rewritten to 0 so the window is
// a self-contained forest that critpath.Analyze and the Chrome exporter
// accept without dangling references. The spans and their tags are deep
// copies, so the window never aliases a ring slot that later spans
// overwrite.
func (r *Recorder) Window() []obs.Span {
	tracks := make([]string, 0, len(r.rings))
	held, ntags := 0, 0
	for name, rg := range r.rings {
		tracks = append(tracks, name)
		held += len(rg.buf)
		for i := range rg.buf {
			ntags += len(rg.buf[i].Tags)
		}
	}
	if held == 0 {
		return nil
	}
	sort.Strings(tracks)
	out := make([]obs.Span, 0, held)
	tags := make([]obs.Tag, 0, ntags)
	for _, name := range tracks {
		out = r.rings[name].appendChrono(out, &tags)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	present := make(map[obs.SpanID]bool, len(out))
	for _, s := range out {
		present[s.ID] = true
	}
	for i := range out {
		if out[i].Parent != 0 && !present[out[i].Parent] {
			out[i].Parent = 0
		}
	}
	return out
}
