package sim

import "math/bits"

// The engine's event queue is a hierarchical timer wheel (a calendar
// queue): virtual time is divided into power-of-two ticks, and each of
// four levels covers 64 slots of geometrically coarser buckets. An
// event lands in the finest level whose span still contains it; as the
// cursor sweeps forward, coarse buckets cascade into finer ones, so
// every event is touched O(levels) times instead of O(log n) heap
// comparisons per operation, and pushes are O(1).
//
// Exact (at, seq) total order — the determinism contract every
// committed trace depends on — is preserved by never firing straight
// from a bucket: events whose tick the cursor has reached are drained
// into a small binary heap ("near") ordered by exact (at, seq), and
// pops come only from near. Buckets are unsorted intrusive LIFO chains,
// which is fine because a level-0 bucket holds exactly one tick's
// events and near re-establishes their order.
//
// Events beyond the wheel horizon (~17 virtual seconds) go to an
// overflow heap and pay one extra heap op when the cursor catches up —
// the wheel degrades gracefully into a binary heap for pathologically
// far-future schedules.
const (
	wheelTickBits  = 10 // one tick = 1024 ns ~ 1 µs
	wheelLevelBits = 6  // 64 slots per level
	wheelSlots     = 1 << wheelLevelBits
	wheelSlotMask  = wheelSlots - 1
	wheelLevels    = 4 // horizon = 64^4 ticks ~ 17.2 s
)

func wheelTick(t Time) int64 { return int64(t) >> wheelTickBits }

// eventHeapSlice is a hand-rolled binary min-heap on (at, seq). It
// avoids container/heap's interface dispatch and per-Push boxing so the
// steady path stays allocation-free.
type eventHeapSlice []*event

func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeapSlice) push(ev *event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventBefore(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func (h *eventHeapSlice) pop() *event {
	s := *h
	ev := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = nil
	s = s[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && eventBefore(s[r], s[l]) {
			c = r
		}
		if !eventBefore(s[c], s[i]) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return ev
}

// wheelQueue is the engine's event queue.
//
// Invariants:
//   - near holds exactly the events with tick <= cur; everything in a
//     bucket or overflow has tick > cur, so near's minimum is the
//     global minimum whenever near is non-empty.
//   - at level l an occupied slot is 1..64 blocks ahead of the cursor's
//     block (64 = the cursor's own slot one full lap ahead, which is
//     unambiguous because a bucket at the cursor's current block is
//     always drained before the cursor settles there).
type wheelQueue struct {
	cur  int64 // all ticks < cur (and some == cur) have been drained
	size int
	near eventHeapSlice
	over eventHeapSlice
	slot [wheelLevels][wheelSlots]*event
	occ  [wheelLevels]uint64
}

func (w *wheelQueue) len() int { return w.size }

func (w *wheelQueue) push(ev *event) {
	w.size++
	w.insert(ev)
}

func (w *wheelQueue) insert(ev *event) {
	tk := wheelTick(ev.at)
	delta := tk - w.cur
	if delta <= 0 {
		w.near.push(ev)
		return
	}
	for l := 0; l < wheelLevels; l++ {
		if delta < 1<<((l+1)*wheelLevelBits) {
			s := int(tk>>(l*wheelLevelBits)) & wheelSlotMask
			ev.next = w.slot[l][s]
			w.slot[l][s] = ev
			w.occ[l] |= 1 << s
			return
		}
	}
	w.over.push(ev)
}

// nextStart returns the bucket-start tick of the nearest occupied slot
// at level l, scanning the occupancy bitmap from the slot after the
// cursor's block. The cursor's own slot reads as distance 64 (one lap),
// which is exactly what an event pushed a full lap ahead means.
func (w *wheelQueue) nextStart(l int) (int64, bool) {
	if w.occ[l] == 0 {
		return 0, false
	}
	cb := w.cur >> (l * wheelLevelBits)
	rot := bits.RotateLeft64(w.occ[l], -int(cb&wheelSlotMask)-1)
	d := int64(bits.TrailingZeros64(rot)) + 1
	return (cb + d) << (l * wheelLevelBits), true
}

// advance makes near non-empty (caller guarantees size > 0): it finds
// the earliest occupied bucket start across all levels and the overflow
// heap, moves the cursor there, and drains or cascades every bucket
// starting at that tick. Cascaded events re-insert below their old
// level; level-0 buckets and same-tick overflow events drain into near.
func (w *wheelQueue) advance() {
	for len(w.near) == 0 {
		min := int64(-1)
		for l := 0; l < wheelLevels; l++ {
			if start, ok := w.nextStart(l); ok && (min < 0 || start < min) {
				min = start
			}
		}
		if len(w.over) > 0 {
			if ot := wheelTick(w.over[0].at); min < 0 || ot < min {
				min = ot
			}
		}
		w.cur = min
		// Process coarse levels first: a cascade can only re-insert
		// strictly ahead of the cursor, never into a bucket that also
		// starts at min, so one high-to-low sweep settles everything.
		// At a level >= 1 the slot holding min's block may instead hold
		// events one full lap ahead; cascading them just re-inserts
		// them a lap ahead, so the drain need not tell them apart. A
		// level-0 slot only ever holds the tick being drained.
		for l := wheelLevels - 1; l >= 0; l-- {
			s := int(min>>(l*wheelLevelBits)) & wheelSlotMask
			if w.occ[l]&(1<<s) == 0 {
				continue
			}
			chain := w.slot[l][s]
			w.slot[l][s] = nil
			w.occ[l] &^= 1 << s
			for chain != nil {
				ev := chain
				chain = ev.next
				ev.next = nil
				if l == 0 {
					w.near.push(ev)
				} else {
					w.insert(ev)
				}
			}
		}
		for len(w.over) > 0 && wheelTick(w.over[0].at) == min {
			w.near.push(w.over.pop())
		}
	}
}

func (w *wheelQueue) peek() (Time, bool) {
	if w.size == 0 {
		return 0, false
	}
	w.advance()
	return w.near[0].at, true
}

func (w *wheelQueue) pop() *event {
	if w.size == 0 {
		return nil
	}
	w.advance()
	w.size--
	return w.near.pop()
}
