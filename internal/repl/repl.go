// Package repl implements region-level replication state: per-slot
// replica groups with a primary/backup chain, Harp-style log pointers
// (FP, the highest assigned sequence number; CP, the highest
// acknowledged one; per-member commit points for catch-up), and an
// epoch/view-change protocol that promotes the live member with the
// most recovered data — "it is not enough to have a majority, the new
// view must also recover the latest data" (SNIPPETS.md #2).
//
// The package is pure state machinery: it schedules no events and does
// no I/O. The pfs layer drives it from the simulation — forwarding
// writes along the chain, replaying log records during catch-up and
// feeding Crash/Recover into MemberDown/MemberUp — and the MDS is the
// (in-process) home of this metadata, so group state survives data
// server crashes the way Harp's view state survives in its replicated
// log.
//
// Correctness invariants, relied on by the read path:
//
//   - A member's commit point cp[m] only advances through *logged*
//     records in sequence order, so cp[m] >= seq implies every logged
//     record with Seq <= seq is present in that member's store. The one
//     sanctioned exception is Resynced, which installs a full-image
//     snapshot (store bytes and commit point together) from a member
//     for which the invariant already holds. A member whose gap records
//     were hard-pruned is marked stale and its commit point frozen
//     until such an install.
//   - The group commit point CP only advances when a write is
//     acknowledged, and every acknowledgement requires the serving
//     member's commit; on view change the log is truncated back to CP
//     (unacknowledged records are abandoned — their clients time out
//     and retry), so acknowledged records are never dropped.
//   - A serving member is eligible to serve reads and accept writes
//     only while cp[serving] >= CP; therefore an eligible serving
//     replica holds every acknowledged byte.
package repl

import (
	"fmt"
	"sort"
)

// Record is one logged write range of a group: the replicated unit the
// chain forwards and catch-up replays. The original payload is retained
// until the record is truncated or pruned, so replay rewrites exactly
// the logged bytes in sequence order — the property that makes replay
// idempotent and order-correcting. Data is nil for phantom (timing-only)
// writes.
type Record struct {
	Seq   uint64
	Local int64
	Size  int64
	Data  []byte
}

// member is one replica's view-side state.
type member struct {
	id      int  // server ID
	alive   bool // false between MemberDown and MemberUp
	chained bool // receives every new assignment directly
	stale   bool // replay gap hard-pruned; needs a full-image resync
	cp      uint64
	ahead   map[uint64]bool // committed seqs beyond the first gap
}

// Group is the replica group for one layout slot of one file. Members
// are server IDs, primary (the slot's own server) first. The zero
// Group is not usable; construct with NewGroup.
type Group struct {
	slot     int
	members  []*member
	view     int
	serving  int // index into members; -1 when no member is alive
	fp       uint64
	cp       uint64
	covered  int64 // high-water mark of assigned Local+Size, for overwrite classification
	log      []Record
	logBytes int64  // retained payload bytes in log
	floor    uint64 // highest hard-pruned seq; members below it are stale
}

// NewGroup builds a group for a slot. members lists server IDs with the
// slot's primary first; they must be distinct.
func NewGroup(slot int, members []int) *Group {
	if len(members) == 0 {
		panic("repl: group needs at least one member")
	}
	g := &Group{slot: slot, serving: 0}
	seen := make(map[int]bool, len(members))
	for _, id := range members {
		if seen[id] {
			panic(fmt.Sprintf("repl: duplicate member %d in group for slot %d", id, slot))
		}
		seen[id] = true
		g.members = append(g.members, &member{id: id, alive: true, chained: true, ahead: make(map[uint64]bool)})
	}
	return g
}

// Slot returns the layout slot this group replicates.
func (g *Group) Slot() int { return g.slot }

// Members returns the member server IDs in chain order.
func (g *Group) Members() []int {
	ids := make([]int, len(g.members))
	for i, m := range g.members {
		ids[i] = m.id
	}
	return ids
}

// View returns the current view number; it increments whenever the
// serving member changes.
func (g *Group) View() int { return g.view }

// FP returns the highest assigned sequence number.
func (g *Group) FP() uint64 { return g.fp }

// CP returns the highest acknowledged sequence number.
func (g *Group) CP() uint64 { return g.cp }

// HasMember reports whether the server is in this group.
func (g *Group) HasMember(server int) bool { return g.index(server) >= 0 }

func (g *Group) index(server int) int {
	for i, m := range g.members {
		if m.id == server {
			return i
		}
	}
	return -1
}

func (g *Group) mustIndex(server int) int {
	i := g.index(server)
	if i < 0 {
		panic(fmt.Sprintf("repl: server %d is not a member of slot %d's group", server, g.slot))
	}
	return i
}

// Alive reports whether a member is up.
func (g *Group) Alive(server int) bool { return g.members[g.mustIndex(server)].alive }

// Chained reports whether a member currently receives every new
// assignment directly (it is in sync, or has never fallen out).
func (g *Group) Chained(server int) bool { return g.members[g.mustIndex(server)].chained }

// MemberCP returns a member's commit point.
func (g *Group) MemberCP(server int) uint64 { return g.members[g.mustIndex(server)].cp }

// Stale reports whether a member's replay gap was hard-pruned from the
// log: it cannot catch up record by record and needs a full-image
// resync (see NextCatchUp / Resynced).
func (g *Group) Stale(server int) bool { return g.members[g.mustIndex(server)].stale }

// Covered returns the high-water mark of assigned extent — the logical
// image size a full resync must ship.
func (g *Group) Covered() int64 { return g.covered }

// Floor returns the highest hard-pruned sequence number; records at or
// below it are no longer replayable.
func (g *Group) Floor() uint64 { return g.floor }

// eligible reports whether the serving member may serve reads and
// accept writes: it must hold every acknowledged record.
func (g *Group) eligibleIdx() bool {
	return g.serving >= 0 && g.members[g.serving].alive && g.members[g.serving].cp >= g.cp
}

// Serving returns the eligible serving member's server ID. ok is false
// while no live member holds every acknowledged record — the group is
// unavailable and clients must retry.
func (g *Group) Serving() (server int, ok bool) {
	if !g.eligibleIdx() {
		return 0, false
	}
	return g.members[g.serving].id, true
}

// ServingMember returns the serving member's server ID regardless of
// eligibility, or -1 when every member is down.
func (g *Group) ServingMember() int {
	if g.serving < 0 {
		return -1
	}
	return g.members[g.serving].id
}

// AlternateFor returns another live member that also holds every
// acknowledged record — the hedged-read target. ok is false when the
// serving replica is the only eligible copy.
func (g *Group) AlternateFor(server int) (int, bool) {
	from := g.index(server)
	if from < 0 {
		from = 0
	}
	n := len(g.members)
	for k := 1; k < n; k++ {
		m := g.members[(from+k)%n]
		if m.id != server && m.alive && m.cp >= g.cp {
			return m.id, true
		}
	}
	return 0, false
}

// IsOverwrite classifies a write range: true when it falls entirely
// inside previously assigned extent, so the quorum overwrite path
// applies instead of the sequential chain (CubeFS's dual protocols).
// The covered extent is a high-water mark, so interleaved appends from
// many ranks may classify as overwrites; that only selects the quorum
// acknowledgement rule, never weakens the serving-commit requirement.
func (g *Group) IsOverwrite(local, size int64) bool {
	return local+size <= g.covered
}

// Assign logs a new write under the next sequence number and returns
// the record plus the server IDs whose commit the chain requires: the
// serving member and every live chained member. Call only while
// Serving() reports an eligible member.
func (g *Group) Assign(local, size int64, data []byte) (Record, []int) {
	if !g.eligibleIdx() {
		panic(fmt.Sprintf("repl: Assign on unavailable group (slot %d)", g.slot))
	}
	g.fp++
	rec := Record{Seq: g.fp, Local: local, Size: size, Data: data}
	g.log = append(g.log, rec)
	g.logBytes += int64(len(data))
	if end := local + size; end > g.covered {
		g.covered = end
	}
	required := []int{g.members[g.serving].id}
	for i, m := range g.members {
		if i == g.serving || !m.alive || !m.chained {
			continue
		}
		required = append(required, m.id)
	}
	return rec, required
}

// Quorum returns the overwrite acknowledgement threshold: a majority of
// the members the view-change oracle still counts as alive. With every
// member up this is the classic majority; after a crash the view has
// already excused the dead member (the same oracle the chain rule
// trusts), so the quorum shrinks with the view instead of blocking
// overwrites on disks that cannot answer.
func (g *Group) Quorum() int {
	live := 0
	for _, m := range g.members {
		if m.alive {
			live++
		}
	}
	if live == 0 {
		return 1
	}
	return live/2 + 1
}

// nextLogged returns the first logged record with Seq > after.
func (g *Group) nextLogged(after uint64) (Record, bool) {
	i := sort.Search(len(g.log), func(i int) bool { return g.log[i].Seq > after })
	if i == len(g.log) {
		return Record{}, false
	}
	return g.log[i], true
}

// logged reports whether seq is still in the log (not truncated or
// pruned).
func (g *Group) logged(seq uint64) bool {
	i := sort.Search(len(g.log), func(i int) bool { return g.log[i].Seq >= seq })
	return i < len(g.log) && g.log[i].Seq == seq
}

// RecordAt returns the logged record with the given sequence number.
func (g *Group) RecordAt(seq uint64) (Record, bool) {
	i := sort.Search(len(g.log), func(i int) bool { return g.log[i].Seq >= seq })
	if i < len(g.log) && g.log[i].Seq == seq {
		return g.log[i], true
	}
	return Record{}, false
}

// advance walks a member's commit point forward through contiguously
// committed logged records. A stale member's commit point is frozen:
// records between its cp and the log floor were hard-pruned, so walking
// the remaining log would silently jump that gap — only a resync
// (snapshot install) may move it again.
func (m *member) advance(g *Group) {
	if m.stale {
		return
	}
	for {
		rec, ok := g.nextLogged(m.cp)
		if !ok || !m.ahead[rec.Seq] {
			return
		}
		delete(m.ahead, rec.Seq)
		m.cp = rec.Seq
	}
}

// Commit records that a member's store holds a logged record's bytes.
// Commits of truncated (abandoned) sequence numbers are ignored, so a
// stale in-flight acknowledgement from before a view change cannot
// credit a member with data it does not hold. Returns whether the
// commit was newly recorded.
func (g *Group) Commit(server int, seq uint64) bool {
	m := g.members[g.mustIndex(server)]
	if m.stale || seq <= m.cp || !g.logged(seq) || m.ahead[seq] {
		return false
	}
	m.ahead[seq] = true
	m.advance(g)
	return true
}

// CommittedBy reports whether a member has committed a sequence number.
func (g *Group) CommittedBy(server int, seq uint64) bool {
	m := g.members[g.mustIndex(server)]
	return seq <= m.cp || m.ahead[seq]
}

// CommitCount counts members (live or not — disk contents survive a
// crash) that have committed a sequence number.
func (g *Group) CommitCount(seq uint64) int {
	n := 0
	for _, m := range g.members {
		if seq <= m.cp || m.ahead[seq] {
			n++
		}
	}
	return n
}

// pruneAfter bounds the retained log; Ack drops globally-committed
// records (Harp's GLB discipline) once the log exceeds it.
const pruneAfter = 4096

// Hard retention bounds. A dead member pins the prune lower bound (its
// gap records must stay replayable), so a long outage under ongoing
// writes would otherwise retain payloads without bound. Once the log
// exceeds either cap, hardPrune abandons such members' gaps: it prunes
// down to what the live members still need and marks the overtaken
// members stale — they rejoin through a full-image resync instead of
// record-by-record replay. Live laggards still pin the log, but they
// are actively caught up, so their lag is bounded by the catch-up rate.
const (
	hardPruneRecords = 4 * pruneAfter
	hardPruneBytes   = 64 << 20
)

// Ack advances the group commit point: the write under seq has been
// acknowledged to a client and is now a durability promise.
func (g *Group) Ack(seq uint64) {
	if seq > g.cp {
		g.cp = seq
	}
	if len(g.log) > pruneAfter {
		g.prune()
	}
	if len(g.log) > hardPruneRecords || g.logBytes > hardPruneBytes {
		g.hardPrune()
	}
}

// dropPrefix removes the first n log records, keeping the retained-byte
// account in step.
func (g *Group) dropPrefix(n int) {
	if n <= 0 {
		return
	}
	for _, rec := range g.log[:n] {
		g.logBytes -= int64(len(rec.Data))
	}
	kept := copy(g.log, g.log[n:])
	for j := kept; j < len(g.log); j++ {
		g.log[j] = Record{} // release shifted-out payloads immediately
	}
	g.log = g.log[:kept]
}

// prune drops log records every non-stale member has committed (the
// guaranteed lower bound, min over their commit points — dead members
// pin it, so catch-up always finds its gap records). Stale members do
// not pin: their gap is already unreplayable and they resync instead.
func (g *Group) prune() {
	var glb uint64
	found := false
	for _, m := range g.members {
		if m.stale {
			continue
		}
		if !found || m.cp < glb {
			glb, found = m.cp, true
		}
	}
	if !found {
		return
	}
	i := sort.Search(len(g.log), func(i int) bool { return g.log[i].Seq > glb })
	g.dropPrefix(i)
}

// hardPrune drops acked records down to what the live members still
// need, abandoning dead members' replay gaps: every member whose commit
// point falls below the new log floor is marked stale, and its commit
// point is frozen until a full-image resync reinstates it. Restricted
// to acknowledged records (seq <= CP), so no in-flight pending ever
// references a dropped record; live members never qualify as stale
// because each has cp >= the minimum this prunes to.
func (g *Group) hardPrune() {
	limit := g.cp
	anyAlive := false
	for _, m := range g.members {
		if m.alive {
			anyAlive = true
			if m.cp < limit {
				limit = m.cp
			}
		}
	}
	if !anyAlive || limit <= g.floor {
		return
	}
	i := sort.Search(len(g.log), func(i int) bool { return g.log[i].Seq > limit })
	if i == 0 {
		return
	}
	g.floor = limit
	g.dropPrefix(i)
	for _, m := range g.members {
		if m.cp < g.floor {
			m.stale = true
		}
	}
}

// lag counts logged records a member has not committed.
func (g *Group) lag(m *member) int {
	i := sort.Search(len(g.log), func(i int) bool { return g.log[i].Seq > m.cp })
	n := 0
	for _, rec := range g.log[i:] {
		if !m.ahead[rec.Seq] {
			n++
		}
	}
	return n
}

// Lag returns how many logged records a member is missing.
func (g *Group) Lag(server int) int { return g.lag(g.members[g.mustIndex(server)]) }

// truncate abandons unacknowledged records on view change: entries
// beyond the commit point are dropped (their clients time out and
// retry through the new view), and member state referring to them is
// cleared. FP is NOT reset — sequence numbers are never reused, so a
// stale commit of an abandoned record can never be confused with a new
// assignment.
func (g *Group) truncate() {
	i := sort.Search(len(g.log), func(i int) bool { return g.log[i].Seq > g.cp })
	for j := i; j < len(g.log); j++ {
		g.logBytes -= int64(len(g.log[j].Data))
		g.log[j] = Record{} // release the abandoned payload now, not at next append
	}
	g.log = g.log[:i]
	for _, m := range g.members {
		if m.cp > g.cp {
			m.cp = g.cp
		}
		for seq := range m.ahead {
			if seq > g.cp {
				delete(m.ahead, seq)
			}
		}
		m.advance(g)
	}
}

// elect re-picks the serving member if the current one is dead or
// ineligible: the live member with the most recovered data wins (ties
// break to chain order). Returns whether the view changed.
func (g *Group) elect() bool {
	if g.eligibleIdx() {
		return false
	}
	best := -1
	for i, m := range g.members {
		if m.alive && (best < 0 || m.cp > g.members[best].cp) {
			best = i
		}
	}
	if best == g.serving {
		return false
	}
	g.serving = best
	g.view++
	return true
}

// MemberDown marks a member crashed. If it was serving, the log is
// truncated to the commit point and a new view opens around the live
// member with the latest data. Returns whether the view changed.
func (g *Group) MemberDown(server int) (viewChanged bool) {
	i := g.mustIndex(server)
	m := g.members[i]
	if !m.alive {
		return false
	}
	m.alive = false
	m.chained = false
	if i != g.serving {
		return false
	}
	g.truncate()
	changed := g.elect()
	// After truncation every surviving record predates the crash. Live
	// members holding them all rejoin the chain; a live member left with
	// a gap (its commit was in flight when the serving died) drops out
	// until catch-up replays the hole.
	for _, m := range g.members {
		if m.alive {
			m.chained = !m.stale && g.lag(m) == 0
		}
	}
	return changed
}

// MemberUp marks a member recovered. Its disk contents survived the
// crash, but it missed every record assigned while it was down, so it
// rejoins unchained until catch-up completes. Returns whether the view
// changed (the group may have been unavailable, or served by a member
// with less data).
func (g *Group) MemberUp(server int) (viewChanged bool) {
	m := g.members[g.mustIndex(server)]
	if m.alive {
		return false
	}
	m.alive = true
	m.chained = !m.stale && g.lag(m) == 0
	return g.elect()
}

// BeginCatchUp starts an ordered replay session for a member: it drops
// out of the chain (new assignments no longer target it) and its
// out-of-order commit credit is withdrawn. A member may hold committed
// records physically applied BEFORE the gap records replay will rewrite;
// if ranges overlap, the replay would clobber the newer bytes. Clearing
// the ahead set forces those records back through the replay in
// sequence order, so the member's store is byte-correct when its commit
// point advances.
func (g *Group) BeginCatchUp(server int) {
	m := g.members[g.mustIndex(server)]
	m.chained = false
	for seq := range m.ahead {
		delete(m.ahead, seq)
	}
}

// Replayed records a catch-up rewrite of a logged record: like Commit,
// but tolerant of records already credited (the ordered rewrite
// re-establishes byte order, so re-crediting is sound).
func (g *Group) Replayed(server int, seq uint64) {
	m := g.members[g.mustIndex(server)]
	if m.stale || seq <= m.cp || !g.logged(seq) {
		return
	}
	m.ahead[seq] = true
	m.advance(g)
}

// Resynced installs a full-image snapshot taken from source on a stale
// member: its store now mirrors source's image, so its commit point
// jumps to source's — the one sanctioned exception to log-ordered
// advancement, sound because the installed bytes ARE the bytes that
// ordered application of records up to source's commit point produces.
// Out-of-order credit is withdrawn as in BeginCatchUp; ordered replay
// of records above the installed point resumes from here. The source
// must not itself be stale (NextCatchUp never picks one).
func (g *Group) Resynced(server, source int) {
	m := g.members[g.mustIndex(server)]
	src := g.members[g.mustIndex(source)]
	m.stale = false
	m.cp = src.cp
	for seq := range m.ahead {
		delete(m.ahead, seq)
	}
}

// Reelect re-runs the serving election without a membership change —
// called after catch-up advances a member past the current (ineligible)
// serving replica. Returns whether the view changed.
func (g *Group) Reelect() bool { return g.elect() }

// CatchUpStatus reports what a lagging member can do next.
type CatchUpStatus int

// Catch-up states.
const (
	// CatchCaughtUp: no gap remains; the member rejoined the chain.
	CatchCaughtUp CatchUpStatus = iota
	// CatchReady: rec should be copied from source's store.
	CatchReady
	// CatchStalled: a gap exists but no live member has committed it
	// yet (the record is still in flight, or its holder is down); retry
	// after the next commit or recovery.
	CatchStalled
	// CatchResync: the member's gap was hard-pruned from the log; a
	// full image of source's store must be installed (Resynced) before
	// record replay can resume.
	CatchResync
)

// NextCatchUp plans a lagging member's next replay step: the first
// logged record it is missing, and the live member with the most
// recovered data that already holds it. On CatchCaughtUp the member is
// rechained (it now receives new assignments directly again). A stale
// member gets CatchResync instead, with the best live full-image
// source; its commit point is frozen until Resynced installs one.
func (g *Group) NextCatchUp(server int) (rec Record, source int, status CatchUpStatus) {
	m := g.members[g.mustIndex(server)]
	if m.stale {
		best := -1
		for i, src := range g.members {
			// A stale source's own image stops below the floor; installing
			// it would leave the target with the same unreplayable gap.
			if src == m || !src.alive || src.stale {
				continue
			}
			if best < 0 || src.cp > g.members[best].cp {
				best = i
			}
		}
		if best < 0 {
			return Record{}, 0, CatchStalled
		}
		return Record{}, g.members[best].id, CatchResync
	}
	next, ok := g.nextLogged(m.cp)
	for ok && m.ahead[next.Seq] {
		next, ok = g.nextLogged(next.Seq)
	}
	if !ok {
		m.chained = true
		return Record{}, 0, CatchCaughtUp
	}
	best := -1
	for i, src := range g.members {
		if src == m || !src.alive {
			continue
		}
		if src.cp < next.Seq && !src.ahead[next.Seq] {
			continue
		}
		if best < 0 || src.cp > g.members[best].cp {
			best = i
		}
	}
	if best < 0 {
		return Record{}, 0, CatchStalled
	}
	return next, g.members[best].id, CatchReady
}

// Status is an exported snapshot of one group for health reporting.
type Status struct {
	Slot      int
	View      int
	Serving   int // serving server ID, -1 when none
	Available bool
	CP, FP    uint64
	Members   []MemberStatus
}

// MemberStatus is one member's snapshot.
type MemberStatus struct {
	Server  int
	Alive   bool
	Chained bool
	Stale   bool
	CP      uint64
	Lag     int
}

// Snapshot exports the group's current state.
func (g *Group) Snapshot() Status {
	st := Status{Slot: g.slot, View: g.view, Serving: g.ServingMember(), CP: g.cp, FP: g.fp}
	_, st.Available = g.Serving()
	for _, m := range g.members {
		st.Members = append(st.Members, MemberStatus{
			Server: m.id, Alive: m.alive, Chained: m.chained, Stale: m.stale, CP: m.cp, Lag: g.lag(m),
		})
	}
	return st
}
