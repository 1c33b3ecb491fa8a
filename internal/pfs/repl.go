package pfs

import (
	"fmt"

	"harl/internal/device"
	"harl/internal/layout"
	"harl/internal/netsim"
	"harl/internal/obs"
	"harl/internal/repl"
	"harl/internal/sim"
)

// Region-level replication: the primary/backup write protocol, epoch/view
// change, and crash-consistent catch-up around the pure state machines in
// internal/repl.
//
// Each replicated file carries one repl.Group per layout slot. A write
// sub-request travels to the slot's serving replica, which assigns it a
// log sequence, commits it through its own disk, and forwards it to the
// live chained backups; the client's ack fires only once the serving and
// every required backup committed (chain rule), or a majority did (quorum
// rule, for overwrites). Reads go to the serving replica and may hedge to
// an eligible backup. When a replica crashes, the group elects the
// surviving member with the most committed data, truncates unacked log
// tail, and redirects traffic — acknowledged bytes are never lost while
// any replica that committed them survives. A recovering replica replays
// the log records it missed, in order, before rejoining the chain.
//
// The protocol assumes the file's writers do not race different payloads
// onto overlapping byte ranges (HPC collectives write disjoint ranges per
// rank; retries re-send identical bytes), so replaying retained payloads
// in log order always converges every replica to the acknowledged image.
//
// Everything here is driven by disk/network completion callbacks on the
// shared engine — the package stays single-threaded and deterministic,
// and files without a replState never touch any of it.

// Protocol pacing constants. The unavailability delay paces client
// retries against a group with no eligible serving replica: a zero-backoff
// policy would otherwise spin without advancing the virtual clock while
// the view change or catch-up it is waiting for needs time to complete.
const (
	replUnavailDelay   = 250 * sim.Microsecond
	replCatchStepDelay = 2 * sim.Millisecond  // retry delay after a flaky replay step
	replCatchStepWatch = 20 * sim.Millisecond // watchdog for silently dropped replay steps
	replResyncWatch    = 2 * sim.Second       // watchdog for a silently dropped full-image resync
	replCatchMaxTries  = 64
)

// ReplStats aggregates the replication protocol's counters.
type ReplStats struct {
	ChainWrites    uint64 // sequential writes acked by the full-chain rule
	QuorumWrites   uint64 // overwrites acked by the majority rule
	Forwards       uint64 // serving-to-backup forward messages sent
	ForwardBytes   uint64 // payload bytes forwarded to backups
	BackupReads    uint64 // reads served by a non-primary replica
	Promotions     uint64 // view changes that moved the serving replica
	Unavailable    uint64 // requests refused with no eligible serving replica
	CatchUps       uint64 // catch-up sessions completed
	CatchUpRecords uint64 // log records successfully replayed to lagging replicas
	CatchUpBytes   uint64 // bytes successfully replayed to lagging replicas
	Resyncs        uint64 // full-image resyncs installed on log-pruned members
	ResyncBytes    uint64 // image bytes shipped by full resyncs
}

// installImage clones source's store pages for one slot into this
// server's copy — the full-image transfer of a resync.
func (s *Server) installImage(fileID uint64, slot int, source *Server) {
	dst := s.storeFor(fileID, slot)
	before := dst.Bytes()
	dst.CopyFrom(source.storeFor(fileID, slot))
	s.account(slot, dst.Bytes()-before)
}

// replState is a replicated file's protocol state: the placement spec and
// one group per layout slot.
type replState struct {
	spec   repl.Spec
	groups []*replGroup
}

// replGroup pairs a slot's pure log/view state machine with the
// simulation-side bookkeeping: in-flight write pendings and per-member
// catch-up sessions.
type replGroup struct {
	g        *repl.Group
	members  []int // cached g.Members() — the commit hot path avoids realloc
	pendings []*replPending
	cu       map[int]*catchSession
}

// catchSession tracks one member's in-progress log replay. token
// invalidates the session's outstanding callbacks when the member crashes
// or a new session supersedes it.
type catchSession struct {
	active bool
	token  int
	tries  int
}

// replPending is one write waiting for its commit rule to be satisfied.
// The reply is epoch-gated on the serving incarnation that accepted the
// write: if that incarnation died, the client hears nothing (its deadline
// recovers it), exactly as with an unreplicated crashed server.
type replPending struct {
	seq       uint64
	required  []int
	quorum    bool
	servingID int
	epoch     uint64
	done      bool
	reply     func([]byte, error)
}

// CreateReplicated registers a file whose regions are replicated per the
// placement spec and returns an open handle. A spec with no replicated
// slot (MaxR <= 1) degenerates to a plain Create — the unreplicated
// protocol, event for event. Down servers at create time start as dead
// members; the group serves from the survivors.
func (c *Client) CreateReplicated(name string, lo layout.Mapper, spec repl.Spec, done func(*File, error)) {
	if spec.MaxR() <= 1 {
		c.Create(name, lo, done)
		return
	}
	span := c.beginMDS("create", name)
	c.fs.net.RoundTripSpan(span, c.node, c.fs.mdsNode, metaRPCBytes, metaRPCBytes, func(sim.Time) {
		meta, err := c.fs.createReplicated(name, lo, spec)
		c.endMDS(span, err)
		if err != nil {
			done(nil, err)
			return
		}
		done(&File{client: c, meta: meta}, nil)
	})
}

// createReplicated is the MDS half of CreateReplicated: create the file,
// validate the spec against the layout, and attach the replica groups.
func (fs *FS) createReplicated(name string, lo layout.Mapper, spec repl.Spec) (*FileMeta, error) {
	if lo == nil {
		return nil, fmt.Errorf("pfs: nil layout")
	}
	if err := spec.Validate(lo.Servers(), len(fs.servers)); err != nil {
		return nil, err
	}
	meta, err := fs.create(name, lo)
	if err != nil {
		return nil, err
	}
	rs := &replState{spec: spec}
	for slot, members := range spec.Groups {
		g := repl.NewGroup(slot, members)
		for _, id := range members {
			if fs.servers[id].down {
				g.MemberDown(id)
			}
		}
		rs.groups = append(rs.groups, &replGroup{
			g:       g,
			members: g.Members(),
			cu:      make(map[int]*catchSession),
		})
	}
	meta.Repl = rs
	fs.replFiles = append(fs.replFiles, meta)
	return meta, nil
}

// ReplStatus reports the live replica-group state of a replicated file,
// one snapshot per layout slot; nil for unknown or unreplicated files.
// (Does not model an MDS round trip — this is the operator's console
// view, used by harlctl health.)
func (fs *FS) ReplStatus(name string) []repl.Status {
	meta, ok := fs.files[name]
	if !ok || meta.Repl == nil {
		return nil
	}
	out := make([]repl.Status, 0, len(meta.Repl.groups))
	for _, rg := range meta.Repl.groups {
		out = append(out, rg.g.Snapshot())
	}
	return out
}

// beginReplWrite runs one write through a slot's replica group, entered
// at the server the client believed was serving. The record is logged,
// committed locally, and forwarded to the live chained backups; reply
// fires when the commit rule is satisfied (via checkPending) or the write
// fails.
func (fs *FS) beginReplWrite(meta *FileMeta, slot int, s *Server, local int64, data []byte, size int64, span obs.SpanID, reply func([]byte, error)) {
	if s.down {
		// A crashed server swallows the request, like admit().
		fs.Faults.Dropped++
		return
	}
	rg := meta.Repl.groups[slot]
	sid, ok := rg.g.Serving()
	if !ok || sid != s.ID {
		// The view moved between client dispatch and arrival; bounce the
		// client back to retry against the new serving replica.
		reply(nil, fmt.Errorf("%w: slot %d not served by %s", ErrUnavailable, slot, s.Name))
		return
	}
	overwrite := rg.g.IsOverwrite(local, size)
	if overwrite {
		fs.Repl.QuorumWrites++
	} else {
		fs.Repl.ChainWrites++
	}
	rec, required := rg.g.Assign(local, size, data)
	p := &replPending{
		seq:       rec.Seq,
		required:  required,
		quorum:    overwrite,
		servingID: s.ID,
		epoch:     s.epoch,
		reply:     reply,
	}
	rg.pendings = append(rg.pendings, p)
	fs.replicaWrite(meta, rg, s, rec, span, nil)
	for _, id := range required[1:] {
		b := fs.servers[id]
		fs.Repl.Forwards++
		fs.Repl.ForwardBytes += uint64(size)
		fs.net.TransferSpan(span, s.node, b.node, size, func(sim.Time) {
			fs.replicaWrite(meta, rg, b, rec, span, s.node)
		})
	}
}

// replicaWrite commits one log record on one member: the record's bytes
// go through the member's disk queue, and on clean completion they are
// applied to the member's store and the commit is reported to the group.
// ackTo, when non-nil, is the serving replica's node; the backup's commit
// report then rides a (payload-free) ack message back to it first. The
// store application happens here, in the step that owns the record's
// bytes, so it can be refused atomically with the commit (see replApply)
// — a member's commit point never overstates its store contents.
func (fs *FS) replicaWrite(meta *FileMeta, rg *replGroup, member *Server, rec repl.Record, span obs.SpanID, ackTo *netsim.Node) {
	// The commit gets its own span on the member's track, tagged with the
	// group coordinates, so critpath blame can charge chain-write overhead
	// to the replication group instead of an anonymous disk op.
	tr := fs.tracer
	wspan := span
	if tr != nil {
		wspan = tr.Begin(member.Name, "repl.write", span,
			obs.TInt("group", int64(rg.g.Slot())), obs.TInt("member", int64(member.ID)),
			obs.TInt("view", int64(rg.g.View())), obs.TInt("seq", int64(rec.Seq)),
			obs.TInt("bytes", rec.Size))
	}
	member.serve(device.Write, rec.Local, rec.Size, wspan, errDone, func(err error) {
		if err == nil {
			err = fs.replApply(meta, rg, member, rec)
		}
		if tr != nil {
			tr.End(wspan, obs.T("status", errStatus(err)))
		}
		report := func(sim.Time) { fs.replCommit(meta, rg, member.ID, rec.Seq, err) }
		if ackTo != nil {
			fs.net.TransferSpan(span, member.node, ackTo, 0, report)
		} else {
			report(fs.engine.Now())
		}
	})
}

// replApply applies a committed record's bytes to a member's replica
// store. It refuses records a view change truncated (their bytes could
// clobber newer acked data) and any non-replay application to a member
// mid-catch-up, where only the ordered log replay may touch the store.
func (fs *FS) replApply(meta *FileMeta, rg *replGroup, member *Server, rec repl.Record) error {
	if _, ok := rg.g.RecordAt(rec.Seq); !ok {
		return fmt.Errorf("%w: record %d superseded by view change", ErrUnavailable, rec.Seq)
	}
	if cs := rg.cu[member.ID]; cs != nil && cs.active {
		return fmt.Errorf("%w: replica %s is catching up", ErrUnavailable, member.Name)
	}
	member.writeSlot(meta.ID, rg.g.Slot(), rec.Data, rec.Local)
	return nil
}

// replCommit is the group's commit report: record the member's commit (or
// failure), resolve any pending the commit satisfies, and heal members
// the group's ack point has left behind.
func (fs *FS) replCommit(meta *FileMeta, rg *replGroup, server int, seq uint64, err error) {
	if !rg.g.HasMember(server) || !rg.g.Alive(server) {
		return // the member died while the commit was in flight
	}
	if err != nil {
		fs.failPending(rg, server, seq, err)
		fs.startCatchUp(meta, rg, server)
		return
	}
	if cs := rg.cu[server]; cs != nil && cs.active {
		// The success report was already in flight when the member's
		// catch-up session began. BeginCatchUp withdrew the member's
		// out-of-order credit precisely so the ordered replay rewrites
		// every gap record; crediting this one now would let NextCatchUp
		// skip it while replaying older overlapping records clobbers its
		// bytes — the member could then serve stale acked data after a
		// promotion. Drop the report, mirroring the replApply guard: the
		// record is logged and the session replays it in sequence.
		return
	}
	rg.g.Commit(server, seq)
	if p := findPending(rg, seq); p != nil {
		fs.checkPending(meta, rg, p)
	}
	fs.kickLagging(meta, rg)
}

// replRead serves a read from one replica. Only an eligible replica —
// alive, with every group-acked record committed — may reply; anything
// else bounces the client to retry, because a stale store could return
// bytes older than an acknowledged write.
func (fs *FS) replRead(meta *FileMeta, slot int, s *Server, local, size int64, phantom bool, span obs.SpanID, reply func([]byte, error)) {
	rg := meta.Repl.groups[slot]
	s.serve(device.Read, local, size, span, errDone, func(err error) {
		if err != nil {
			reply(nil, err)
			return
		}
		g := rg.g
		if !g.Alive(s.ID) || g.MemberCP(s.ID) < g.CP() {
			reply(nil, fmt.Errorf("%w: replica %s behind view %d", ErrUnavailable, s.Name, g.View()))
			return
		}
		if s.ID != slot {
			fs.Repl.BackupReads++
		}
		if phantom {
			reply(nil, nil)
			return
		}
		reply(s.readSlot(meta.ID, slot, local, size), nil)
	})
}

// findPending returns the unresolved pending for a sequence, if any.
func findPending(rg *replGroup, seq uint64) *replPending {
	for _, p := range rg.pendings {
		if p.seq == seq && !p.done {
			return p
		}
	}
	return nil
}

func removePending(rg *replGroup, target *replPending) {
	for i, p := range rg.pendings {
		if p == target {
			rg.pendings = append(rg.pendings[:i], rg.pendings[i+1:]...)
			return
		}
	}
}

// checkPending tests a pending write against its commit rule and acks it
// when satisfied. Chain rule: the serving replica and every required
// backup still alive have committed (a backup that died is excused — the
// view change already removed it from the chain). Quorum rule: the
// serving replica plus a majority of the group.
func (fs *FS) checkPending(meta *FileMeta, rg *replGroup, p *replPending) {
	if p.done {
		return
	}
	g := rg.g
	if !g.CommittedBy(p.servingID, p.seq) {
		return
	}
	if p.quorum {
		if g.CommitCount(p.seq) < g.Quorum() {
			return
		}
	} else {
		for _, id := range p.required {
			if g.Alive(id) && !g.CommittedBy(id, p.seq) {
				return
			}
		}
	}
	p.done = true
	removePending(rg, p)
	g.Ack(p.seq)
	fs.replyPending(p, nil, nil)
	// A quorum ack can advance the group's ack point past the serving
	// replica's own commit point (its local commit erred while the
	// majority landed); it is then ineligible and the group re-elects.
	if _, ok := g.Serving(); !ok {
		if g.Reelect() {
			fs.Repl.Promotions++
		}
	}
	fs.kickLagging(meta, rg)
}

// failPending resolves a pending after a member's commit failed. A chain
// write fails outright (the client retries; the log record stays and the
// erred member catches up from it). A quorum write survives backup
// failures — the majority may still land — and fails only when the
// serving replica itself erred.
func (fs *FS) failPending(rg *replGroup, server int, seq uint64, err error) {
	p := findPending(rg, seq)
	if p == nil {
		return
	}
	if p.quorum && server != p.servingID {
		return
	}
	p.done = true
	removePending(rg, p)
	fs.replyPending(p, nil, err)
}

// replyPending delivers a pending's reply through the epoch gate: if the
// serving incarnation that accepted the write is gone, nobody may speak
// for it — the client's deadline takes over.
func (fs *FS) replyPending(p *replPending, data []byte, err error) {
	s := fs.servers[p.servingID]
	if s.down || s.epoch != p.epoch {
		fs.Faults.Dropped++
		return
	}
	p.reply(data, err)
}

// kickLagging starts catch-up for every live member missing bytes the
// group has acknowledged (commit point below the group's). Members behind
// only on unacked in-flight records are left alone — those commits are
// still arriving on their own.
func (fs *FS) kickLagging(meta *FileMeta, rg *replGroup) {
	cp := rg.g.CP()
	for _, id := range rg.members {
		if rg.g.Alive(id) && rg.g.MemberCP(id) < cp {
			fs.startCatchUp(meta, rg, id)
		}
	}
}

// replOnDown is Crash's replication hook: for every group the server
// belongs to, invalidate its catch-up session, run the view change, drop
// the pendings that died with it, re-check the survivors (a dead backup
// is excused from chains), and heal whoever the truncated log left
// behind.
func (fs *FS) replOnDown(server int) {
	for _, meta := range fs.replFiles {
		for _, rg := range meta.Repl.groups {
			if !rg.g.HasMember(server) {
				continue
			}
			if cs := rg.cu[server]; cs != nil && cs.active {
				cs.active = false
				cs.token++
			}
			if rg.g.MemberDown(server) {
				fs.Repl.Promotions++
				fs.annotate(fs.servers[server], "repl.viewchange",
					obs.TInt("group", int64(rg.g.Slot())), obs.TInt("view", int64(rg.g.View())))
			}
			keep := rg.pendings[:0]
			var recheck []*replPending
			for _, p := range rg.pendings {
				if p.servingID == server {
					// The serving incarnation died; its clients hear
					// nothing and recover via deadline.
					p.done = true
					continue
				}
				if _, ok := rg.g.RecordAt(p.seq); !ok {
					// The view change truncated this unacked record.
					p.done = true
					continue
				}
				keep = append(keep, p)
				recheck = append(recheck, p)
			}
			rg.pendings = keep
			for _, p := range recheck {
				fs.checkPending(meta, rg, p)
			}
			fs.kickLagging(meta, rg)
		}
	}
}

// replOnUp is Recover's replication hook: rejoin the member as a lagging
// replica and replay it the log records it missed before it can serve.
func (fs *FS) replOnUp(server int) {
	for _, meta := range fs.replFiles {
		for _, rg := range meta.Repl.groups {
			if !rg.g.HasMember(server) {
				continue
			}
			if rg.g.MemberUp(server) {
				fs.Repl.Promotions++
			}
			fs.kickLagging(meta, rg)
		}
	}
}

// startCatchUp opens a catch-up session for a member unless one is
// already running or the member needs none. The session withdraws the
// member from the chain and replays every logged record above its commit
// point, in order, from a live replica that holds it.
func (fs *FS) startCatchUp(meta *FileMeta, rg *replGroup, server int) {
	g := rg.g
	if !g.HasMember(server) || !g.Alive(server) {
		return
	}
	if sid, ok := g.Serving(); ok && sid == server {
		return // an eligible serving replica is never torn down
	}
	cs := rg.cu[server]
	if cs == nil {
		cs = &catchSession{}
		rg.cu[server] = cs
	}
	if cs.active {
		return
	}
	if g.MemberCP(server) >= g.CP() && g.Lag(server) == 0 && g.Chained(server) {
		return
	}
	cs.active = true
	cs.token++
	cs.tries = 0
	g.BeginCatchUp(server)
	fs.catchStep(meta, rg, server, cs.token)
}

// watchHorizon returns the watchdog deadline for a replay step or
// resync: the base horizon doubled per consecutive failed try (capped).
// Supersession (token bump) silences a chain that is merely slow, so
// without the backoff a member whose disk op reliably outlasts the base
// horizon would be superseded forever and never land a step.
func watchHorizon(base sim.Duration, tries int) sim.Duration {
	if tries > 6 {
		tries = 6
	}
	return base << uint(tries)
}

// catchStep ships one catch-up unit to a catching-up member and chains
// itself until the member is caught up (rejoin, maybe re-elect), the
// replay stalls (no live replica holds the next record — a later
// recovery re-kicks it), or the member crashes. The unit is the next log
// record, or — when the member's replay gap was hard-pruned from the log
// (repl.CatchResync) — the whole-slot image: the source's covered extent
// travels as one transfer, lands through the member's disk, and the
// source's store pages and commit point are installed as a snapshot
// (repl.Group.Resynced), after which ordered replay resumes from the
// installed point. The source's disk contents are read at install time,
// so the image and the commit point it carries are a consistent pair
// even if the source crashed mid-transfer.
func (fs *FS) catchStep(meta *FileMeta, rg *replGroup, server int, token int) {
	cs := rg.cu[server]
	if cs == nil || !cs.active || cs.token != token {
		return
	}
	g := rg.g
	if !g.Alive(server) {
		cs.active = false
		return
	}
	rec, src, status := g.NextCatchUp(server)
	switch status {
	case repl.CatchCaughtUp:
		cs.active = false
		fs.Repl.CatchUps++
		fs.annotate(fs.servers[server], "repl.caughtup", obs.TInt("group", int64(g.Slot())))
		if g.Reelect() {
			fs.Repl.Promotions++
		}
		return
	case repl.CatchStalled:
		cs.active = false
		return
	}
	image := status == repl.CatchResync
	member := fs.servers[server]
	source := fs.servers[src]
	local, size, watch := rec.Local, rec.Size, replCatchStepWatch
	if image {
		// The member is stale until the image install lands. The instant
		// feeds the staleness SLO.
		fs.annotate(member, "repl.stale", obs.TInt("group", int64(g.Slot())))
		local, size, watch = 0, g.Covered(), replResyncWatch
	}
	// Each unit is a span on the member's track carrying the group's
	// coordinates and the member's remaining lag (or the image's bytes),
	// so the flight recorder and critpath blame see catch-up and resync
	// traffic per group.
	var span obs.SpanID
	if tr := fs.tracer; tr != nil {
		where := []obs.Tag{obs.TInt("group", int64(g.Slot())), obs.TInt("member", int64(server)),
			obs.TInt("source", int64(src)), obs.TInt("view", int64(g.View()))}
		if image {
			span = tr.Begin(member.Name, "repl.resync", 0, append(where, obs.TInt("bytes", size))...)
		} else {
			span = tr.Begin(member.Name, "repl.catchup", 0,
				append(where, obs.TInt("seq", int64(rec.Seq)), obs.TInt("lag", int64(g.Lag(server))))...)
		}
	}
	fs.net.TransferSpan(span, source.node, member.node, size, func(sim.Time) {
		member.serve(device.Write, local, size, span, errDone, func(err error) {
			if cs.token != token || !cs.active {
				fs.tracer.End(span, obs.T("status", "superseded"))
				return
			}
			failed := ""
			switch {
			case err != nil:
				failed = "error"
			case image && g.Stale(src):
				// The source was itself overtaken by a hard prune while the
				// image was in flight; its commit point no longer clears the
				// floor. Re-plan against a fresh source.
				failed = "stale-source"
			}
			if failed != "" {
				fs.tracer.End(span, obs.T("status", failed))
				cs.tries++
				if cs.tries > replCatchMaxTries {
					cs.active = false
					return
				}
				fs.engine.Schedule(replCatchStepDelay, func() { fs.catchStep(meta, rg, server, token) })
				return
			}
			cs.tries = 0
			if image {
				fs.Repl.Resyncs++
				fs.Repl.ResyncBytes += uint64(size)
				member.installImage(meta.ID, g.Slot(), source)
				g.Resynced(server, src)
				fs.tracer.End(span, obs.T("status", "ok"))
				fs.annotate(member, "repl.resync", obs.TInt("group", int64(g.Slot())))
			} else {
				fs.Repl.CatchUpRecords++
				fs.Repl.CatchUpBytes += uint64(size)
				member.writeSlot(meta.ID, g.Slot(), rec.Data, rec.Local)
				g.Replayed(server, rec.Seq)
				fs.tracer.End(span, obs.T("status", "ok"), obs.TInt("lag", int64(g.Lag(server))))
				if p := findPending(rg, rec.Seq); p != nil {
					fs.checkPending(meta, rg, p)
				}
			}
			fs.catchStep(meta, rg, server, token)
		})
	})
	// Watchdog: a flaky drop swallows the unit with the session still
	// active. Supersede the chain before re-driving — bumping the token
	// silences a unit that was merely queued behind other disk work, so a
	// slow unit cannot race a duplicate chain (and its own watchdog)
	// against this one or double-count it. An image gets a horizon
	// generous enough for a full-slot transfer.
	fs.engine.Schedule(watchHorizon(watch, cs.tries), func() {
		if cs.token != token || !cs.active {
			return
		}
		if image && !g.Stale(server) || !image && g.MemberCP(server) >= rec.Seq {
			return // the unit landed; the chain moved on
		}
		cs.tries++
		if cs.tries > replCatchMaxTries {
			cs.active = false
			return
		}
		cs.token++
		fs.catchStep(meta, rg, server, cs.token)
	})
}
