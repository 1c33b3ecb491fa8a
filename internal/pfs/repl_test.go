package pfs

import (
	"bytes"
	"errors"
	"testing"

	"harl/internal/layout"
	"harl/internal/repl"
	"harl/internal/sim"
)

func mustCreateRepl(t *testing.T, e *sim.Engine, c *Client, name string, st layout.Striping, r int) *File {
	t.Helper()
	var f *File
	e.Schedule(0, func() {
		c.CreateReplicated(name, st, repl.Place(st, r, 0), func(file *File, err error) {
			if err != nil {
				t.Errorf("create %q: %v", name, err)
				return
			}
			f = file
		})
	})
	e.Run()
	if f == nil {
		t.Fatalf("create %q did not complete", name)
	}
	return f
}

func TestReplUnavailableIsRetryable(t *testing.T) {
	if !Retryable(ErrUnavailable) {
		t.Fatal("ErrUnavailable must be retryable — a view change can restore service")
	}
}

func TestReplWriteReadRoundTrip(t *testing.T) {
	e, fs := testbed(t)
	c := fs.NewClient("c0")
	st := layout.Fixed(6, 2, 64<<10)
	f := mustCreateRepl(t, e, c, "data", st, 2)
	if f.meta.Repl == nil {
		t.Fatal("replicated create left no protocol state")
	}

	// Page-aligned so the sparse stores' page accounting below is exact.
	payload := fill(21, 512<<10)
	var got []byte
	e.Schedule(0, func() {
		f.WriteAt(payload, 0, func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
				return
			}
			f.ReadAt(0, int64(len(payload)), func(data []byte, err error) {
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				got = data
			})
		})
	})
	e.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("replicated round-trip mismatch")
	}
	if fs.Repl.ChainWrites == 0 || fs.Repl.Forwards == 0 || fs.Repl.ForwardBytes == 0 {
		t.Fatalf("chain protocol did not run: %+v", fs.Repl)
	}
	// Every byte written must also sit on a backup replica.
	var backupBytes int64
	for _, s := range fs.servers {
		for key, obj := range s.stores {
			if key.slot != s.ID {
				backupBytes += obj.Bytes()
			}
		}
	}
	if backupBytes != int64(len(payload)) {
		t.Fatalf("backup replicas hold %d bytes, want %d", backupBytes, len(payload))
	}
}

func TestReplR1DelegatesToPlainProtocol(t *testing.T) {
	e, fs := testbed(t)
	c := fs.NewClient("c0")
	st := layout.Fixed(6, 2, 64<<10)
	f := mustCreateRepl(t, e, c, "data", st, 1)
	if f.meta.Repl != nil {
		t.Fatal("r=1 must delegate to the unreplicated protocol")
	}
	var done bool
	e.Schedule(0, func() {
		f.WriteAt(fill(22, 128<<10), 0, func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
			done = true
		})
	})
	e.Run()
	if !done {
		t.Fatal("write never completed")
	}
	if fs.Repl != (ReplStats{}) {
		t.Fatalf("r=1 touched the replication protocol: %+v", fs.Repl)
	}
}

func TestReplCrashPromotesBackupForReads(t *testing.T) {
	e, fs := testbed(t)
	fs.ClientPolicy = retryPolicy()
	c := fs.NewClient("c0")
	st := layout.Fixed(6, 2, 64<<10)
	f := mustCreateRepl(t, e, c, "data", st, 2)

	payload := fill(23, 512<<10)
	e.Schedule(0, func() {
		f.WriteAt(payload, 0, func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
		})
	})
	e.Run()

	fs.Crash(0)
	if fs.Repl.Promotions == 0 {
		t.Fatal("crashing a primary must change its groups' views")
	}
	var got []byte
	e.Schedule(0, func() {
		f.ReadAt(0, int64(len(payload)), func(data []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			got = data
		})
	})
	e.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("read after primary crash lost acknowledged bytes")
	}
	if fs.Repl.BackupReads == 0 {
		t.Fatal("no read was served by a backup replica")
	}
}

func TestReplWriteContinuesAfterPrimaryCrash(t *testing.T) {
	e, fs := testbed(t)
	fs.ClientPolicy = retryPolicy()
	c := fs.NewClient("c0")
	st := layout.Fixed(6, 2, 64<<10)
	f := mustCreateRepl(t, e, c, "data", st, 2)

	first := fill(24, 512<<10)
	second := fill(25, 512<<10)
	e.Schedule(0, func() {
		f.WriteAt(first, 0, func(err error) {
			if err != nil {
				t.Errorf("write 1: %v", err)
			}
		})
	})
	e.Run()

	fs.Crash(0)
	var got []byte
	e.Schedule(0, func() {
		f.WriteAt(second, int64(len(first)), func(err error) {
			if err != nil {
				t.Errorf("write 2: %v", err)
				return
			}
			f.ReadAt(0, int64(len(first)+len(second)), func(data []byte, err error) {
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				got = data
			})
		})
	})
	e.Run()
	want := append(append([]byte(nil), first...), second...)
	if !bytes.Equal(got, want) {
		t.Fatal("read-your-writes broken across a primary crash")
	}
}

func TestReplDoubleCrashUnavailableUntilRecovery(t *testing.T) {
	e, fs := testbed(t)
	fs.ClientPolicy = retryPolicy()
	c := fs.NewClient("c0")
	st := layout.Fixed(6, 2, 64<<10)
	f := mustCreateRepl(t, e, c, "data", st, 2)

	payload := fill(26, 512<<10)
	e.Schedule(0, func() {
		f.WriteAt(payload, 0, func(err error) {
			if err != nil {
				t.Errorf("write 1: %v", err)
			}
		})
	})
	e.Run()

	// Both replicas of slot 0's group down: the region is unavailable.
	fs.Crash(0)
	fs.Crash(1)
	var done bool
	var werr error
	e.Schedule(0, func() {
		f.WriteAt(fill(27, 512<<10), int64(len(payload)), func(err error) { done, werr = true, err })
	})
	e.Schedule(100*sim.Millisecond, func() { fs.Recover(1) })
	e.Run()
	if !done {
		t.Fatal("write never settled")
	}
	if werr != nil {
		t.Fatalf("write after recovering one replica: %v", werr)
	}
	if fs.Repl.Unavailable == 0 {
		t.Fatal("double crash never reported unavailability")
	}

	var got []byte
	e.Schedule(0, func() {
		f.ReadAt(0, int64(len(payload)), func(data []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			got = data
		})
	})
	e.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("acked bytes lost across double crash")
	}
}

func TestReplCatchUpRepairsRecoveredReplica(t *testing.T) {
	e, fs := testbed(t)
	fs.ClientPolicy = retryPolicy()
	c := fs.NewClient("c0")
	st := layout.Fixed(6, 2, 64<<10)
	f := mustCreateRepl(t, e, c, "data", st, 2)

	first := fill(28, 512<<10)
	second := fill(29, 512<<10)
	e.Schedule(0, func() {
		f.WriteAt(first, 0, func(err error) {
			if err != nil {
				t.Errorf("write 1: %v", err)
			}
		})
	})
	e.Run()

	// Server 0 misses the second round of writes, then recovers and must
	// replay them from the log before rejoining its groups.
	fs.Crash(0)
	e.Schedule(0, func() {
		f.WriteAt(second, int64(len(first)), func(err error) {
			if err != nil {
				t.Errorf("write 2: %v", err)
			}
		})
	})
	e.Run()
	fs.Recover(0)
	e.Run()

	if fs.Repl.CatchUps == 0 || fs.Repl.CatchUpRecords == 0 {
		t.Fatalf("recovery triggered no catch-up: %+v", fs.Repl)
	}
	for _, status := range fs.ReplStatus("data") {
		for _, m := range status.Members {
			if m.Alive && m.Lag != 0 {
				t.Fatalf("slot %d member %d still lags %d after catch-up", status.Slot, m.Server, m.Lag)
			}
		}
	}

	var got []byte
	e.Schedule(0, func() {
		f.ReadAt(0, int64(len(first)+len(second)), func(data []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			got = data
		})
	})
	e.Run()
	want := append(append([]byte(nil), first...), second...)
	if !bytes.Equal(got, want) {
		t.Fatal("data diverged after catch-up")
	}
}

func TestReplOverwriteUsesQuorum(t *testing.T) {
	e, fs := testbed(t)
	c := fs.NewClient("c0")
	st := layout.Fixed(6, 2, 64<<10)
	f := mustCreateRepl(t, e, c, "data", st, 3)

	v0 := fill(30, 256<<10)
	v1 := fill(31, 256<<10)
	var got []byte
	e.Schedule(0, func() {
		f.WriteAt(v0, 0, func(err error) {
			if err != nil {
				t.Errorf("write v0: %v", err)
				return
			}
			f.WriteAt(v1, 0, func(err error) {
				if err != nil {
					t.Errorf("write v1: %v", err)
					return
				}
				f.ReadAt(0, int64(len(v1)), func(data []byte, err error) {
					if err != nil {
						t.Errorf("read: %v", err)
						return
					}
					got = data
				})
			})
		})
	})
	e.Run()
	if !bytes.Equal(got, v1) {
		t.Fatal("overwrite did not read back the newer payload")
	}
	if fs.Repl.QuorumWrites == 0 {
		t.Fatal("overwrite did not use the quorum rule")
	}
	if fs.Repl.ChainWrites == 0 {
		t.Fatal("initial write did not use the chain rule")
	}
}

func TestReplPhantomWritesReplicate(t *testing.T) {
	e, fs := testbed(t)
	c := fs.NewClient("c0")
	st := layout.Fixed(6, 2, 64<<10)
	f := mustCreateRepl(t, e, c, "data", st, 2)

	var done bool
	e.Schedule(0, func() {
		f.WriteZeros(0, 1<<20, func(err error) {
			if err != nil {
				t.Errorf("write zeros: %v", err)
			}
			done = true
		})
	})
	e.Run()
	if !done {
		t.Fatal("phantom write never completed")
	}
	if fs.Repl.ChainWrites == 0 || fs.Repl.Forwards == 0 {
		t.Fatalf("phantom write skipped the chain protocol: %+v", fs.Repl)
	}
	// Phantom payloads must stay phantom on the backups too.
	for _, s := range fs.servers {
		for key, obj := range s.stores {
			if key.slot != s.ID && obj.Bytes() != 0 {
				t.Fatal("phantom write materialized backup bytes")
			}
		}
	}
}

// Satellite: a recovered process runs at nominal speed again (the
// restart clears any straggle), while flaky probabilities model the disk
// behind it and survive the restart.
func TestReplRecoverResetsStraggleKeepsFlaky(t *testing.T) {
	_, fs := testbed(t)
	fs.Straggle(0, 8)
	fs.SetFlaky(0, 0.25, 0.5)
	fs.Crash(0)
	fs.Recover(0)
	s := fs.Servers()[0]
	if s.SlowFactor != 1 {
		t.Fatalf("SlowFactor = %v after recovery, want 1", s.SlowFactor)
	}
	if s.flakyErrP != 0.25 || s.flakyDropP != 0.5 {
		t.Fatalf("flaky probabilities %v/%v did not survive recovery", s.flakyErrP, s.flakyDropP)
	}
}

// Satellite: Crash, Recover and Health key the MDS health table the same
// way — by the server's ID.
func TestReplHealthKeyingAgrees(t *testing.T) {
	_, fs := testbed(t)
	fs.Crash(3)
	if fs.Health(3) != Down {
		t.Fatal("Health(3) does not see the crash")
	}
	if fs.health[fs.Servers()[3].ID] != Down {
		t.Fatal("health table not keyed by server ID")
	}
	fs.Recover(3)
	if fs.Health(3) != Healthy {
		t.Fatal("Health(3) does not see the recovery")
	}
}

func TestReplStatusSnapshots(t *testing.T) {
	e, fs := testbed(t)
	c := fs.NewClient("c0")
	st := layout.Fixed(6, 2, 64<<10)
	mustCreateRepl(t, e, c, "data", st, 2)

	if fs.ReplStatus("nope") != nil {
		t.Fatal("unknown file must report nil status")
	}
	statuses := fs.ReplStatus("data")
	if len(statuses) != 8 {
		t.Fatalf("got %d slot statuses, want 8", len(statuses))
	}
	for slot, status := range statuses {
		if status.Slot != slot || !status.Available || status.Serving != slot {
			t.Fatalf("slot %d status %+v", slot, status)
		}
		if len(status.Members) != 2 {
			t.Fatalf("slot %d has %d members, want 2", slot, len(status.Members))
		}
	}
	fs.Crash(2)
	status := fs.ReplStatus("data")[2]
	if status.Serving == 2 || !status.Available {
		t.Fatalf("slot 2 after crash: %+v", status)
	}
}

func TestReplRemoveCleansBackupObjects(t *testing.T) {
	e, fs := testbed(t)
	c := fs.NewClient("c0")
	st := layout.Fixed(6, 2, 64<<10)
	f := mustCreateRepl(t, e, c, "data", st, 2)
	e.Schedule(0, func() {
		f.WriteAt(fill(32, 512<<10), 0, func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
				return
			}
			c.Remove("data", func(err error) {
				if err != nil {
					t.Errorf("remove: %v", err)
				}
			})
		})
	})
	e.Run()
	for _, s := range fs.servers {
		if len(s.stores) != 0 {
			t.Fatalf("server %s still holds %d stores", s.Name, len(s.stores))
		}
	}
	if len(fs.replFiles) != 0 {
		t.Fatal("removed file still registered for crash hooks")
	}
}

func TestReplChaosDeterministicFromSeed(t *testing.T) {
	scenario := func() (FaultStats, ReplStats, uint64) {
		e, fs := testbed(t)
		fs.ClientPolicy = retryPolicy()
		c := fs.NewClient("c0")
		st := layout.Fixed(6, 2, 64<<10)
		f := mustCreateRepl(t, e, c, "data", st, 2)
		payload := fill(33, 1<<20)
		e.Schedule(0, func() {
			f.WriteAt(payload, 0, func(error) {})
		})
		e.Schedule(2*sim.Millisecond, func() { fs.Crash(0) })
		e.Schedule(40*sim.Millisecond, func() { fs.Recover(0) })
		e.Schedule(60*sim.Millisecond, func() { fs.Crash(1) })
		e.Schedule(90*sim.Millisecond, func() { fs.Recover(1) })
		e.Run()
		return fs.Faults, fs.Repl, fs.engine.Processed
	}
	f1, r1, n1 := scenario()
	f2, r2, n2 := scenario()
	if f1 != f2 || r1 != r2 || n1 != n2 {
		t.Fatalf("chaos replay diverged:\n%+v %+v %d\n%+v %+v %d", f1, r1, n1, f2, r2, n2)
	}
}

func TestReplCreateRejectsBadSpec(t *testing.T) {
	e, fs := testbed(t)
	c := fs.NewClient("c0")
	st := layout.Fixed(6, 2, 64<<10)
	var gotErr error
	var settled bool
	e.Schedule(0, func() {
		spec := repl.Spec{Groups: [][]int{{0, 99}}}
		c.CreateReplicated("bad", st, spec, func(_ *File, err error) { settled, gotErr = true, err })
	})
	e.Run()
	if !settled {
		t.Fatal("create never settled")
	}
	if gotErr == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, exists := fs.files["bad"]; exists {
		t.Fatal("rejected create left a file behind")
	}
	if errors.Is(gotErr, ErrUnavailable) {
		t.Fatal("spec validation must not masquerade as unavailability")
	}
}

// Regression: a backup's commit report that was already in flight when its
// catch-up session opened must be dropped, not credited. Crediting it
// would let NextCatchUp skip the record while the ordered replay of an
// earlier overlapping record clobbers its bytes — the member could then
// reach the group commit point holding stale data and serve it after a
// promotion.
func TestReplCommitDroppedDuringCatchUp(t *testing.T) {
	e, fs := testbed(t)
	c := fs.NewClient("c0")
	st := layout.Fixed(6, 2, 64<<10)
	f := mustCreateRepl(t, e, c, "data", st, 2)
	meta := f.meta

	base := fill(90, 64<<10)
	e.Schedule(0, func() {
		f.WriteAt(base, 0, func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
		})
	})
	e.Run()

	// Stage the hazard by hand on slot 0's group: two acked overlapping
	// records, with the backup having applied only the NEWER one — its
	// commit report still on the wire when the session begins.
	rg := meta.Repl.groups[0]
	g := rg.g
	serving, _ := g.Serving()
	backup := rg.members[1]
	recA, _ := g.Assign(0, 8<<10, fill(91, 8<<10))
	recB, _ := g.Assign(4<<10, 8<<10, fill(92, 8<<10))
	for _, rec := range []repl.Record{recA, recB} {
		fs.servers[serving].writeSlot(meta.ID, 0, rec.Data, rec.Local)
		g.Commit(serving, rec.Seq)
		g.Ack(rec.Seq)
	}
	fs.servers[backup].writeSlot(meta.ID, 0, recB.Data, recB.Local)

	fs.startCatchUp(meta, rg, backup)
	if cs := rg.cu[backup]; cs == nil || !cs.active {
		t.Fatal("catch-up session did not open for the lagging backup")
	}
	fs.replCommit(meta, rg, backup, recB.Seq, nil)
	if g.CommittedBy(backup, recB.Seq) {
		t.Fatal("in-flight commit report credited during an active catch-up session")
	}

	e.Run()
	if got := fs.Repl.CatchUpRecords; got != 2 {
		t.Fatalf("replayed %d records, want both overlapping records", got)
	}
	if g.Lag(backup) != 0 || g.MemberCP(backup) != g.CP() {
		t.Fatalf("backup not healed: lag %d cp %d group cp %d", g.Lag(backup), g.MemberCP(backup), g.CP())
	}
	want := make([]byte, 64<<10)
	got := make([]byte, 64<<10)
	fs.servers[serving].storeFor(meta.ID, 0).ReadAt(want, 0)
	fs.servers[backup].storeFor(meta.ID, 0).ReadAt(got, 0)
	if !bytes.Equal(got, want) {
		t.Fatal("backup image diverged from serving replica after catch-up")
	}
}

// Replicated writes keep capacity accounting in step with the
// unreplicated path: each slot's primary counts its own datafile bytes,
// backup objects stay uncounted, and remove refunds exactly what was
// counted — never driving stored negative.
func TestReplStoredBytesAccounting(t *testing.T) {
	e, fs := testbed(t)
	c := fs.NewClient("c0")
	st := layout.Fixed(6, 2, 64<<10)
	f := mustCreateRepl(t, e, c, "data", st, 2)

	payload := fill(93, 512<<10) // page-aligned: sparse accounting is exact
	e.Schedule(0, func() {
		f.WriteAt(payload, 0, func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
		})
	})
	e.Run()
	var total int64
	for _, s := range fs.servers {
		total += s.StoredBytes()
	}
	if total != int64(len(payload)) {
		t.Fatalf("stored %d bytes across servers, want %d (backups uncounted)", total, len(payload))
	}

	e.Schedule(0, func() {
		c.Remove("data", func(err error) {
			if err != nil {
				t.Errorf("remove: %v", err)
			}
		})
	})
	e.Run()
	for _, s := range fs.servers {
		if s.StoredBytes() != 0 {
			t.Fatalf("server %s stored %d bytes after remove, want 0", s.Name, s.StoredBytes())
		}
	}
}

// Regression: the catch-up watchdog supersedes a slow replay chain
// instead of racing a duplicate against it, so a straggling member
// replays — and counts — each record exactly once, same as a healthy one.
func TestReplCatchUpCountersImmuneToStraggle(t *testing.T) {
	scenario := func(straggle float64) (ReplStats, []byte) {
		e, fs := testbed(t)
		fs.ClientPolicy = retryPolicy()
		c := fs.NewClient("c0")
		st := layout.Fixed(6, 2, 64<<10)
		f := mustCreateRepl(t, e, c, "data", st, 2)
		first := fill(94, 512<<10)
		second := fill(95, 512<<10)
		e.Schedule(0, func() {
			f.WriteAt(first, 0, func(err error) {
				if err != nil {
					t.Errorf("write 1: %v", err)
				}
			})
		})
		e.Run()
		fs.Crash(0)
		e.Schedule(0, func() {
			f.WriteAt(second, int64(len(first)), func(err error) {
				if err != nil {
					t.Errorf("write 2: %v", err)
				}
			})
		})
		e.Run()
		fs.Recover(0)
		if straggle > 1 {
			// Slow enough that every replay step outlasts the base
			// watchdog horizon; the backoff must still land each step.
			fs.Straggle(0, straggle)
		}
		e.Run()
		var got []byte
		e.Schedule(0, func() {
			f.ReadAt(0, int64(len(first)+len(second)), func(data []byte, err error) {
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				got = data
			})
		})
		e.Run()
		return fs.Repl, got
	}

	fast, fastData := scenario(1)
	slow, slowData := scenario(10)
	if fast.CatchUpRecords == 0 {
		t.Fatal("scenario triggered no catch-up")
	}
	if slow.CatchUpRecords != fast.CatchUpRecords || slow.CatchUpBytes != fast.CatchUpBytes {
		t.Fatalf("straggle changed replay counters: %d records/%d bytes vs %d/%d",
			slow.CatchUpRecords, slow.CatchUpBytes, fast.CatchUpRecords, fast.CatchUpBytes)
	}
	if !bytes.Equal(fastData, slowData) {
		t.Fatal("straggling catch-up changed the read-back image")
	}
}

// A member that stays down while the hard retention bound prunes its
// replay gap comes back via a full-image resync and serves correct bytes
// again.
func TestReplResyncAfterHardPrune(t *testing.T) {
	e, fs := testbed(t)
	c := fs.NewClient("c0")
	st := layout.Fixed(6, 2, 64<<10)
	f := mustCreateRepl(t, e, c, "data", st, 2)
	meta := f.meta
	rg := meta.Repl.groups[0]
	backup := rg.members[1]

	payload := fill(96, 64<<10)
	e.Schedule(0, func() {
		f.WriteAt(payload, 0, func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
		})
	})
	e.Run()

	// The backup crashes, then phantom overwrites flood slot 0's log past
	// the hard retention cap (quorum = live majority = 1, so the serving
	// replica acks alone). The dead member's gap is pruned away.
	fs.Crash(backup)
	const floods = 17000 // > hardPruneRecords in internal/repl
	var flood func(i int)
	flood = func(i int) {
		if i == floods {
			return
		}
		f.WriteZeros(0, 64<<10, func(err error) {
			if err != nil {
				t.Errorf("flood write %d: %v", i, err)
				return
			}
			flood(i + 1)
		})
	}
	e.Schedule(0, func() { flood(0) })
	e.Run()
	if !rg.g.Stale(backup) {
		t.Fatal("flooded log never hard-pruned the dead member's gap")
	}

	fs.Recover(backup)
	e.Run()
	if fs.Repl.Resyncs == 0 || fs.Repl.ResyncBytes == 0 {
		t.Fatalf("stale member healed without a resync: %+v", fs.Repl)
	}
	if rg.g.Stale(backup) || rg.g.Lag(backup) != 0 || !rg.g.Chained(backup) {
		t.Fatalf("resynced member state: stale=%v lag=%d chained=%v",
			rg.g.Stale(backup), rg.g.Lag(backup), rg.g.Chained(backup))
	}
	want := make([]byte, 64<<10)
	got := make([]byte, 64<<10)
	fs.servers[0].storeFor(meta.ID, 0).ReadAt(want, 0)
	fs.servers[backup].storeFor(meta.ID, 0).ReadAt(got, 0)
	if !bytes.Equal(got, want) {
		t.Fatal("resynced image diverged from the serving replica")
	}
}
