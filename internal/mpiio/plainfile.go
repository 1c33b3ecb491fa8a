package mpiio

import (
	"fmt"

	"harl/internal/layout"
	"harl/internal/pfs"
	"harl/internal/repl"
	"harl/internal/sim"
)

// PlainFile is a logical file stored as a single PFS file with one
// striping configuration — the traditional fixed-size (or randomly
// chosen) stripe layouts HARL is compared against.
type PlainFile struct {
	name    string
	handles []*pfs.File // per rank
}

// Name returns the logical file name.
func (f *PlainFile) Name() string { return f.name }

// Layout returns the file's layout mapper.
func (f *PlainFile) Layout() layout.Mapper { return f.handles[0].Meta().Layout }

// Striping returns the file's two-tier layout; it panics for files
// created with a Tiered layout (use Layout for those).
func (f *PlainFile) Striping() layout.Striping {
	return f.Layout().(layout.Striping)
}

// CreatePlain creates a file with the given layout and opens it on
// every rank. It must be called from within the simulation (an engine
// event); done receives the file when all ranks hold handles.
func (w *World) CreatePlain(name string, st layout.Mapper, done func(*PlainFile, error)) {
	f := &PlainFile{name: name, handles: make([]*pfs.File, w.Ranks())}
	w.createOpen(name, st, repl.Spec{}, f.handles, func(err error) {
		if err != nil {
			done(nil, err)
			return
		}
		done(f, nil)
	})
}

// createOpen creates name from rank 0 with layout lo and replica
// placement replicas (no groups: one copy), then opens it on every other
// rank, filling handles.
func (w *World) createOpen(name string, lo layout.Mapper, replicas repl.Spec, handles []*pfs.File, done func(error)) {
	w.Client(0).CreateReplicated(name, lo, replicas, func(h *pfs.File, err error) {
		if err != nil {
			done(err)
			return
		}
		handles[0] = h
		w.openRemaining(name, handles, 1, done)
	})
}

// OpenPlain opens an existing file on every rank.
func (w *World) OpenPlain(name string, done func(*PlainFile, error)) {
	f := &PlainFile{name: name, handles: make([]*pfs.File, w.Ranks())}
	w.openRemaining(name, f.handles, 0, func(err error) {
		if err != nil {
			done(nil, err)
			return
		}
		done(f, nil)
	})
}

// openRemaining opens name on ranks [from, Ranks) sequentially. Opens are
// cheap metadata round trips; sequencing keeps the code simple and the
// cost negligible next to data movement.
func (w *World) openRemaining(name string, handles []*pfs.File, from int, done func(error)) {
	if from == len(handles) {
		done(nil)
		return
	}
	w.Client(from).Open(name, func(h *pfs.File, err error) {
		if err != nil {
			done(fmt.Errorf("mpiio: rank %d open %q: %w", from, name, err))
			return
		}
		handles[from] = h
		w.openRemaining(name, handles, from+1, done)
	})
}

// WriteAt implements File.
func (f *PlainFile) WriteAt(rank int, off int64, data []byte, done func(error)) {
	f.handles[rank].WriteAt(data, off, done)
}

// ReadAt implements File.
func (f *PlainFile) ReadAt(rank int, off, size int64, done func([]byte, error)) {
	f.handles[rank].ReadAt(off, size, done)
}

// Size returns the logical EOF.
func (f *PlainFile) Size() int64 { return f.handles[0].Size() }

// Run drives a World setup-plus-workload function to completion: it
// schedules fn at the current virtual time and runs the engine until the
// event queue drains, returning the finishing time. It is the harness
// most tests and benchmark drivers use.
func (w *World) Run(fn func()) sim.Time {
	w.engine.Schedule(0, fn)
	return w.engine.Run()
}
