// Package pfs simulates a hybrid parallel file system in the mold of
// OrangeFS/PVFS: a metadata server (MDS), a set of data servers — HServers
// backed by mechanical disks and SServers backed by SSDs — and clients
// that stripe file data over the servers.
//
// The simulation follows the architecture of Section III-F of the paper: a
// client contacts the MDS once to resolve a file's metadata (its striping
// configuration), then moves data directly between itself and the data
// servers. Each data server owns a network attachment and a disk queue;
// sub-requests serialize on both, so load imbalance between fast SServers
// and slow HServers emerges exactly as in Figure 1(a).
//
// All operations are asynchronous: they take completion callbacks and run
// on the shared discrete-event engine. Real bytes are stored and returned,
// so tests can verify end-to-end data integrity through arbitrary layouts.
package pfs

import (
	"fmt"
	"sort"

	"harl/internal/device"
	"harl/internal/layout"
	"harl/internal/netsim"
	"harl/internal/obs"
	"harl/internal/sim"
)

// ServerRole distinguishes data servers by their backing medium.
type ServerRole = device.Kind

// Server roles re-exported for readability at call sites.
const (
	HServer = device.HDD
	SServer = device.SSD
)

// Server is one data server: a network node plus a disk with a FIFO queue.
type Server struct {
	ID   int
	Name string
	Dev  *device.Device

	node *netsim.Node
	disk *sim.Resource
	fs   *FS

	// SlowFactor scales every service time on this server; 1 is healthy,
	// factors in (0, 1) model faster-than-nominal devices. Must stay
	// positive — serve panics otherwise. Fault injection drives it via
	// FS.Straggle.
	SlowFactor float64

	// Fault-injection state (see faults.go). down servers drop requests;
	// epoch distinguishes incarnations so in-flight requests from before a
	// crash never reply after recovery; the flaky probabilities inject
	// transient errors and silent drops at completion time.
	down       bool
	epoch      uint64
	flakyErrP  float64
	flakyDropP float64

	// objects holds this server's portion of each file, keyed by file ID.
	// Each object is sparse and stores the file's stripes contiguously,
	// like an OrangeFS datafile.
	objects map[uint64]*device.Store

	// replObjects holds backup copies of other slots' objects for
	// replicated files (repl.go), keyed by (file, slot). Allocated lazily.
	// A replicated write that lands in this server's own datafile counts
	// toward stored exactly like an unreplicated one (applyReplica);
	// backup-object bytes are protocol overhead and are not counted,
	// matching remove(), which refunds only datafile bytes.
	replObjects map[replKey]*device.Store

	stored int64 // bytes resident, for capacity accounting

	// Observability (observe.go). The counters are pre-resolved at
	// Instrument time and nil-safe, so uninstrumented serving pays only
	// nil-pointer method calls. queued/maxQueued track disk queue depth.
	mOps       *obs.Counter
	mServiceNs *obs.Counter
	mWaitNs    *obs.Counter
	queued     int
	maxQueued  int
	sketchID   int // index into fs.sketches; -1 until AttachSketches
}

// Role returns whether this is an HServer or SServer.
func (s *Server) Role() ServerRole { return s.Dev.Kind() }

// Node returns the server's network attachment.
func (s *Server) Node() *netsim.Node { return s.node }

// DiskBusy returns the cumulative disk service time — the per-server I/O
// time reported in the paper's Figure 1(a).
func (s *Server) DiskBusy() sim.Duration { return s.disk.BusyTotal }

// StoredBytes returns the bytes resident on this server.
func (s *Server) StoredBytes() int64 { return s.stored }

func (s *Server) object(fileID uint64) *device.Store {
	obj, ok := s.objects[fileID]
	if !ok {
		obj = device.NewStore()
		s.objects[fileID] = obj
	}
	return obj
}

// serve runs one sub-request through the disk queue and calls fn(arg,
// data, err) when the disk finishes. Data movement against the object
// store happens at completion time. A crashed server swallows the
// request — fn never fires, and clients recover through their deadline
// timers; a flaky server may reply with a transient error, in which
// case a write is NOT committed (so acknowledged bytes are exactly the
// committed bytes).
func (s *Server) serve(op device.Op, fileID uint64, local int64, data []byte, size int64, parent obs.SpanID, fn func(arg any, data []byte, err error), arg any) {
	epoch, ok := s.admit()
	if !ok {
		return
	}
	service := s.scale(s.Dev.ServiceTime(op, local, size, s.fs.engine.Rand()))
	o := s.fs.allocOp()
	o.s, o.op, o.fileID, o.local, o.data, o.size = s, op, fileID, local, data, size
	o.parent, o.submit, o.epoch, o.fn, o.arg = parent, s.fs.engine.Now(), epoch, fn, arg
	s.enqueue()
	s.disk.UseCall(service, diskOpDone, o)
}

// FileMeta is the metadata server's record of one file.
type FileMeta struct {
	ID     uint64
	Name   string
	Layout layout.Mapper
	Size   int64 // logical EOF: max(offset+size) over completed writes

	// Repl is non-nil for replicated files (repl.go): per-slot replica
	// groups, their logs and in-flight write pendings.
	Repl *replState
}

// FS is the assembled file system: engine, network, MDS and data servers.
type FS struct {
	engine  *sim.Engine
	net     *netsim.Network
	mdsNode *netsim.Node

	// Observability hooks (observe.go); all nil until Instrument /
	// SetTierObserver.
	tracer  *obs.Tracer
	metrics *obs.Registry
	tierObs TierObserver
	// sketches is the streaming sketch layer (AttachSketches); nil until
	// attached, and every feed below is nil-safe — sketches are as
	// optional as the tracer.
	sketches *obs.SketchSet

	servers []*Server
	files   map[string]*FileMeta
	nextID  uint64
	health  []Health

	// Free lists of pooled records, so the client data path is
	// allocation-free: disk sub-requests (diskop.go), client sub-request
	// attempts (retry.go) and client operations (clientop.go).
	freeOps         *diskOp
	opsPooled       int
	freeSubs        *subOp
	subsPooled      int
	freeClientOps   *clientOp
	clientOpsPooled int

	// MDSLookups counts metadata RPCs for overhead reports.
	MDSLookups uint64

	// Faults aggregates fault-injection and recovery counters (faults.go).
	Faults FaultStats

	// Repl aggregates the replication protocol's counters (repl.go);
	// replFiles lists the files the crash/recover hooks must drive.
	Repl      ReplStats
	replFiles []*FileMeta

	// ClientPolicy is the default recovery policy handed to NewClient.
	// The zero value disables deadlines, retries and hedging, reproducing
	// the fault-free protocol exactly.
	ClientPolicy Policy
}

// New assembles a file system from per-server device profiles. The
// profiles slice fixes server order: index i becomes server i, so HServers
// should come first to match the paper's numbering.
func New(e *sim.Engine, net *netsim.Network, profiles []device.Profile) (*FS, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("pfs: need at least one data server")
	}
	fs := &FS{
		engine:  e,
		net:     net,
		mdsNode: net.AddNode("mds"),
		files:   make(map[string]*FileMeta),
		nextID:  1,
	}
	for i, prof := range profiles {
		dev, err := device.New(prof)
		if err != nil {
			return nil, fmt.Errorf("pfs: server %d: %w", i, err)
		}
		name := fmt.Sprintf("%s%d", roleLetter(prof.Kind), i)
		fs.servers = append(fs.servers, &Server{
			ID:         i,
			Name:       name,
			Dev:        dev,
			node:       net.AddNode(name),
			disk:       sim.NewResource(e, name+"/disk", 1),
			fs:         fs,
			SlowFactor: 1,
			objects:    make(map[uint64]*device.Store),
			sketchID:   -1,
		})
	}
	fs.health = make([]Health, len(fs.servers))
	return fs, nil
}

func roleLetter(k device.Kind) string {
	if k == device.HDD {
		return "h"
	}
	return "s"
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(e *sim.Engine, net *netsim.Network, profiles []device.Profile) *FS {
	fs, err := New(e, net, profiles)
	if err != nil {
		panic(err)
	}
	return fs
}

// Engine returns the simulation engine the file system runs on.
func (fs *FS) Engine() *sim.Engine { return fs.engine }

// Network returns the interconnect.
func (fs *FS) Network() *netsim.Network { return fs.net }

// Servers returns the data servers in index order.
func (fs *FS) Servers() []*Server { return fs.servers }

// CountRoles returns how many HServers and SServers the system has.
func (fs *FS) CountRoles() (hservers, sservers int) {
	for _, s := range fs.servers {
		if s.Role() == HServer {
			hservers++
		} else {
			sservers++
		}
	}
	return
}

// lookup finds a file's metadata, as the MDS would.
func (fs *FS) lookup(name string) *FileMeta {
	fs.MDSLookups++
	return fs.files[name]
}

// create registers a file with the given layout.
func (fs *FS) create(name string, lo layout.Mapper) (*FileMeta, error) {
	if lo == nil {
		return nil, fmt.Errorf("pfs: nil layout")
	}
	if err := lo.Validate(); err != nil {
		return nil, err
	}
	if lo.Servers() != len(fs.servers) {
		return nil, fmt.Errorf("pfs: layout %v expects %d servers, file system has %d",
			lo, lo.Servers(), len(fs.servers))
	}
	if _, exists := fs.files[name]; exists {
		return nil, fmt.Errorf("pfs: file %q already exists", name)
	}
	meta := &FileMeta{ID: fs.nextID, Name: name, Layout: lo}
	fs.nextID++
	fs.files[name] = meta
	return meta, nil
}

// rename atomically renames a file; the destination must not exist.
func (fs *FS) rename(oldName, newName string) error {
	meta, ok := fs.files[oldName]
	if !ok {
		return fmt.Errorf("pfs: file %q does not exist", oldName)
	}
	if _, exists := fs.files[newName]; exists {
		return fmt.Errorf("pfs: file %q already exists", newName)
	}
	delete(fs.files, oldName)
	meta.Name = newName
	fs.files[newName] = meta
	return nil
}

// FileBytesOn reports how many bytes of the named file reside on the
// given server — the per-file usage the migration policy consults when
// choosing what to move off a full SServer.
func (fs *FS) FileBytesOn(name string, server int) int64 {
	meta, ok := fs.files[name]
	if !ok {
		return 0
	}
	if obj, ok := fs.servers[server].objects[meta.ID]; ok {
		return obj.Bytes()
	}
	return 0
}

// FileNames returns the names of all files, sorted, for policy scans.
func (fs *FS) FileNames() []string {
	names := make([]string, 0, len(fs.files))
	for name := range fs.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Utilization reports a server's stored bytes as a fraction of its
// device capacity. A capacity-less profile reports 0, never NaN.
func (s *Server) Utilization() float64 {
	capacity := s.Dev.Profile().Capacity
	if capacity <= 0 {
		return 0
	}
	return float64(s.stored) / float64(capacity)
}

// DiskUtilization reports the fraction of elapsed virtual time the disk
// spent busy — 0 (not NaN) at virtual time 0, before anything has run.
func (s *Server) DiskUtilization() float64 { return s.disk.Utilization() }

// remove deletes a file and its server objects.
func (fs *FS) remove(name string) error {
	meta, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("pfs: file %q does not exist", name)
	}
	delete(fs.files, name)
	for _, s := range fs.servers {
		if obj, ok := s.objects[meta.ID]; ok {
			s.stored -= obj.Bytes()
			delete(s.objects, meta.ID)
		}
	}
	if meta.Repl != nil {
		for _, s := range fs.servers {
			for slot := range meta.Repl.groups {
				delete(s.replObjects, replKey{file: meta.ID, slot: slot})
			}
		}
		for i, m := range fs.replFiles {
			if m == meta {
				fs.replFiles = append(fs.replFiles[:i], fs.replFiles[i+1:]...)
				break
			}
		}
	}
	return nil
}
