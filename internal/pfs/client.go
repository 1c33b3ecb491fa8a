package pfs

import (
	"fmt"

	"harl/internal/device"
	"harl/internal/layout"
	"harl/internal/netsim"
	"harl/internal/obs"
	"harl/internal/sim"
)

// metaRPCBytes approximates the wire size of a metadata request or reply.
const metaRPCBytes = 256

// Client is one compute node's view of the file system. Clients resolve
// metadata through the MDS, cache it in File handles, and then exchange
// data directly with the data servers — the standard PFS access protocol
// described in Section III-F.
type Client struct {
	fs   *FS
	name string
	node *netsim.Node

	// Policy governs deadlines, retries and hedged reads for every
	// operation issued through this client (see retry.go). It defaults to
	// the file system's ClientPolicy; the zero value reproduces the
	// fault-free protocol exactly.
	Policy Policy
}

// File is a client-side handle: cached metadata for a file.
type File struct {
	client *Client
	meta   *FileMeta

	// spanTags are appended to every pfs.read/pfs.write span this handle
	// opens (SetSpanTags); mpiio stamps region handles with their RST
	// region so trace analysis can attribute time by region.
	spanTags []obs.Tag

	// region is the layout region this handle serves (SetRegion), fed to
	// the sketch layer's skew heatmap; -1 means unattributed.
	region int
}

// SetSpanTags attaches extra tags to every client-operation span this
// handle opens. The tags ride only on the trace — untraced runs are
// untouched, so instrumentation stays differentially invisible.
func (f *File) SetSpanTags(tags ...obs.Tag) { f.spanTags = tags }

// SetRegion attributes this handle's traffic to a layout region for the
// sketch layer's region × server heatmap. Like SetSpanTags, purely
// observational; handles without a region stay at -1 and are skipped.
func (f *File) SetRegion(i int) { f.region = i }

// Region returns the attributed region (-1 when unattributed).
func (f *File) Region() int { return f.region }

// Meta returns a copy of the cached metadata.
func (f *File) Meta() FileMeta { return *f.meta }

// Engine returns the simulation engine the file's operations run on.
func (f *File) Engine() *sim.Engine { return f.client.fs.engine }

// Tracer returns the file system's tracer (nil when uninstrumented) so
// higher layers (mpiio) can open spans that parent this file's I/O.
func (f *File) Tracer() *obs.Tracer { return f.client.fs.tracer }

// ClientName returns the owning client's name — the tracer track client
// operations record on.
func (f *File) ClientName() string { return f.client.name }

// Size returns the file's logical EOF at the time of the call.
func (f *File) Size() int64 { return f.meta.Size }

// NewClient attaches a new client node to the file system's network.
func (fs *FS) NewClient(name string) *Client {
	return &Client{fs: fs, name: name, node: fs.net.AddNode(name), Policy: fs.ClientPolicy}
}

// AdoptClient builds a client that shares an existing network node — used
// when several simulated processes run on one compute node, as in the
// paper's 16-processes-on-8-nodes IOR runs. The new client inherits the
// shared client's recovery policy.
func (fs *FS) AdoptClient(name string, shared *Client) *Client {
	return &Client{fs: fs, name: name, node: shared.node, Policy: shared.Policy}
}

// Name returns the client's name.
func (c *Client) Name() string { return c.name }

// Node returns the client's network attachment (shared between clients
// created with AdoptClient).
func (c *Client) Node() *netsim.Node { return c.node }

// Create registers a file with the given striping via an MDS round trip
// and returns an open handle. Under a FailFast policy the MDS refuses
// layouts that store data on a Down server (the file is not created);
// otherwise the handle may be degraded — see (*File).Degraded.
func (c *Client) Create(name string, lo layout.Mapper, done func(*File, error)) {
	span := c.beginMDS("create", name)
	c.fs.net.RoundTripSpan(span, c.node, c.fs.mdsNode, metaRPCBytes, metaRPCBytes, func(sim.Time) {
		if c.Policy.FailFast && lo != nil && lo.Validate() == nil {
			if down := c.fs.downServersIn(lo); len(down) > 0 {
				c.fs.Faults.FailFasts++
				err := &DegradedError{Name: name, Servers: down}
				c.endMDS(span, err)
				done(nil, err)
				return
			}
		}
		meta, err := c.fs.create(name, lo)
		c.endMDS(span, err)
		if err != nil {
			done(nil, err)
			return
		}
		done(&File{client: c, meta: meta, region: -1}, nil)
	})
}

// Open resolves an existing file's metadata via an MDS round trip. Under
// a FailFast policy it refuses files whose layout stores data on a Down
// server, returning *DegradedError.
func (c *Client) Open(name string, done func(*File, error)) {
	span := c.beginMDS("open", name)
	c.fs.net.RoundTripSpan(span, c.node, c.fs.mdsNode, metaRPCBytes, metaRPCBytes, func(sim.Time) {
		meta := c.fs.lookup(name)
		if meta == nil {
			err := fmt.Errorf("pfs: file %q does not exist", name)
			c.endMDS(span, err)
			done(nil, err)
			return
		}
		if c.Policy.FailFast {
			if down := c.fs.downServersIn(meta.Layout); len(down) > 0 {
				c.fs.Faults.FailFasts++
				err := &DegradedError{Name: name, Servers: down}
				c.endMDS(span, err)
				done(nil, err)
				return
			}
		}
		c.endMDS(span, nil)
		done(&File{client: c, meta: meta, region: -1}, nil)
	})
}

// Degraded lists the Down servers this file's layout stores data on — an
// empty slice means every byte of the file is currently reachable.
func (f *File) Degraded() []int {
	return f.client.fs.downServersIn(f.meta.Layout)
}

// Remove deletes a file via the MDS.
func (c *Client) Remove(name string, done func(error)) {
	span := c.beginMDS("remove", name)
	c.fs.net.RoundTripSpan(span, c.node, c.fs.mdsNode, metaRPCBytes, metaRPCBytes, func(sim.Time) {
		err := c.fs.remove(name)
		c.endMDS(span, err)
		done(err)
	})
}

// Rename renames a file via the MDS; the destination must not exist.
func (c *Client) Rename(oldName, newName string, done func(error)) {
	span := c.beginMDS("rename", oldName)
	c.fs.net.RoundTripSpan(span, c.node, c.fs.mdsNode, metaRPCBytes, metaRPCBytes, func(sim.Time) {
		err := c.fs.rename(oldName, newName)
		c.endMDS(span, err)
		done(err)
	})
}

// beginMDS opens a span for one metadata RPC; 0 when tracing is off.
func (c *Client) beginMDS(op, file string) obs.SpanID {
	tr := c.fs.tracer
	if tr == nil {
		return 0
	}
	return tr.Begin(c.name, "mds."+op, 0, obs.T("file", file))
}

// endMDS closes a metadata span with its status.
func (c *Client) endMDS(id obs.SpanID, err error) {
	if tr := c.fs.tracer; tr != nil {
		tr.End(id, obs.T("status", errStatus(err)))
	}
}

// errStatus renders an error as a span status tag.
func errStatus(err error) string {
	if err != nil {
		return "error"
	}
	return "ok"
}

// WriteAt stores data at the logical offset, striping it across the data
// servers; done fires when every server has acknowledged its sub-request,
// or with the first fatal error once every sub-request has settled. The
// EOF advances only on full success, so an acknowledged write is exactly
// a committed write.
func (f *File) WriteAt(data []byte, off int64, done func(error)) {
	f.WriteAtSpan(0, data, off, done)
}

// WriteAtSpan is WriteAt under a parent span: the operation and all its
// sub-requests record as children when tracing is on.
func (f *File) WriteAtSpan(parent obs.SpanID, data []byte, off int64, done func(error)) {
	size := int64(len(data))
	if size == 0 {
		f.client.fs.engine.Schedule(0, func() { done(nil) })
		return
	}
	c := f.startOp(device.Write, false, parent, off, size)
	c.done = done
	// Copy the client buffer into one payload per sub-request, each in
	// its server's local order, by walking the stripe fragments Map
	// walked.
	c.useBufs()
	for i, sub := range c.subs {
		c.bufs[i] = make([]byte, sub.Size)
	}
	layout.Fragments(f.meta.Layout, c.subs, off, size, func(i int, at, pos, n int64) {
		copy(c.bufs[i][at:at+n], data[pos-off:])
	})
	c.launch()
}

// ReadAt fetches size bytes at the logical offset; done receives the
// reassembled buffer once the last server replies, or the first fatal
// error once every sub-request has settled.
func (f *File) ReadAt(off, size int64, done func([]byte, error)) {
	f.ReadAtSpan(0, off, size, done)
}

// ReadAtSpan is ReadAt under a parent span: it allocates the buffer and
// reads into it.
func (f *File) ReadAtSpan(parent obs.SpanID, off, size int64, done func([]byte, error)) {
	if size == 0 {
		f.client.fs.engine.Schedule(0, func() { done(nil, nil) })
		return
	}
	f.read(parent, make([]byte, size), off, nil, done)
}

// ReadIntoSpan fills dst from the logical offset under a parent span;
// done fires once the last server replies, or with the first fatal error
// once every sub-request has settled. The replies are reassembled
// straight into dst, which the caller must not touch until done. On an
// error dst holds unspecified bytes.
func (f *File) ReadIntoSpan(parent obs.SpanID, dst []byte, off int64, done func(error)) {
	if len(dst) == 0 {
		f.client.fs.engine.Schedule(0, func() { done(nil) })
		return
	}
	f.read(parent, dst, off, done, nil)
}

// read issues a payload read into dst; exactly one of done and rdone is
// set, and names the continuation's shape.
func (f *File) read(parent obs.SpanID, dst []byte, off int64, done func(error), rdone func([]byte, error)) {
	c := f.startOp(device.Read, false, parent, off, int64(len(dst)))
	c.done, c.rdone, c.out = done, rdone, dst
	c.useBufs()
	c.launch()
}
