// Package netsim models the cluster interconnect: every node owns a
// full-duplex link into a non-blocking switch fabric (the Gigabit Ethernet
// of the paper's testbed). A transfer serializes on the sender's transmit
// lane and the receiver's receive lane, and pays a fixed propagation plus
// protocol latency in between. Contention therefore appears exactly where
// it does on real hardware: many clients writing to one file server queue
// on that server's receive lane.
package netsim

import (
	"fmt"

	"harl/internal/obs"
	"harl/internal/sim"
)

// Config holds the link parameters shared by all nodes.
type Config struct {
	// Bandwidth is the per-direction link rate in bytes/second.
	Bandwidth float64
	// Latency is the one-way propagation + protocol-stack delay per message.
	Latency sim.Duration
}

// GigabitEthernet mirrors the paper's interconnect: ~117 MB/s effective
// per direction and ~100 µs one-way latency through the kernel stack.
func GigabitEthernet() Config {
	return Config{Bandwidth: 117 << 20, Latency: 100 * sim.Microsecond}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Bandwidth <= 0 {
		return fmt.Errorf("netsim: bandwidth %v must be positive", c.Bandwidth)
	}
	if c.Latency < 0 {
		return fmt.Errorf("netsim: negative latency %v", c.Latency)
	}
	return nil
}

// Network is the switch fabric plus all attached nodes.
type Network struct {
	engine *sim.Engine
	cfg    Config
	nodes  map[string]*Node
	tracer *obs.Tracer
	// sketches receives per-node transfer latency/size digests; nil
	// until AttachSketches, nil-safe like the tracer.
	sketches *obs.SketchSet

	// Transfers and BytesMoved account all traffic for reports.
	Transfers  uint64
	BytesMoved int64

	// xfers recycles transfer records (xfer.go), so the wire hot path
	// is allocation-free.
	xfers sim.Pool[xfer]
}

// New creates an empty network on the given engine.
func New(e *sim.Engine, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Network{engine: e, cfg: cfg, nodes: make(map[string]*Node), xfers: sim.Pool[xfer]{Cap: xferPoolCap}}, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(e *sim.Engine, cfg Config) *Network {
	n, err := New(e, cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// Config returns the link parameters.
func (n *Network) Config() Config { return n.cfg }

// Instrument attaches a tracer. The tracer only observes — it never
// schedules events — so instrumented and uninstrumented runs execute
// identically.
func (n *Network) Instrument(tr *obs.Tracer) { n.tracer = tr }

// AttachSketches routes transfer completions into the streaming sketch
// layer, keyed by destination node. Passive like the tracer; nil
// detaches. Each node resolves its digest index in the new set at its
// first transfer completion.
func (n *Network) AttachSketches(ss *obs.SketchSet) {
	n.sketches = ss
	for _, nd := range n.nodes {
		nd.sketchID = -1
	}
}

// ScaleBandwidth multiplies every link's per-direction bandwidth — the
// causal profiler's "what if the interconnect were k× faster" knob.
// Apply it before traffic flows: transfers already on the wire keep the
// rate they were admitted at.
func (n *Network) ScaleBandwidth(factor float64) {
	if !(factor > 0) {
		panic(fmt.Sprintf("netsim: bandwidth scale factor %v must be positive", factor))
	}
	n.cfg.Bandwidth *= factor
}

// SyncMetrics mirrors the network's accumulated traffic accounting and
// per-node lane utilizations into the registry. Safe on a nil registry.
func (n *Network) SyncMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("net_transfers_total").Set(int64(n.Transfers))
	reg.Counter("net_bytes_total").Set(n.BytesMoved)
	for name, nd := range n.nodes {
		reg.Gauge("net_tx_utilization", obs.T("node", name)).Set(nd.TxUtilization())
		reg.Gauge("net_rx_utilization", obs.T("node", name)).Set(nd.RxUtilization())
	}
}

// Node is one machine's network attachment: independent transmit and
// receive lanes, each carrying one frame stream at a time.
type Node struct {
	name  string
	track string // tracer track for transfers landing at this node
	tx    *sim.Resource
	rx    *sim.Resource
	// sketchID is the node's index in the network's sketch set; -1 until
	// a transfer lands at it with sketches attached.
	sketchID int
}

// Name returns the node's name.
func (nd *Node) Name() string { return nd.name }

// TxUtilization and RxUtilization report per-lane utilization after a run.
func (nd *Node) TxUtilization() float64 { return nd.tx.Utilization() }

// RxUtilization reports the receive lane's utilization after a run.
func (nd *Node) RxUtilization() float64 { return nd.rx.Utilization() }

// AddNode attaches a new node; names must be unique.
func (n *Network) AddNode(name string) *Node {
	if _, dup := n.nodes[name]; dup {
		panic(fmt.Sprintf("netsim: duplicate node %q", name))
	}
	nd := &Node{
		name:     name,
		track:    "net/" + name,
		tx:       sim.NewResource(n.engine, name+"/tx", 1),
		rx:       sim.NewResource(n.engine, name+"/rx", 1),
		sketchID: -1,
	}
	n.nodes[name] = nd
	return nd
}

// Node returns a previously added node, or nil.
func (n *Network) Node(name string) *Node { return n.nodes[name] }

// Transfer moves size bytes from one node to another and calls done at the
// instant the last byte lands at the receiver. A size of zero models a
// bare control message (latency only). Loopback (from == to) costs only
// latency: local requests never touch the wire.
func (n *Network) Transfer(from, to *Node, size int64, done func(at sim.Time)) {
	n.TransferSpan(0, from, to, size, done)
}

// TransferSpan is Transfer with a parent span: when a tracer is attached,
// the transfer records an "xfer" span on the destination node's track
// covering submission to last-byte arrival, with the transmit-lane queue
// wait as a tag.
func (n *Network) TransferSpan(parent obs.SpanID, from, to *Node, size int64, done func(at sim.Time)) {
	n.TransferCall(parent, from, to, size, callDone, done)
}

// TransferCall is TransferSpan with a closure-free completion: fn(arg,
// at) fires when the last byte lands. With a package-level fn and a
// pooled arg the transfer allocates nothing, which is what the file
// system's per-sub-request hot path runs on. fn may be nil.
func (n *Network) TransferCall(parent obs.SpanID, from, to *Node, size int64, fn func(arg any, at sim.Time), arg any) {
	if from == nil || to == nil {
		panic("netsim: transfer between nil nodes")
	}
	if size < 0 {
		panic(fmt.Sprintf("netsim: negative transfer size %d", size))
	}
	n.Transfers++
	n.BytesMoved += size

	x := n.xfers.Get()
	x.n, x.parent, x.from, x.to, x.size = n, parent, from, to, size
	x.submit, x.fn, x.arg = n.engine.Now(), fn, arg

	if from == to {
		x.loopback = true
		n.engine.ScheduleCall(n.cfg.Latency, xferDone, x)
		return
	}

	wire := sim.BytesDuration(size, n.cfg.Bandwidth)
	// The frame stream is pipelined cut-through: the receiver's lane
	// carries the same bytes one propagation delay behind the sender's,
	// buffering in the switch if the receive lane is momentarily busy.
	// Each lane queues independently — an uncontended transfer completes
	// in wire + latency, and concurrent transfers serialize exactly where
	// they physically share a lane.
	txStart, _ := from.tx.Use(wire, nil)
	x.txStart = txStart
	to.rx.UseCallAt(txStart.Add(n.cfg.Latency), wire, xferDone, x)
}

// RoundTrip sends a control message from a to b and the reply back,
// calling done when the reply arrives — the metadata-server RPC pattern.
func (n *Network) RoundTrip(a, b *Node, request, reply int64, done func(at sim.Time)) {
	n.RoundTripSpan(0, a, b, request, reply, done)
}

// RoundTripSpan is RoundTrip with a parent span for both legs.
func (n *Network) RoundTripSpan(parent obs.SpanID, a, b *Node, request, reply int64, done func(at sim.Time)) {
	n.TransferSpan(parent, a, b, request, func(sim.Time) {
		n.TransferSpan(parent, b, a, reply, done)
	})
}
