package netsim

import (
	"testing"
	"testing/quick"

	"harl/internal/sim"
)

// cfg100 gives round numbers: 100 MiB/s, 1 ms latency.
func cfg100() Config {
	return Config{Bandwidth: 100 << 20, Latency: sim.Millisecond}
}

func TestConfigValidate(t *testing.T) {
	if err := GigabitEthernet().Validate(); err != nil {
		t.Fatalf("GigabitEthernet invalid: %v", err)
	}
	if err := (Config{Bandwidth: 0, Latency: 0}).Validate(); err == nil {
		t.Fatal("zero bandwidth should be rejected")
	}
	if err := (Config{Bandwidth: 1, Latency: -1}).Validate(); err == nil {
		t.Fatal("negative latency should be rejected")
	}
	if _, err := New(sim.NewEngine(1), Config{}); err == nil {
		t.Fatal("New should propagate validation errors")
	}
}

func TestSingleTransferSeesFullBandwidth(t *testing.T) {
	e := sim.NewEngine(1)
	n := MustNew(e, cfg100())
	a, b := n.AddNode("a"), n.AddNode("b")
	var done sim.Time
	e.Schedule(0, func() {
		n.Transfer(a, b, 100<<20, func(at sim.Time) { done = at })
	})
	e.Run()
	// 100 MiB at 100 MiB/s + 1 ms latency.
	want := sim.Time(sim.Second + sim.Millisecond)
	if done != want {
		t.Fatalf("done = %v, want %v", done, want)
	}
}

func TestControlMessageCostsLatencyOnly(t *testing.T) {
	e := sim.NewEngine(1)
	n := MustNew(e, cfg100())
	a, b := n.AddNode("a"), n.AddNode("b")
	var done sim.Time
	e.Schedule(0, func() {
		n.Transfer(a, b, 0, func(at sim.Time) { done = at })
	})
	e.Run()
	if done != sim.Time(sim.Millisecond) {
		t.Fatalf("done = %v, want 1ms", done)
	}
}

func TestLoopbackSkipsWire(t *testing.T) {
	e := sim.NewEngine(1)
	n := MustNew(e, cfg100())
	a := n.AddNode("a")
	var done sim.Time
	e.Schedule(0, func() {
		n.Transfer(a, a, 1<<30, func(at sim.Time) { done = at })
	})
	e.Run()
	if done != sim.Time(sim.Millisecond) {
		t.Fatalf("loopback done = %v, want latency only", done)
	}
	if a.tx.Served != 0 {
		t.Fatal("loopback should not occupy the tx lane")
	}
}

func TestSendersContendOnReceiverLane(t *testing.T) {
	e := sim.NewEngine(1)
	n := MustNew(e, cfg100())
	server := n.AddNode("server")
	c1, c2 := n.AddNode("c1"), n.AddNode("c2")
	var ends []sim.Time
	e.Schedule(0, func() {
		n.Transfer(c1, server, 100<<20, func(at sim.Time) { ends = append(ends, at) })
		n.Transfer(c2, server, 100<<20, func(at sim.Time) { ends = append(ends, at) })
	})
	e.Run()
	if len(ends) != 2 {
		t.Fatalf("transfers completed: %d", len(ends))
	}
	// Both want the server's rx lane: first lands at 1s+1ms, second
	// serializes behind it and lands at 2s+1ms.
	if ends[0] != sim.Time(sim.Second+sim.Millisecond) {
		t.Fatalf("first = %v", ends[0])
	}
	if ends[1] != sim.Time(2*sim.Second+sim.Millisecond) {
		t.Fatalf("second = %v, want serialized behind first", ends[1])
	}
}

func TestDisjointPairsDoNotContend(t *testing.T) {
	e := sim.NewEngine(1)
	n := MustNew(e, cfg100())
	a, b := n.AddNode("a"), n.AddNode("b")
	c, d := n.AddNode("c"), n.AddNode("d")
	var ends []sim.Time
	e.Schedule(0, func() {
		n.Transfer(a, b, 100<<20, func(at sim.Time) { ends = append(ends, at) })
		n.Transfer(c, d, 100<<20, func(at sim.Time) { ends = append(ends, at) })
	})
	e.Run()
	want := sim.Time(sim.Second + sim.Millisecond)
	if ends[0] != want || ends[1] != want {
		t.Fatalf("ends = %v, want both %v (non-blocking fabric)", ends, want)
	}
}

func TestFullDuplex(t *testing.T) {
	e := sim.NewEngine(1)
	n := MustNew(e, cfg100())
	a, b := n.AddNode("a"), n.AddNode("b")
	var ends []sim.Time
	e.Schedule(0, func() {
		n.Transfer(a, b, 100<<20, func(at sim.Time) { ends = append(ends, at) })
		n.Transfer(b, a, 100<<20, func(at sim.Time) { ends = append(ends, at) })
	})
	e.Run()
	want := sim.Time(sim.Second + sim.Millisecond)
	if ends[0] != want || ends[1] != want {
		t.Fatalf("ends = %v, want both %v (full duplex)", ends, want)
	}
}

func TestRoundTrip(t *testing.T) {
	e := sim.NewEngine(1)
	n := MustNew(e, cfg100())
	a, b := n.AddNode("a"), n.AddNode("b")
	var done sim.Time
	e.Schedule(0, func() {
		n.RoundTrip(a, b, 0, 0, func(at sim.Time) { done = at })
	})
	e.Run()
	if done != sim.Time(2*sim.Millisecond) {
		t.Fatalf("round trip = %v, want 2ms", done)
	}
}

func TestAccountingAndLookup(t *testing.T) {
	e := sim.NewEngine(1)
	n := MustNew(e, cfg100())
	a, b := n.AddNode("a"), n.AddNode("b")
	e.Schedule(0, func() {
		n.Transfer(a, b, 1000, nil)
		n.Transfer(b, a, 500, nil)
	})
	e.Run()
	if n.Transfers != 2 || n.BytesMoved != 1500 {
		t.Fatalf("accounting = %d/%d", n.Transfers, n.BytesMoved)
	}
	if n.Node("a") != a || n.Node("zzz") != nil {
		t.Fatal("Node lookup broken")
	}
	if a.Name() != "a" {
		t.Fatalf("name = %q", a.Name())
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	e := sim.NewEngine(1)
	n := MustNew(e, cfg100())
	n.AddNode("a")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate node should panic")
		}
	}()
	n.AddNode("a")
}

func TestNegativeSizePanics(t *testing.T) {
	e := sim.NewEngine(1)
	n := MustNew(e, cfg100())
	a, b := n.AddNode("a"), n.AddNode("b")
	defer func() {
		if recover() == nil {
			t.Fatal("negative size should panic")
		}
	}()
	n.Transfer(a, b, -1, nil)
}

// Property: k equal-size transfers into one receiver complete no earlier
// than the bandwidth bound k*size/B and keep their issue order.
func TestReceiverBandwidthConservationProperty(t *testing.T) {
	prop := func(k8 uint8, sz32 uint32) bool {
		k := int(k8%6) + 1
		size := int64(sz32%(4<<20)) + 1
		e := sim.NewEngine(1)
		n := MustNew(e, cfg100())
		server := n.AddNode("server")
		var ends []sim.Time
		e.Schedule(0, func() {
			for i := 0; i < k; i++ {
				src := n.AddNode(string(rune('a' + i)))
				n.Transfer(src, server, size, func(at sim.Time) { ends = append(ends, at) })
			}
		})
		e.Run()
		if len(ends) != k {
			return false
		}
		bound := sim.Time(sim.BytesDuration(int64(k)*size, 100<<20))
		last := ends[len(ends)-1]
		if last < bound {
			return false
		}
		for i := 1; i < len(ends); i++ {
			if ends[i] < ends[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// relay sends the next 64 KB message each time the previous one lands,
// until count messages have gone: the closure-free completion shape.
type relay struct {
	n        *Network
	from, to *Node
	count    int
}

func relayNext(arg any, _ sim.Time) {
	r := arg.(*relay)
	if r.count > 0 {
		r.count--
		r.n.TransferCall(0, r.from, r.to, 64<<10, relayNext, r)
	}
}

// TestTransferCallAllocatesNothing pins the pooled wire path: once the
// transfer and event pools are warm, a TransferCall and its completion
// allocate nothing.
func TestTransferCallAllocatesNothing(t *testing.T) {
	e := sim.NewEngine(1)
	n := MustNew(e, cfg100())
	r := &relay{n: n, from: n.AddNode("a"), to: n.AddNode("b")}
	allocs := testing.AllocsPerRun(100, func() {
		r.count = 8
		relayNext(r, 0)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per 8 transfers, want 0", allocs)
	}
}

// BenchmarkTransfer sends 64 KB messages between two nodes, one in flight
// at a time, through the closure-free completion.
func BenchmarkTransfer(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine(1)
	n := MustNew(e, GigabitEthernet())
	r := &relay{n: n, from: n.AddNode("a"), to: n.AddNode("b"), count: b.N}
	relayNext(r, 0)
	e.Run()
}
