package main

// Per-layer microbenchmarks: ns/op and allocs/op for each layer the
// end-to-end workloads cross, through public functions only. Run them
// with
//
//	go test -run '^$' -bench . -benchmem

import (
	"fmt"
	"testing"

	"harl/internal/cluster"
	"harl/internal/harl"
	"harl/internal/ior"
	"harl/internal/layout"
	"harl/internal/mpiio"
	"harl/internal/netsim"
	"harl/internal/pfs"
	"harl/internal/sim"
)

var subsSink []layout.SubRequest

// mapBench maps requests of the given size at offsets that walk the
// layout's round, so every starting server and stripe phase occurs.
func mapBench(b *testing.B, m layout.Mapper, size, round int64) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		subsSink = m.Map(int64(i)*4096%round, size)
	}
}

func BenchmarkStripingMap(b *testing.B) {
	for _, c := range []struct {
		st   layout.Striping
		size int64
	}{
		{layout.Striping{M: 6, N: 2, H: 64 << 10, S: 64 << 10}, 512 << 10},     // the paper's 6H+2S, IOR's 512 KB
		{layout.Striping{M: 768, N: 256, H: 64 << 10, S: 64 << 10}, 256 << 10}, // scale_huge
	} {
		b.Run(fmt.Sprintf("servers=%d", c.st.Servers()), func(b *testing.B) {
			mapBench(b, c.st, c.size, c.st.RoundSize())
		})
		b.Run(fmt.Sprintf("tiered/servers=%d", c.st.Servers()), func(b *testing.B) {
			mapBench(b, layout.TieredOf(c.st), c.size, c.st.RoundSize())
		})
	}
}

// BenchmarkEngineChurn keeps 1024 events pending, each rescheduling
// itself at a pseudo-random delay until b.N events have fired.
func BenchmarkEngineChurn(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine(1)
	fired := 0
	var tick func()
	tick = func() {
		if fired++; fired < b.N {
			e.Schedule(sim.Duration(1+fired*7919%1000)*sim.Microsecond, tick)
		}
	}
	for i := 0; i < min(b.N, 1024); i++ {
		e.Schedule(sim.Duration(i)*sim.Microsecond, tick)
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkNetsimTransfer sends 64 KB messages between two nodes, one in
// flight at a time.
func BenchmarkNetsimTransfer(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine(1)
	net := netsim.MustNew(e, netsim.GigabitEthernet())
	from, to := net.AddNode("a"), net.AddNode("b")
	sent := 0
	var send func(sim.Time)
	send = func(sim.Time) {
		if sent++; sent <= b.N {
			net.Transfer(from, to, 64<<10, send)
		}
	}
	b.ResetTimer()
	send(0)
	e.Run()
}

// newFS builds the paper's default testbed.
func newFS(b *testing.B) *cluster.Testbed {
	b.Helper()
	tb, err := cluster.New(cluster.Default())
	if err != nil {
		b.Fatal(err)
	}
	return tb
}

// BenchmarkPFSWriteZeros issues sequential 512 KB phantom writes on a
// fixed 64 KB layout, one in flight at a time.
func BenchmarkPFSWriteZeros(b *testing.B) {
	b.ReportAllocs()
	tb := newFS(b)
	const size = 512 << 10
	var f *pfs.File
	tb.FS.NewClient("c").Create("f", layout.Fixed(6, 2, 64<<10), func(h *pfs.File, err error) {
		if err != nil {
			b.Fatal(err)
		}
		f = h
	})
	tb.Engine.Run()
	n := 0
	var write func(error)
	write = func(err error) {
		if err != nil {
			b.Fatal(err)
		}
		if n++; n <= b.N {
			f.WriteZeros(int64(n)*size, size, write)
		}
	}
	b.ResetTimer()
	write(nil)
	tb.Engine.Run()
}

// BenchmarkReplicatedWriteAt writes 256 KB payloads to an r=2 HARL file,
// one in flight at a time, cycling over a 64 MB extent.
func BenchmarkReplicatedWriteAt(b *testing.B) {
	b.ReportAllocs()
	tb := newFS(b)
	const size, extent = 256 << 10, 64 << 20
	rst := harl.RST{Entries: []harl.RSTEntry{{Offset: 0, End: extent, H: 64 << 10, S: 64 << 10, R: 2}}}
	w := mpiio.NewWorld(tb.FS, 1, 1)
	var f *mpiio.HARLFile
	var err error
	w.Run(func() { w.CreateHARL("f", &rst, func(h *mpiio.HARLFile, e error) { f, err = h, e }) })
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, size)
	n := 0
	var write func(error)
	write = func(err error) {
		if err != nil {
			b.Fatal(err)
		}
		if n++; n <= b.N {
			f.WriteAt(0, int64(n)*size%extent, data, write)
		}
	}
	b.ResetTimer()
	write(nil)
	tb.Engine.Run()
}

// BenchmarkAnalyzeFourRegion plans Fig. 11's four-region IOR trace.
func BenchmarkAnalyzeFourRegion(b *testing.B) {
	b.ReportAllocs()
	params, err := newFS(b).Calibrate(probes)
	if err != nil {
		b.Fatal(err)
	}
	tr := ior.DefaultMulti().Trace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (harl.Planner{Params: params, ChunkSize: chunkSize}).Analyze(tr); err != nil {
			b.Fatal(err)
		}
	}
}
