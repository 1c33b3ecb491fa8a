package experiments

import (
	"fmt"

	"harl/internal/harl"
	"harl/internal/ior"
	"harl/internal/sim"
)

// Fig1a reproduces the motivation measurement "I/O time of each server
// under a fixed I/O pattern and stripe size": IOR with 512 KB requests
// and 16 processes on the default 64 KB layout; the column is each
// server's accumulated disk I/O time normalized to the fastest server.
// The paper observes HServers at roughly 350% of SServer time.
func Fig1a(o Options) (*Table, error) {
	clusterCfg := o.clusterDefault()
	cfg := o.iorConfig(o.Ranks, 512<<10)

	s := fixed(clusterCfg, harl.StripePair{H: 64 << 10, S: 64 << 10})
	s.name, s.ranks = "ior", cfg.Ranks
	rg, err := o.build(s)
	if err != nil {
		return nil, err
	}
	if _, err := ior.Run(rg.w, rg.f, cfg); err != nil {
		return nil, err
	}

	servers := rg.tb.FS.Servers()
	busy := make([]sim.Duration, len(servers))
	minBusy := sim.Duration(1<<62 - 1)
	for i, s := range servers {
		busy[i] = s.DiskBusy()
		if busy[i] > 0 && busy[i] < minBusy {
			minBusy = busy[i]
		}
	}
	t := &Table{Title: "Fig 1(a): per-server I/O time, 64K fixed stripes (normalized)", Columns: []string{"norm time"}}
	for i, s := range servers {
		t.Add(fmt.Sprintf("server %d (%s)", i+1, s.Role()), float64(busy[i])/float64(minBusy))
	}
	return t, nil
}

// Fig1b reproduces "Throughput with varied I/O patterns and stripe
// sizes": the request-size x stripe-size sweep showing that no fixed
// stripe wins everywhere. Columns are the stripe sizes; rows the request
// sizes; values combined read+write MB/s.
func Fig1b(o Options) (*Table, error) {
	stripes := o.FixedStripes
	cols := make([]string, len(stripes))
	for i, s := range stripes {
		cols[i] = fmt.Sprintf("%dK", s>>10)
	}
	t := &Table{Title: "Fig 1(b): IOR throughput, request size x stripe size (MB/s)", Columns: cols}
	clusterCfg := o.clusterDefault()
	for _, reqSize := range []int64{128 << 10, 512 << 10, 1 << 20, 2 << 20} {
		values := make([]float64, len(stripes))
		for i, stripe := range stripes {
			cfg := o.iorConfig(o.Ranks, reqSize)
			res, err := runOn(o, fixed(clusterCfg, harl.StripePair{H: stripe, S: stripe}), iorWorkload(cfg))
			if err != nil {
				return nil, err
			}
			total := res.ReadBytes + res.WriteBytes
			values[i] = float64(total) / (1 << 20) / (res.ReadTime + res.WriteTime).Seconds()
		}
		t.Add(fmt.Sprintf("req %dK", reqSize>>10), values...)
	}
	return t, nil
}
