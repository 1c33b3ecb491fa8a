package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallel runs n independent jobs on a bounded worker pool and returns
// the lowest-index error. Jobs must not share mutable state — each
// experiment cell owns its engine and rng — so the only coordination is
// the work counter, and results land in caller-owned slots indexed by
// job number. workers <= 0 means GOMAXPROCS; workers == 1 degenerates
// to a plain serial loop on the calling goroutine.
func Parallel(workers, n int, job func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = job(i)
			}
		}()
	}
	wg.Wait()
	// Lowest-index error is canonical, so the reported failure does not
	// depend on worker count or completion order.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Figure is one named evaluation figure: an independent simulation
// world that renders to a text table.
type Figure struct {
	Name string
	Run  func(Options) (*Table, error)
}

// Figures returns the full figure registry in canonical order — the
// single source of truth harlctl fig and the fan-out tests consume.
func Figures() []Figure {
	return []Figure{
		{"1a", Fig1a},
		{"1b", Fig1b},
		{"7", Fig7},
		{"8", Fig8},
		{"9", Fig9},
		{"10", Fig10},
		{"11", Fig11},
		{"12", Fig12},
		{"ablation-division", AblationRegionDivision},
		{"ablation-model", AblationCostModel},
		{"ablation-threshold", AblationThreshold},
		{"threetier", ThreeTier},
		{"baselines", BaselineComparison},
		{"chaos", FigChaos},
		{"hedge", FigHedge},
		{"repl", FigRepl},
		{"breakdown", FigTraceBreakdown},
		{"drift", FigDrift},
		{"critpath", FigCritPath},
		{"scalehuge", FigScaleHuge},
		{"slo", FigSLO},
		{"doctor", FigDoctor},
	}
}

// FigureByName looks a figure up in the registry.
func FigureByName(name string) (Figure, bool) {
	for _, f := range Figures() {
		if f.Name == name {
			return f, true
		}
	}
	return Figure{}, false
}

// RunParallel regenerates the given figures, fanning the independent
// simulation worlds out over a bounded worker pool, and returns their
// tables in input order. Every figure runs in its own engine+rng, so
// the rendered tables are byte-identical to a serial run at any worker
// count — the differential tests enforce exactly that.
func RunParallel(o Options, figs []Figure, workers int) ([]*Table, error) {
	tables := make([]*Table, len(figs))
	err := Parallel(workers, len(figs), func(i int) error {
		t, err := figs[i].Run(o)
		if err != nil {
			return fmt.Errorf("figure %s: %w", figs[i].Name, err)
		}
		tables[i] = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tables, nil
}
