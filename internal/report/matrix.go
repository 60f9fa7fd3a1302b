package report

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/trace"
)

// baselineKey identifies one unprotected-baseline simulation. sim.Options
// is all scalars, so the key is comparable and covers every knob that can
// change the baseline's numbers.
type baselineKey struct {
	workload string
	cores    int
	opt      sim.Options
}

type baselineEntry struct {
	once sync.Once
	res  *sim.Result
	hit  bool
	err  error
}

// baselineCache shares unprotected-baseline results across every matrix
// in the process: each figure normalizes against the same baseline, so a
// full figure sweep (Fig 4, 12, 14, 15, 16, comparators) simulates each
// workload's baseline once instead of once per figure. Entries are
// deterministic, so caching cannot change any normalized number.
var baselineCache sync.Map // baselineKey -> *baselineEntry

// ResetBaselineCache drops every process-wide cached baseline. It
// exists for tests and benchmarks that need to model a fresh process —
// e.g. to prove the persistent cache alone can serve a matrix, or to
// measure a repeated CLI invocation — and has no place in normal use.
func ResetBaselineCache() {
	baselineCache = sync.Map{}
}

// baselineFor returns the unprotected-baseline result for the workload,
// simulating it at most once per (workload, cores, options) even when
// many matrix jobs race for it. The persistent cache, when enabled,
// additionally carries baselines across process invocations. hit
// reports that this call did not simulate: the result came from the
// persistent cache or from an earlier call in this process.
func baselineFor(w trace.Workload, cores int, opt sim.Options, cache *simcache.Cache) (res *sim.Result, hit bool, err error) {
	e, _ := baselineCache.LoadOrStore(baselineKey{workload: w.Name, cores: cores, opt: opt}, &baselineEntry{})
	entry := e.(*baselineEntry)
	hit = true
	entry.once.Do(func() {
		sys := config.Default()
		sys.Core.Cores = cores
		sys.Mitigation = config.Mitigation{}
		entry.res, entry.hit, entry.err = simcache.RunCached(cache, w, sys, opt)
		hit = entry.hit
	})
	return entry.res, hit, entry.err
}

// runMatrix evaluates each workload under a baseline plus the given
// mitigation configurations, returning normalized performance rows in
// workload order. The matrix is expanded by PerfOptions.Plan (shared
// with the sweep coordinator, which distributes the same cells across
// worker processes) and executed here in-process. Every simulation is
// an independent deterministic job (its RNG is re-seeded from the
// options inside sim.Run), so the jobs are spread over a pool of
// opt.Workers goroutines and the rows are identical to a serial run
// regardless of scheduling.
func runMatrix(opt PerfOptions, configs map[string]config.Mitigation) ([]PerfRow, error) {
	opt = opt.withDefaults()
	plan := opt.Plan(configs)
	workloads := plan.Workloads

	// The persistent cache is optional: if the directory cannot be
	// created the matrix simply runs uncached.
	var cache *simcache.Cache
	if opt.CacheDir != "" {
		var err error
		if cache, err = simcache.Open(opt.CacheDir); err != nil {
			cache = nil
			if opt.Progress != nil {
				fmt.Fprintf(opt.Progress, "  cache disabled: %v\n", err)
			}
		}
	}

	stride := plan.stride()
	jobs := plan.Cells

	results := make([]cell, len(jobs))
	run := func(j MatrixCell) cell {
		if j.Label == "" {
			res, hit, err := baselineFor(j.Workload, opt.Cores, plan.Sim, cache)
			if err != nil {
				err = fmt.Errorf("baseline %s: %w", j.Workload.Name, err)
			}
			return cell{res, hit, err}
		}
		res, hit, err := simcache.RunCached(cache, j.Workload, j.System, plan.Sim)
		if err != nil {
			err = fmt.Errorf("%s %s: %w", j.Label, j.Workload.Name, err)
		}
		return cell{res, hit, err}
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	var (
		cursor  atomic.Int64
		failed  atomic.Bool
		progMu  sync.Mutex
		pending = make([]int, len(workloads))
		wg      sync.WaitGroup
	)
	cursor.Store(-1)
	for wi := range pending {
		pending[wi] = stride
	}
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1))
				if i >= len(jobs) || failed.Load() {
					return
				}
				results[i] = run(jobs[i])
				if results[i].err != nil {
					failed.Store(true)
					return
				}
				if opt.Progress == nil {
					continue
				}
				progMu.Lock()
				wi := jobs[i].WorkloadIndex
				pending[wi]--
				if pending[wi] == 0 {
					if rb := results[wi*stride].res; rb != nil {
						fmt.Fprintf(opt.Progress, "  %-14s done (baseline IPC %.3f)\n",
							workloads[wi].Name, rb.MeanIPC)
						writeKernel(opt.Progress, results[wi*stride:(wi+1)*stride])
					}
				}
				progMu.Unlock()
			}
		}()
	}
	wg.Wait()

	if failed.Load() {
		for _, c := range results {
			if c.err != nil {
				return nil, c.err
			}
		}
	}

	flat := make([]*sim.Result, len(results))
	for i := range results {
		flat[i] = results[i].res
	}
	return plan.Rows(flat)
}

// cell is one matrix job's outcome; hit reports that it was not
// simulated in this call (see baselineFor and simcache.RunCached).
type cell struct {
	res *sim.Result
	hit bool
	err error
}

// writeKernel writes one workload's event-kernel instrumentation to a
// progress writer: its runs' total host wall time, simulated
// instructions per wall-second and regime mix. Runs that were not
// simulated here carry their original run's figures, and the line says
// how many there were.
func writeKernel(w io.Writer, runs []cell) {
	var wall float64
	var instr int64
	var mix cpu.RegimeStats
	hits := 0
	for _, r := range runs {
		wall += r.res.WallSeconds
		instr += r.res.Instructions
		mix.Add(r.res.Regimes)
		if r.hit {
			hits++
		}
	}
	origin := ""
	if hits > 0 {
		origin = fmt.Sprintf(" (%d original runs, served from cache)", hits)
	}
	ips := 0.0
	if wall > 0 {
		ips = float64(instr) / wall
	}
	fmt.Fprintf(w, "    %d runs%s: %.3f s wall, %.1fM sim-IPS\n    %s\n",
		len(runs), origin, wall, ips/1e6, mix.Mix())
}
