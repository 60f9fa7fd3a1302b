package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/attack"
	"repro/internal/objstore"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/sweep"
)

// A sample is one fresh process that reproduces the manifest of one
// workload once: set-up, the timed pipeline, then untimed read-back and
// correctness checks. The trace stream cache, the report baseline cache
// and the host calibration are process-wide, so a fresh process per
// sample is what a CLI user pays on every invocation.

// sampleOut is what a sample prints as the last line of its stdout.
type sampleOut struct {
	// DispatchUnixNano is the wall-clock time the first job was
	// dispatched; the parent subtracts its spawn time and PrepS from it
	// to get setup_s.
	DispatchUnixNano int64   `json:"dispatch_unix_nano"`
	PrepS            float64 `json:"prep_s"`
	ReproduceS       float64 `json:"reproduce_s"`
	ReproduceCPUS    float64 `json:"reproduce_cpu_s"`
	PeakRSSMB        float64 `json:"peak_rss_mb"`
	// SimInstructions and SimWallSeconds sum the sim.Results read back
	// from the store after the timed interval.
	SimInstructions int64   `json:"sim_instructions"`
	SimWallSeconds  float64 `json:"sim_wall_seconds"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Digest    string   `json:"digest"`

	GOMAXPROCS  int            `json:"gomaxprocs"`
	Workers     int            `json:"workers"`
	GoVersion   string         `json:"go_version"`
	Fingerprint string         `json:"fingerprint"`
	Jobs        map[string]int `json:"jobs"`

	// Layer holds the per-layer metrics of a traced sample; Mitigations
	// and ACTs split the executed simulations' mitigation calls and
	// tracked activations by kind, for the parent's per-layer estimates.
	Layer       map[string]float64 `json:"layer,omitempty"`
	Mitigations map[string]float64 `json:"mitigations,omitempty"`
	ACTs        map[string]float64 `json:"acts,omitempty"`
}

func (o *sampleOut) fail(format string, args ...any) {
	o.Failed++
	o.Errors = append(o.Errors, fmt.Sprintf(format, args...))
}

// Workload sizes. paper-cold and paper-warm share one manifest: every
// performance and security figure over report.QuickWorkloads on the
// paper's 8 cores. The simulation budget and the Monte-Carlo trial count
// are sized so each job kind takes a third to two thirds of the execute
// CPU and one reproduction fits several times into a run (see
// README.md). service-steal uses a tiny budget so per-job compute is
// comparable to a claim→put→complete round trip.
type manifestSize struct {
	instructions    int64
	mcTrials, batch int
}

var (
	paperSize   = manifestSize{instructions: 50_000, mcTrials: 125, batch: 32}
	serviceSize = manifestSize{instructions: 2_000, mcTrials: 4, batch: 1}
)

const paperCores = 8

// seeds derives the simulation seed and the Monte-Carlo root seed from
// the benchmark seed. The simulation seed must be nonzero (zero selects
// the system default).
func seeds(seed int64) (simSeed, mcSeed uint64) {
	mix := func(x uint64) uint64 {
		x += 0x9e3779b97f4a7c15
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		return x ^ x>>31
	}
	return mix(uint64(seed)) | 1, mix(uint64(seed) ^ 0x5eed)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

func sampleMain(args []string) int {
	fs := flag.NewFlagSet("sample", flag.ContinueOnError)
	workload := fs.String("workload", "", "paper-cold, paper-warm or service-steal")
	seed := fs.Int64("seed", 1, "benchmark seed")
	dir := fs.String("dir", "", "fresh directory this sample owns")
	template := fs.String("template", "", "populated store copied into -dir before set-up (paper-warm)")
	workers := fs.Int("workers", runtime.NumCPU(), "job workers / claim goroutines")
	traced := fs.Bool("traced", false, "record spans and per-layer counters")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	out, err := runSample(*workload, *seed, *dir, *template, *workers, *traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench sample %s: %v\n", *workload, err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench sample: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runSample returns an error only when the sample could not produce a
// measurement at all; failed jobs and checks are counted in the output.
func runSample(workload string, seed int64, dir, template string, workers int, traced bool) (*sampleOut, error) {
	if dir == "" {
		return nil, errors.New("missing -dir")
	}
	out := &sampleOut{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		GoVersion:  runtime.Version(),
		Jobs:       map[string]int{},
	}
	prep := time.Now()
	if template != "" {
		if err := copyTree(template, dir); err != nil {
			return nil, fmt.Errorf("copy template store: %w", err)
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	out.PrepS = since(prep)

	var tr *tracer
	if traced {
		tr = newTracer()
		out.Layer = map[string]float64{}
	}
	size := paperSize
	if workload == wlSteal {
		size = serviceSize
	}
	m, err := plan(size, seed, out, tr)
	if err != nil {
		return nil, err
	}
	for _, j := range m.Jobs {
		out.Jobs[jobKind(j)]++
	}
	switch workload {
	case wlCold, wlWarm:
		err = runLocal(m, filepath.Join(dir, "store"), workers, workload == wlWarm, out, tr)
	case wlSteal:
		err = runService(m, dir, workers, out, tr)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	return out, err
}

func jobKind(j sweep.Job) string {
	if j.Kind == "" {
		return sweep.JobKindSim
	}
	return j.Kind
}

// plan is the set-up every workload shares: the binary fingerprint,
// the whole-paper manifest and its validation.
func plan(size manifestSize, seed int64, out *sampleOut, tr *tracer) (*sweep.Manifest, error) {
	simSeed, mcSeed := seeds(seed)
	opt := report.PerfOptions{
		Workloads: report.QuickWorkloads,
		Cores:     paperCores,
		Sim:       sim.Options{Instructions: size.instructions, Seed: simSeed},
	}
	figIDs := append(report.PerfFigureIDs(), report.SecurityFigureIDs()...)

	t := time.Now()
	out.Fingerprint = simcache.CodeVersion()
	layer(out, tr, "simcache.code_version_s", since(t))
	if tr != nil {
		// The report planners are timed on their own: sweep.PlanEvaluation
		// calls both, and its own time is sweep.plan_s.
		figs := make([]report.PerfFigure, 0)
		for _, id := range report.PerfFigureIDs() {
			f, _ := report.PerfFigureByID(id)
			figs = append(figs, f)
		}
		t = time.Now()
		opt.PlanEvaluation(figs)
		layer(out, tr, "report.plan_perf_s", since(t))
		t = time.Now()
		if _, err := report.PlanSecurity(report.SecurityFigureIDs()); err != nil {
			return nil, err
		}
		layer(out, tr, "report.plan_security_s", since(t))
	}
	t = time.Now()
	m, err := sweep.PlanEvaluation(figIDs, opt, sweep.PlanOptions{
		Shards:   1,
		Strategy: sweep.StrategyRoundRobin,
		MCTrials: size.mcTrials,
		MCBatch:  size.batch,
		MCSeed:   mcSeed,
	})
	if err != nil {
		return nil, err
	}
	layer(out, tr, "sweep.plan_s", since(t))
	t = time.Now()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	layer(out, tr, "sweep.validate_s", since(t))
	return m, nil
}

func layer(out *sampleOut, tr *tracer, name string, v float64) {
	if tr != nil {
		out.Layer[name] = v
	}
}

// runLocal is paper-cold and paper-warm: RunShard with every job on
// one shard, Merge over the same directory with packing as the CLI
// does, and Render. Traced samples run a stand-in of the same calls
// (see tracedLocal).
func runLocal(m *sweep.Manifest, store string, workers int, warm bool, out *sampleOut, tr *tracer) error {
	var res *sweep.Results
	var hits, attempted int
	var jobErr error
	var executed []bool
	cpu0 := cpuSeconds()
	t0 := time.Now()
	out.DispatchUnixNano = t0.UnixNano()
	if tr == nil {
		var st sweep.ShardStats
		st, jobErr = m.RunShard(0, store, workers, nil)
		hits, attempted = st.Hits, st.Jobs
		if jobErr == nil {
			res, jobErr = m.Merge(store, nil, true, nil)
		}
		if jobErr == nil {
			jobErr = res.Render(io.Discard)
		}
	} else {
		res, executed, jobErr = tracedLocal(m, store, workers, tr)
		attempted = len(m.Jobs)
		for _, x := range executed {
			if !x {
				hits++
			}
		}
	}
	out.ReproduceS = since(t0)
	out.ReproduceCPUS = cpuSeconds() - cpu0
	out.PeakRSSMB = peakRSSMB()
	out.Attempted += attempted
	if jobErr != nil {
		out.fail("pipeline: %v", jobErr)
		return nil
	}
	if warm && hits != len(m.Jobs) {
		out.fail("paper-warm: %d of %d jobs were store hits, want all", hits, len(m.Jobs))
	}
	if !warm && hits != 0 {
		out.fail("paper-cold: %d jobs were store hits in a fresh store", hits)
	}
	digest(out, res)
	cache, err := simcache.Open(store)
	if err != nil {
		return err
	}
	if executed == nil {
		executed = make([]bool, len(m.Jobs))
		for i := range executed {
			executed[i] = !warm
		}
	}
	readBack(m, cache, executed, out, tr)
	return nil
}

// tracedLocal mirrors RunShard → Merge(pack) → Render call for call
// through public functions, with spans around each layer and a
// tracedStore between the jobs and folds and the cache. It returns
// which jobs executed (store misses).
func tracedLocal(m *sweep.Manifest, store string, workers int, tr *tracer) (*sweep.Results, []bool, error) {
	root := tr.begin("reproduce", -1)
	defer tr.end(root)

	// RunShard: re-derive and check the plan, open the store, run the
	// job pool.
	id := tr.begin("sweep.validate", root)
	p, err := derive(m)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.begin("simcache.open", root)
	cache, err := simcache.Open(store)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	executed := make([]bool, len(m.Jobs))
	pool := tr.begin("sweep.pool", root)
	err = runPool(len(m.Jobs), workers, func(ji int) error {
		j := m.Jobs[ji]
		name := "sim"
		if j.MC != nil {
			name = "attack"
		}
		id := tr.begin(name, pool)
		s := tracedStore{inner: cache, tr: tr, parent: id}
		var hit bool
		var err error
		if j.MC != nil {
			cell := p.sec.Cells[j.MC.Cell]
			seedRoot := report.SecurityCellSeed(m.Security.Seed, j.MC.Cell)
			_, hit, err = simcache.RunMCBatch(s, cell.Spec, seedRoot, j.MC.Batch, j.MC.Trials)
		} else {
			cell := p.eval.Cells[ji]
			_, hit, err = simcache.RunCachedStore(s, cell.Workload, cell.System, p.eval.Sim)
		}
		tr.end(id)
		if !hit {
			executed[ji] = true
			tr.executed(name, id)
		}
		return err
	})
	tr.end(pool)
	if err != nil {
		return nil, nil, err
	}

	// Merge over the same directory: open, derive the accumulator, fold
	// every job, audit, snapshot, pack; then Render.
	id = tr.begin("simcache.open", root)
	cache, err = simcache.Open(store)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.begin("sweep.validate", root)
	acc, err := m.NewAccumulator()
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	for ji := range m.Jobs {
		id := tr.begin("sweep.fold", root)
		_, err := acc.FoldJob(ji, tracedStore{inner: cache, tr: tr, parent: id})
		tr.end(id)
		if err != nil {
			return nil, nil, err
		}
	}
	if missing := acc.Missing(); len(missing) > 0 {
		return nil, nil, fmt.Errorf("merge incomplete: %d results missing", len(missing))
	}
	id = tr.begin("sweep.snapshot", root)
	res, _, err := acc.Snapshot()
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.begin("simcache.pack", root)
	_, err = cache.PackLoose("shard-index")
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.begin("sweep.render", root)
	err = res.Render(io.Discard)
	tr.end(id)
	return res, executed, err
}

// plans is the re-derived execution plan behind a manifest.
type plans struct {
	eval report.EvaluationPlan
	sec  report.SecurityPlan
}

// derive re-derives the manifest's plans and checks every job key
// against them, as the sweep's own expansion does before RunShard
// dispatches anything.
func derive(m *sweep.Manifest) (plans, error) {
	var p plans
	if err := m.ValidateStructure(); err != nil {
		return p, err
	}
	figs := make([]report.PerfFigure, len(m.Figures))
	for i, f := range m.Figures {
		figs[i] = report.PerfFigure{ID: f.Fig, Configs: f.Configs, Labels: f.Labels}
	}
	p.eval = report.PerfOptions{Workloads: m.Workloads, Cores: m.Cores, Sim: m.Sim}.PlanEvaluation(figs)
	ids := make([]string, len(m.Security.Figures))
	for i, f := range m.Security.Figures {
		ids[i] = f.Fig
	}
	var err error
	if p.sec, err = report.PlanSecurity(ids); err != nil {
		return p, err
	}
	for ji, j := range m.Jobs {
		want := ""
		if j.MC != nil {
			cell := p.sec.Cells[j.MC.Cell]
			want = simcache.MCKey(cell.Spec, report.SecurityCellSeed(m.Security.Seed, j.MC.Cell), j.MC.Batch, j.MC.Trials)
		} else if ji < len(p.eval.Keys) {
			want = p.eval.Keys[ji]
		}
		if j.Key != want {
			return p, fmt.Errorf("job %d key does not match this build's plan", ji)
		}
	}
	return p, nil
}

// runPool runs exec over job indices [0, n) on workers goroutines,
// stopping at the first error — the sweep's job-pool discipline.
func runPool(n, workers int, exec func(ji int) error) error {
	var (
		cursor atomic.Int64
		mu     sync.Mutex
		first  error
		wg     sync.WaitGroup
	)
	cursor.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				stop := first != nil
				mu.Unlock()
				k := int(cursor.Add(1))
				if stop || k >= n {
					return
				}
				if err := exec(k); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// runService is service-steal: an in-process objstore server over a
// fresh store on a loopback listener, one RunWork call draining the
// registered manifest, one figures fetch and MergeServer, then Render.
// The in-process RunShard+Merge oracle runs after the timed interval.
func runService(m *sweep.Manifest, dir string, workers int, out *sampleOut, tr *tracer) error {
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	cache, err := simcache.Open(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	srv := objstore.NewServer(cache, objstore.ServerOptions{NewFolder: newFolder})
	hs := newHTTPStats(tr != nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	server := &http.Server{Handler: hs.wrap(srv.Handler())}
	served := make(chan struct{})
	go func() {
		defer close(served)
		server.Serve(ln)
	}()
	defer func() {
		server.Close()
		<-served
	}()
	client := objstore.NewClient(ln.Addr().String())
	reg, err := client.Register(raw)
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}
	client = client.ForManifest(reg.Fingerprint)

	cpu0 := cpuSeconds()
	t0 := time.Now()
	out.DispatchUnixNano = t0.UnixNano()
	var res *sweep.Results
	var figures []byte
	ws, jobErr := m.RunWork(client, "perfbench", workers, nil)
	if jobErr == nil {
		figures, jobErr = client.FiguresJSON()
	}
	if jobErr == nil {
		res, jobErr = m.MergeServer(filepath.Join(dir, "merged"), client, true, nil)
	}
	t3 := time.Now()
	if jobErr == nil {
		jobErr = res.Render(io.Discard)
	}
	out.ReproduceS = since(t0)
	out.ReproduceCPUS = cpuSeconds() - cpu0
	out.PeakRSSMB = peakRSSMB()
	layer(out, tr, "sweep.render_s", since(t3))

	requests, failed5xx := hs.snapshot()
	out.Attempted += len(m.Jobs) + requests
	out.Failed += failed5xx
	if jobErr != nil {
		out.fail("pipeline: %v", jobErr)
		return nil
	}
	if ws.Claimed != len(m.Jobs) || ws.Simulated != len(m.Jobs) {
		out.fail("service-steal: claimed %d, simulated %d of %d jobs", ws.Claimed, ws.Simulated, len(m.Jobs))
	}
	qs, err := client.Status()
	if err != nil {
		out.fail("status: %v", err)
	}
	if qs.Requeues > 0 {
		out.fail("service-steal: %d requeues", qs.Requeues)
	}
	if tr != nil {
		serviceLayers(out, hs, qs)
	}

	var partial sweep.Partial
	if err := json.Unmarshal(figures, &partial); err != nil || partial.Results == nil {
		out.fail("figures: response does not decode: %v", err)
	} else {
		full := partial.Coverage.Complete()
		for _, f := range partial.Coverage.Figures {
			full = full && f.Covered == f.Cells && (f.Rendered || f.Cells == 0)
		}
		if !full {
			out.fail("figures: coverage is not full: %d/%d jobs", partial.Coverage.Done, partial.Coverage.Jobs)
		}
		if !sameJSON(partial.Results, res) {
			out.fail("figures: the daemon's folded results differ from MergeServer's")
		}
	}
	digest(out, res)

	oracleDir := filepath.Join(dir, "oracle")
	if _, err := m.RunShard(0, oracleDir, workers, nil); err != nil {
		out.fail("oracle run: %v", err)
	} else if want, err := m.Merge(oracleDir, nil, true, nil); err != nil {
		out.fail("oracle merge: %v", err)
	} else if !sameJSON(want, res) {
		out.fail("service-steal: MergeServer results differ from the in-process RunShard+Merge oracle")
	}
	executed := make([]bool, len(m.Jobs))
	for i := range executed {
		executed[i] = true
	}
	readBack(m, cache, executed, out, tr)
	return nil
}

// newFolder wires the daemon's figure folder as cmd/rowswap-cached does.
func newFolder(raw []byte) (objstore.FigureFolder, error) {
	var m sweep.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	return m.NewAccumulator()
}

func serviceLayers(out *sampleOut, hs *httpStats, qs objstore.QueueStats) {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	for _, r := range routeNames {
		lat := hs.latencyMS[r]
		out.Layer["objstore."+r+".count"] = float64(len(lat))
		out.Layer["objstore."+r+".p50_ms"] = percentile(lat, 0.50)
		out.Layer["objstore."+r+".p99_ms"] = percentile(lat, 0.99)
	}
	if hs.claims > 0 {
		out.Layer["objstore.claim_empty_frac"] = float64(hs.claimsEmpty) / float64(hs.claims)
	}
	out.Layer["objstore.http_4xx"] = float64(hs.s4xx)
	out.Layer["objstore.http_5xx"] = float64(hs.s5xx)
	out.Layer["objstore.bytes_in"] = float64(hs.bytesIn)
	out.Layer["objstore.bytes_out"] = float64(hs.bytesOut)
	out.Layer["objstore.requeues"] = float64(qs.Requeues)
	out.Layer["objstore.store_reconciled"] = float64(qs.StoreReconciled)
	out.Layer["objstore.stale_completions"] = float64(qs.StaleCompletions)
	out.Layer["objstore.heartbeats"] = float64(qs.Heartbeats)
}

func sameJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(x, y)
}

func digest(out *sampleOut, res *sweep.Results) {
	data, err := json.Marshal(res)
	if err != nil {
		out.fail("results do not encode: %v", err)
		return
	}
	sum := sha256.Sum256(data)
	out.Digest = hex.EncodeToString(sum[:])
}

// readBack reads every job's entry back from the store after the timed
// interval. It checks that every result is present and that no
// simulation fell back to per-cycle stepping, sums the results for
// sim_ips, and — in traced samples — turns the executed jobs' results
// and tallies into the per-layer counts.
func readBack(m *sweep.Manifest, cache *simcache.Cache, executed []bool, out *sampleOut, tr *tracer) {
	var c counts
	var sec report.SecurityPlan
	if m.Security != nil {
		ids := make([]string, len(m.Security.Figures))
		for i, f := range m.Security.Figures {
			ids[i] = f.Fig
		}
		var err error
		if sec, err = report.PlanSecurity(ids); err != nil {
			out.fail("read back: security plan: %v", err)
		}
	}
	for ji, j := range m.Jobs {
		if j.MC != nil {
			t, hit, err := simcache.GetTally(cache, j.Key)
			if err != nil || !hit {
				out.fail("read back tally %d: hit=%v err=%v", ji, hit, err)
				continue
			}
			if executed[ji] && j.MC.Cell < len(sec.Cells) {
				c.addTally(t, sec.Cells[j.MC.Cell].Spec)
			}
			continue
		}
		var r sim.Result
		hit, err := cache.Get(j.Key, &r)
		if err != nil || !hit {
			out.fail("read back result %d: hit=%v err=%v", ji, hit, err)
			continue
		}
		if r.Regimes.SteppedCycles != 0 {
			out.fail("job %d (%s %s): %d cycles stepped per cycle, want 0", ji, j.Workload, j.Label, r.Regimes.SteppedCycles)
		}
		out.SimInstructions += r.Instructions
		out.SimWallSeconds += r.WallSeconds
		if executed[ji] {
			c.addResult(&r)
		}
	}
	if tr != nil {
		c.emit(out, tr)
	}
}

// counts accumulates the executed jobs' simulated-machine counters and
// Monte-Carlo tallies.
type counts struct {
	simJobs                       int
	instructions, cycles          float64
	simWall                       []float64
	regimes                       [6]float64 // compute, fill, drain, stall, stepped, ticks
	llcHits, llcMisses, llcBypass float64
	pinnedHits, writebacks        float64
	reads, writes, refreshes      float64
	mitigations, trackerOps       float64
	swaps, unswaps, placeBacks    float64
	latentACTs, pins, counterAcc  float64
	epochSpike                    float64
	mitByKind, actsByTracker      map[string]float64
	batches                       int
	trials, direct, tail, latent  float64
	skipped, draws                float64
}

func (c *counts) addResult(r *sim.Result) {
	c.simJobs++
	c.instructions += float64(r.Instructions)
	c.cycles += float64(r.Cycles)
	c.simWall = append(c.simWall, r.WallSeconds)
	g := r.Regimes
	for i, v := range []int64{g.ComputeCycles, g.FillCycles, g.DrainCycles, g.StallCycles, g.SteppedCycles, g.Ticks} {
		c.regimes[i] += float64(v)
	}
	c.llcHits += float64(r.LLC.Hits)
	c.llcMisses += float64(r.LLC.Misses)
	c.llcBypass += float64(r.LLC.Bypasses)
	c.pinnedHits += float64(r.LLC.PinnedHits)
	c.writebacks += float64(r.LLC.Writebacks)
	c.reads += float64(r.Ctrl.Reads)
	c.writes += float64(r.Ctrl.Writes)
	c.refreshes += float64(r.Ctrl.Refreshes)
	c.mitigations += float64(r.Ctrl.Mitigations)
	c.trackerOps += float64(r.Ctrl.TrackerMemOps)
	c.swaps += float64(r.Mit.Swaps)
	c.unswaps += float64(r.Mit.Unswaps)
	c.placeBacks += float64(r.Mit.PlaceBacks)
	c.latentACTs += float64(r.Mit.LatentACTs)
	c.pins += float64(r.Mit.Pins)
	c.counterAcc += float64(r.Mit.CounterAccesses)
	c.epochSpike += float64(r.Mit.EpochSpikeOps)
	if c.mitByKind == nil {
		c.mitByKind = map[string]float64{}
		c.actsByTracker = map[string]float64{}
	}
	c.mitByKind[r.Mitigation] += float64(r.Ctrl.Mitigations)
	c.actsByTracker[r.Tracker] += float64(r.Ctrl.Reads + r.Ctrl.Writes)
}

func (c *counts) addTally(t attack.Tally, spec attack.TrialSpec) {
	c.batches++
	c.trials += float64(t.Trials)
	switch {
	case t.Skipped:
		c.skipped += float64(t.Trials)
	case spec.Model.RequiredGuesses(spec.Rounds) == 0:
		// Latent activations alone succeed: one epoch, no draws.
		c.latent += float64(t.Direct)
	default:
		c.direct += float64(t.Direct)
		c.tail += float64(t.Tail)
		// One Poisson draw per simulated epoch of a direct trial.
		c.draws += float64(t.SumHi)*0x1p64 + float64(t.SumLo)
	}
}

func (c *counts) emit(out *sampleOut, tr *tracer) {
	L := out.Layer
	lt := tr.reduce()
	get := func(name string) *layerTimes {
		if x := lt[name]; x != nil {
			return x
		}
		return &layerTimes{}
	}
	// Job timings come from the job spans of jobs that executed; where
	// jobs ran inside Manifest.RunWork (service-steal) there are no job
	// spans and the simulations' own WallSeconds stand in.
	tr.mu.Lock()
	simDur, mcDur := tr.execDur["sim"], tr.execDur["attack"]
	tr.mu.Unlock()
	if _, ok := lt["sweep.pool"]; !ok {
		simDur = c.simWall
	}
	simBusy, mcBusy := sum(simDur), sum(mcDur)
	L["sim.jobs"] = float64(c.simJobs)
	L["sim.busy_s"] = simBusy
	L["sim.instructions"] = c.instructions
	L["sim.cycles"] = c.cycles
	L["sim.ticks"] = c.regimes[5]
	L["sim.ns_per_tick"] = ratio(sum(c.simWall)*1e9, c.regimes[5])
	L["sim.job_p50_s"] = percentile(simDur, 0.5)
	L["sim.job_max_s"] = percentile(simDur, 1)

	batched := c.regimes[0] + c.regimes[1] + c.regimes[2] + c.regimes[3]
	L["cpu.compute_cycles"] = c.regimes[0]
	L["cpu.fill_cycles"] = c.regimes[1]
	L["cpu.drain_cycles"] = c.regimes[2]
	L["cpu.stall_cycles"] = c.regimes[3]
	L["cpu.stepped_cycles"] = c.regimes[4]
	L["cpu.batched_frac"] = ratio(batched, batched+c.regimes[4]+c.regimes[5])

	accesses := c.llcHits + c.llcMisses + c.llcBypass
	L["cache.accesses"] = accesses
	L["cache.hit_frac"] = ratio(c.llcHits, accesses)
	L["cache.pinned_hits"] = c.pinnedHits
	L["cache.writebacks"] = c.writebacks
	L["memctrl.reads"] = c.reads
	L["memctrl.writes"] = c.writes
	L["memctrl.refreshes"] = c.refreshes
	L["memctrl.mitigations"] = c.mitigations
	L["memctrl.tracker_mem_ops"] = c.trackerOps
	L["core.swaps"] = c.swaps
	L["core.unswaps"] = c.unswaps
	L["core.place_backs"] = c.placeBacks
	L["core.latent_acts"] = c.latentACTs
	L["core.pins"] = c.pins
	L["core.counter_accesses"] = c.counterAcc
	L["core.epoch_spike_ops"] = c.epochSpike
	out.Mitigations = c.mitByKind
	out.ACTs = c.actsByTracker

	L["attack.batches"] = float64(c.batches)
	L["attack.busy_s"] = mcBusy
	L["attack.trials"] = c.trials
	L["attack.trials_direct"] = c.direct
	L["attack.trials_tail"] = c.tail
	L["attack.trials_latent"] = c.latent
	L["attack.trials_skipped"] = c.skipped
	L["attack.poisson_draws"] = c.draws
	L["attack.ns_per_draw"] = ratio(mcBusy*1e9, c.draws)
	L["attack.trials_per_s"] = ratio(c.trials, mcBusy)
	L["attack.batch_p50_s"] = percentile(mcDur, 0.5)
	L["attack.batch_max_s"] = percentile(mcDur, 1)

	if _, ok := lt["sweep.pool"]; !ok {
		return // service-steal: the local pipeline's spans do not exist
	}
	pool := get("sweep.pool")
	busy := get("sim").total + get("attack").total
	L["sweep.pool_busy_s"] = busy
	L["sweep.pool_idle_s"] = float64(out.Workers)*pool.total - busy
	fold := get("sweep.fold")
	L["sweep.fold_jobs"] = float64(fold.count)
	L["sweep.fold_s"] = fold.total
	L["sweep.snapshot_s"] = get("sweep.snapshot").total
	L["sweep.render_s"] = get("sweep.render").total
	gets := get("simcache.get")
	tr.mu.Lock()
	L["simcache.get_count"] = float64(tr.gets)
	L["simcache.get_bytes"] = float64(tr.getBytes)
	L["simcache.get_hit_frac"] = ratio(float64(tr.getHits), float64(tr.gets))
	L["simcache.put_count"] = float64(tr.puts)
	L["simcache.put_bytes"] = float64(tr.putBytes)
	tr.mu.Unlock()
	L["simcache.get_s"] = gets.total
	L["simcache.put_s"] = get("simcache.put").total
	L["simcache.pack_s"] = get("simcache.pack").total

	// Self time per layer. Meaningful as a decomposition of reproduce_s
	// only when spans do not overlap, i.e. with one worker.
	for _, name := range selfLayers {
		L["self."+name+"_s"] = get(name).self
	}
	rep := get("reproduce")
	L["self.residual_s"] = rep.self
	L["self.residual_frac"] = ratio(rep.self, rep.total)
	L["self.reproduce_s"] = rep.total
}

// selfLayers are the span names of the self-time table.
var selfLayers = []string{
	"sweep.validate", "simcache.open", "sweep.pool", "sim", "attack",
	"simcache.get", "simcache.put", "tracing", "sweep.fold",
	"sweep.snapshot", "simcache.pack", "sweep.render",
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// copyTree copies the regular files under src into dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
