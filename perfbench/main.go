// Command perfbench is the repository's end-to-end benchmark: it
// reproduces the paper's whole evaluation manifest through the public
// sweep, report, simcache, sim, attack and objstore APIs, checks every
// run's output, and prints one JSON result line (see README.md).
//
//	bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 30 --trace 0
//
// --workload is paper-cold, paper-warm, service-steal, or all (each in
// turn). With --trace 0 the result carries the end-to-end metrics of
// BENCHMARK.json, medians over fresh-process samples; with --trace 1 it
// carries the per-layer metrics of a traced sample (plus, on the local
// workloads, a single-worker traced sample whose layer self times add
// up to its reproduce_s).
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	wlCold  = "paper-cold"
	wlWarm  = "paper-warm"
	wlSteal = "service-steal"
)

var allWorkloads = []string{wlCold, wlWarm, wlSteal}

// runBudget bounds one invocation: the driver allows 180 s.
const runBudget = 170 * time.Second

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "sample":
			os.Exit(sampleMain(os.Args[2:]))
		case "probe":
			os.Exit(probeMain())
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

// metricDef is one metric of BENCHMARK.json, the single source of the
// metric names and units this program emits.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchDef struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchDef(path string) (*benchDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchDef
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", wlCold, "paper-cold, paper-warm, service-steal or all")
	seed := fs.Int64("seed", 1, "workload seed: derives the simulation seed and the Monte-Carlo root seed")
	seconds := fs.Int("seconds", 30, "how long to keep taking samples")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of traced samples")
	workDir := fs.String("work-dir", ".bench_build/runs", "scratch directory for the samples' stores")
	defPath := fs.String("def", "BENCHMARK.json", "benchmark definition listing the metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	wls := []string{*workload}
	if *workload == "all" {
		wls = allWorkloads
	} else if !slices.Contains(allWorkloads, *workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", *workload, strings.Join(allWorkloads, ", "))
		return 2
	}
	def, err := loadBenchDef(*defPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	root := filepath.Join(*workDir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(root)
	for _, wl := range wls {
		r := &runner{
			exe:      exe,
			root:     root,
			workload: wl,
			seed:     *seed,
			seconds:  time.Duration(*seconds) * time.Second,
			workers:  runtime.NumCPU(),
			deadline: time.Now().Add(runBudget),
		}
		var res *result
		if *traceMode == 0 {
			res, err = r.endToEnd(def.EndToEnd)
		} else {
			res, err = r.perLayer(def.PerLayer)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", wl, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Println(string(line))
	}
	return 0
}

// runner takes the samples of one workload.
type runner struct {
	exe, root string
	workload  string
	seed      int64
	seconds   time.Duration
	workers   int
	deadline  time.Time
	n         int

	attempted, failed int
	errors            []string
	last              time.Duration // duration of the latest sample
}

// sample is one child process's outcome as the parent sees it.
type sample struct {
	*sampleOut
	setupS float64
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	r.errors = append(r.errors, fmt.Sprintf(format, args...))
}

// spawn runs one sample in a fresh process and directory. keep leaves
// the directory in place (the paper-warm template).
func (r *runner) spawn(workload, template string, workers int, traced, keep bool) (*sample, string, error) {
	r.n++
	dir := filepath.Join(r.root, fmt.Sprintf("s%03d", r.n))
	if !keep {
		defer os.RemoveAll(dir)
	}
	args := []string{"sample", "-workload", workload, "-seed", strconv.FormatInt(r.seed, 10),
		"-dir", dir, "-workers", strconv.Itoa(workers)}
	if template != "" {
		args = append(args, "-template", template)
	}
	if traced {
		args = append(args, "-traced")
	}
	var out sampleOut
	spawned, err := r.child(&out, args...)
	if err != nil {
		return nil, dir, err
	}
	s := &sample{sampleOut: &out}
	s.setupS = float64(out.DispatchUnixNano-spawned.UnixNano())/1e9 - out.PrepS
	r.attempted += out.Attempted
	r.failed += out.Failed
	r.errors = append(r.errors, out.Errors...)
	return s, dir, nil
}

// child runs this binary with args until it exits or the run's
// deadline passes, and decodes the last line of its stdout into v.
func (r *runner) child(v any, args ...string) (time.Time, error) {
	ctx, cancel := context.WithDeadline(context.Background(), r.deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, r.exe, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	// A child must not outlive the benchmark, whatever stops it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	r.last = time.Since(start)
	if err != nil {
		return start, fmt.Errorf("%s %s: %w", filepath.Base(r.exe), args[0], err)
	}
	if err := json.Unmarshal(lastLine(stdout.Bytes()), v); err != nil {
		return start, fmt.Errorf("%s %s: output does not decode: %w", filepath.Base(r.exe), args[0], err)
	}
	return start, nil
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	return last
}

// prepare runs the untimed preparation of a workload: for paper-warm, a
// cold reproduction whose store becomes every sample's template and
// whose results digest every sample must match.
func (r *runner) prepare() (template, digest string, err error) {
	if r.workload != wlWarm {
		return "", "", nil
	}
	s, dir, err := r.spawn(wlCold, "", r.workers, false, true)
	if err != nil {
		return "", "", fmt.Errorf("preparing the warm store: %w", err)
	}
	return dir, s.Digest, nil
}

// untraced takes fresh-process samples while another one, as long as
// the last, still fits into budget (at least min samples), stopping
// early when the next sample would miss the deadline.
func (r *runner) untraced(template string, min int, budget time.Duration) ([]*sample, error) {
	var out []*sample
	start := time.Now()
	for len(out) < min || time.Since(start)+r.last <= budget {
		if len(out) > 0 && time.Now().Add(r.last*3/2).After(r.deadline) {
			break
		}
		s, _, err := r.spawn(r.workload, template, r.workers, false, false)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// checkDigests requires every sample to reproduce the same Results
// (and, on paper-warm, the cold reproduction's).
func (r *runner) checkDigests(samples []*sample, want string) {
	if want == "" && len(samples) > 0 {
		want = samples[0].Digest
	}
	for i, s := range samples {
		if s.Digest != want {
			r.fail("sample %d: results sha256 %.16s…, want %.16s…", i, s.Digest, want)
		}
	}
}

func (r *runner) endToEnd(defs []metricDef) (*result, error) {
	template, want, err := r.prepare()
	if err != nil {
		return nil, err
	}
	samples, err := r.untraced(template, 1, r.seconds)
	if err != nil {
		return nil, err
	}
	r.checkDigests(samples, want)
	pick := func(f func(*sample) float64) []float64 { return mapSamples(samples, f) }
	// Each metric is reduced over the samples by its own statistic. The
	// timings of the pipeline take the best sample: contention from other
	// tenants of the host (measured as CPU steal of a quarter of the
	// time) only ever adds time, so the best sample is the least
	// contaminated one — the convention of bench_test.go's minima.
	// setup_s and memory take the median.
	best := func(xs []float64) float64 { lo, _ := minMax(xs); return lo }
	bestHigh := func(xs []float64) float64 { _, hi := minMax(xs); return hi }
	type reduced struct {
		xs     []float64
		reduce func([]float64) float64
		stat   string
	}
	values := map[string]reduced{
		"setup_s":         {pick(func(s *sample) float64 { return s.setupS }), median, "median"},
		"reproduce_s":     {pick(func(s *sample) float64 { return s.ReproduceS }), best, "min"},
		"reproduce_cpu_s": {pick(func(s *sample) float64 { return s.ReproduceCPUS }), best, "min"},
		"sim_ips":         {pick(func(s *sample) float64 { return ratio(float64(s.SimInstructions), s.SimWallSeconds) }), bestHigh, "max"},
		"peak_rss_mb":     {pick(func(s *sample) float64 { return s.PeakRSSMB }), median, "median"},
		"ok_frac":         {[]float64{1 - ratio(float64(r.failed), float64(r.attempted))}, median, "-"},
	}
	res := r.result()
	printHeader(os.Stdout, r, samples)
	fmt.Fprintf(os.Stdout, "%-18s %-8s %12s %-6s %12s %12s %12s\n", "metric", "unit", "value", "stat", "median", "min", "max")
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json lists end-to-end metric %q, which this benchmark does not measure", d.Name)
		}
		x := v.reduce(v.xs)
		res.Metrics[d.Name] = map[string]any{"value": x, "unit": d.Unit}
		lo, hi := minMax(v.xs)
		fmt.Fprintf(os.Stdout, "%-18s %-8s %12.6g %-6s %12.6g %12.6g %12.6g\n", d.Name, d.Unit, x, v.stat, median(v.xs), lo, hi)
	}
	fmt.Fprintf(os.Stdout, "failed_frac = %d/%d = %.6g\n", r.failed, r.attempted, ratio(float64(r.failed), float64(r.attempted)))
	return res, nil
}

func (r *runner) result() *result {
	for _, e := range r.errors {
		fmt.Fprintf(os.Stderr, "perfbench %s: FAILED: %s\n", r.workload, e)
	}
	return &result{
		Correct:   r.failed == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   map[string]map[string]any{},
	}
}

func printHeader(w io.Writer, r *runner, samples []*sample) {
	s := samples[0]
	kinds := make([]string, 0, len(s.Jobs))
	for k, n := range s.Jobs {
		kinds = append(kinds, fmt.Sprintf("%s=%d", k, n))
	}
	sort.Strings(kinds)
	fmt.Fprintf(w, "workload %s  seed %d  samples %d\n", r.workload, r.seed, len(samples))
	fmt.Fprintf(w, "nproc %d  GOMAXPROCS %d  workers %d  %s  binary %.16s…  jobs %s\n",
		runtime.NumCPU(), s.GOMAXPROCS, s.Workers, s.GoVersion, s.Fingerprint, strings.Join(kinds, " "))
	fmt.Fprintf(w, "results sha256 %s\n", s.Digest)
}

// perLayer is the traced run: untraced samples for the overhead
// baseline, one traced sample at the untraced worker count, for the
// local workloads one traced single-worker sample for the self-time
// table, and the kernel probes.
func (r *runner) perLayer(defs []metricDef) (*result, error) {
	template, want, err := r.prepare()
	if err != nil {
		return nil, err
	}
	base, err := r.untraced(template, 3, 0)
	if err != nil {
		return nil, err
	}
	traced, _, err := r.spawn(r.workload, template, r.workers, true, false)
	if err != nil {
		return nil, err
	}
	samples := append(base, traced)
	L := map[string]float64{}
	for k, v := range traced.Layer {
		if !strings.HasPrefix(k, "self.") {
			L[k] = v
		}
	}
	if r.workload != wlSteal {
		serial, _, err := r.spawn(r.workload, template, 1, true, false)
		if err != nil {
			return nil, err
		}
		samples = append(samples, serial)
		for k, v := range serial.Layer {
			if strings.HasPrefix(k, "self.") {
				L[k] = v
			}
		}
	}
	r.checkDigests(samples, want)
	untracedMed := median(mapSamples(base, func(s *sample) float64 { return s.ReproduceS }))
	L["trace_overhead_s"] = traced.ReproduceS - untracedMed

	var probes map[string]float64
	if _, err := r.child(&probes, "probe"); err != nil {
		return nil, err
	}
	for k, v := range probes {
		L[k] = v
	}
	estimates(L, traced.sampleOut, probes)

	res := r.result()
	printHeader(os.Stdout, r, samples)
	fmt.Fprintf(os.Stdout, "untraced reproduce_s median %.4g s over %d samples; traced %.4g s; overhead %.4g s\n",
		untracedMed, len(base), traced.ReproduceS, L["trace_overhead_s"])
	for _, d := range defs {
		v, ok := L[d.Name]
		if !ok && notApplicable(r.workload, d.Name) {
			v, ok = 0, true
		}
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json lists per-layer metric %q, which the %s trace did not produce", d.Name, r.workload)
		}
		res.Metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
		delete(L, d.Name)
	}
	if len(L) > 0 {
		extra := make([]string, 0, len(L))
		for k := range L {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("the trace produced metrics BENCHMARK.json does not list: %s", strings.Join(extra, ", "))
	}
	printLayers(os.Stdout, defs, res.Metrics)
	return res, nil
}

// notApplicable names the per-layer metrics a workload has no layer
// for; they are reported as 0. objstore is reached only by
// service-steal; the self-time table and the local pipeline's spans do
// not exist where jobs run inside Manifest.RunWork.
func notApplicable(workload, name string) bool {
	if strings.HasPrefix(name, "objstore.") {
		return workload != wlSteal
	}
	if strings.HasPrefix(name, "self.") {
		return workload == wlSteal
	}
	if workload == wlSteal {
		for _, p := range []string{"sweep.pool_", "sweep.fold", "sweep.snapshot_s", "simcache.get", "simcache.put", "simcache.pack_s"} {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
	}
	return false
}

// estimates fills <layer>.est_s: each kernel layer's operation count in
// the executed sim.Results times its probed ns/op. These are estimates:
// memctrl's probe includes its bank access and tracker update, and
// core counts only the three probed swap mechanisms.
func estimates(L map[string]float64, s *sampleOut, probes map[string]float64) {
	ns := func(name string) float64 { return probes[name] * 1e-9 }
	L["trace.est_s"] = L["cache.accesses"] * ns("trace.shared_ns_per_record")
	L["cache.est_s"] = L["cache.accesses"] * ns("cache.access_ns")
	L["dram.est_s"] = (L["memctrl.reads"] + L["memctrl.writes"] + L["memctrl.tracker_mem_ops"]) * ns("dram.access_ns")
	L["memctrl.est_s"] = (L["memctrl.reads"] + L["memctrl.writes"]) * ns("memctrl.access_ns")
	var core, trk float64
	for kind, n := range s.Mitigations {
		probe := kind
		if kind == "rrs-nounswap" {
			probe = "rrs"
		}
		core += n * ns("core.on_aggressor_ns."+probe)
	}
	for kind, n := range s.ACTs {
		trk += n * ns("tracker.record_ns."+kind)
	}
	L["core.est_s"] = core
	L["tracker.est_s"] = trk
}

func printLayers(w io.Writer, defs []metricDef, m map[string]map[string]any) {
	fmt.Fprintf(w, "%-34s %-7s %14s\n", "per-layer metric", "unit", "value")
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %-7s %14.6g\n", d.Name, d.Unit, m[d.Name]["value"])
	}
	val := func(name string) float64 { v, _ := m[name]["value"].(float64); return v }
	if rep := val("self.reproduce_s"); rep > 0 {
		type row struct {
			name string
			s    float64
		}
		var rows []row
		for _, d := range defs {
			if strings.HasPrefix(d.Name, "self.") && d.Name != "self.reproduce_s" && d.Name != "self.residual_frac" {
				rows = append(rows, row{strings.TrimSuffix(strings.TrimPrefix(d.Name, "self."), "_s"), val(d.Name)})
			}
		}
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].s > rows[j].s })
		fmt.Fprintf(w, "\nself time by layer, single-worker traced sample (reproduce_s %.4g s)\n", rep)
		var sum float64
		for i, r := range rows {
			sum += r.s
			fmt.Fprintf(w, "%2d. %-18s %10.4f s %6.2f%%\n", i+1, r.name, r.s, 100*r.s/rep)
		}
		fmt.Fprintf(w, "    %-18s %10.4f s %6.2f%%\n", "sum", sum, 100*sum/rep)
	}
	type est struct {
		name string
		s    float64
	}
	var ests []est
	for _, d := range defs {
		if strings.HasSuffix(d.Name, ".est_s") {
			ests = append(ests, est{strings.TrimSuffix(d.Name, ".est_s"), val(d.Name)})
		}
	}
	sort.SliceStable(ests, func(i, j int) bool { return ests[i].s > ests[j].s })
	fmt.Fprintf(w, "\nkernel layers, estimated from counts x probed ns/op (sim.busy_s %.4g s)\n", val("sim.busy_s"))
	for i, e := range ests {
		fmt.Fprintf(w, "%2d. %-10s %10.4f s (estimate)\n", i+1, e.name, e.s)
	}
}

func mapSamples(ss []*sample, f func(*sample) float64) []float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return xs
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(xs []float64) (float64, float64) {
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}
