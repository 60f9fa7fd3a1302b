// Command rowswap-sweep distributes the paper's evaluation across
// worker processes (or machines) and merges the results back into its
// figures, bit-identical to single-process runs.
//
// The sweep has three stages, coordinated purely through files:
//
//	rowswap-sweep plan      -all -shards 2 -out manifest.json
//	rowswap-sweep run-shard -manifest manifest.json -shard 0 -cache-dir w0   # worker 0
//	rowswap-sweep run-shard -manifest manifest.json -shard 1 -cache-dir w1   # worker 1
//	rowswap-sweep merge     -manifest manifest.json -dirs w0,w1 -merged-dir merged -out results.json
//
// or — with a rowswap-cached daemon as the interchange — through the
// network, which needs no shared or copied directories and replaces
// plan-time sharding with a work-stealing queue:
//
//	rowswap-cached -manifest manifest.json -store-dir store                  # coordinator
//	rowswap-sweep work  -server http://COORD:8344 -name w0                   # each worker
//	rowswap-sweep merge -server http://COORD:8344 -manifest manifest.json -merged-dir merged
//
// plan expands one figure (-fig 14), several (-fig 4,14), or the whole
// paper (-all: every performance AND security figure) into one
// deterministic, content-addressed job manifest. Performance figures
// contribute deduplicated simulation jobs; security figures (6, 10,
// and the closed-form 1a/7/13/t1/t4/t5) contribute seeded Monte-Carlo
// trial batches (-trials scales the per-cell trial count, -mc-seed
// roots the RNG derivation). Both job kinds flow through the same
// shard / work-steal / merge pipeline. run-shard is the worker entry
// point (stateless and idempotent: re-running redoes only missing
// jobs); merge folds every job's result through the merged directory,
// copying the entries it lacks verbatim from the worker cache
// directories, audits completeness, folds batch tallies into each
// security figure's Monte-Carlo rows — bit-identical to a
// single-process run of the same seeded trials, in any completion
// order — folds the merged entries into a packed shard index, renders
// every covered figure, and writes a results file that rowswap-figures
// -manifest can re-render without simulating. All stages must run the same build of this binary — the
// manifest records the binary fingerprint and every stage verifies it.
//
// See README.md for a whole-evaluation two-worker walkthrough.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/attack"
	"repro/internal/objstore"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  rowswap-sweep plan      -all | -fig ID[,ID...] [-shards N] [-quick] [-workloads a,b] [-cores N] [-instructions N] [-window NS] -out manifest.json
  rowswap-sweep run-shard -manifest manifest.json -shard I -cache-dir DIR [-workers N] [-progress]
  rowswap-sweep work      -server URL [-manifest manifest.json] [-name NAME] [-workers N] [-progress]
  rowswap-sweep merge     -manifest manifest.json (-dirs DIR0,DIR1,... | -server URL) -merged-dir DIR [-out results.json] [-no-pack] [-progress]

run-shard executes a plan-time shard into a cache directory; work
registers its manifest with a rowswap-cached daemon (idempotent — the
daemon keys each evaluation by manifest fingerprint) and claims jobs
from that manifest's work-stealing queue until the evaluation is done,
pushing results to the daemon. merge folds every job's result through
-merged-dir, copying entries it lacks from the worker directories
(-dirs) or the daemon (-server).
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "plan":
		err = runPlan(os.Args[2:])
	case "run-shard":
		err = runShard(os.Args[2:])
	case "work":
		err = runWork(os.Args[2:])
	case "merge":
		err = runMerge(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rowswap-sweep %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}

func runPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	fig := fs.String("fig", "", "figure(s) to sweep, comma-separated: performance (4, 12, 14, 15, 16, cmp) and/or security (1a, 6, 7, 10, 13, t1, t4, t5)")
	all := fs.Bool("all", false, "plan the whole paper: every performance and security figure in one deduplicated manifest")
	shards := fs.Int("shards", 2, "number of worker shards (jobs are dealt round-robin)")
	trials := fs.Int("trials", 1,
		fmt.Sprintf("Monte-Carlo trial multiplier: each security cell runs N x %d trials", attack.DefaultTrials))
	mcSeed := fs.Uint64("mc-seed", report.DefaultSecuritySeed, "Monte-Carlo root seed")
	mcBatch := fs.Int("mc-batch", 0,
		fmt.Sprintf("Monte-Carlo trials per batch job (0 = %d)", attack.DefaultBatch))
	quick := fs.Bool("quick", false, "use the 12-workload subset")
	workloads := fs.String("workloads", "", "comma-separated workload subset (overrides -quick; default all 78)")
	cores := fs.Int("cores", 8, "simulated cores per workload")
	instructions := fs.Int64("instructions", 0, "per-core instruction budget (default 1.5M)")
	window := fs.Float64("window", 0, "refresh-window length in ns (default 400000)")
	out := fs.String("out", "manifest.json", "manifest output path")
	fs.Parse(args)

	var figIDs []string
	switch {
	case *all && *fig != "":
		return fmt.Errorf("-all and -fig are mutually exclusive")
	case *all:
		figIDs = append(report.PerfFigureIDs(), report.SecurityFigureIDs()...)
	case *fig != "":
		figIDs = strings.Split(*fig, ",")
	default:
		return fmt.Errorf("missing -fig or -all")
	}
	opt := report.PerfOptions{
		Cores: *cores,
		Sim:   sim.Options{Instructions: *instructions, WindowNS: *window},
	}
	if *quick {
		opt.Workloads = report.QuickWorkloads
	}
	if *workloads != "" {
		opt.Workloads = strings.Split(*workloads, ",")
	}
	m, err := sweep.PlanEvaluation(figIDs, opt, sweep.PlanOptions{
		Shards:   *shards,
		MCTrials: *trials * attack.DefaultTrials,
		MCBatch:  *mcBatch,
		MCSeed:   *mcSeed,
	})
	if err != nil {
		return err
	}
	if err := m.Save(*out); err != nil {
		return err
	}
	perFigure := 0
	for _, f := range m.Figures {
		perFigure += len(f.Cells)
	}
	nSim := 0
	for _, j := range m.Jobs {
		if j.Kind == "" || j.Kind == sweep.JobKindSim {
			nSim++
		}
	}
	summary := fmt.Sprintf("planned %d figure(s) (%s): %d simulation jobs (%d figure cells before dedupe)",
		len(m.Figures), strings.Join(figIDs, ","), nSim, perFigure)
	if m.Security != nil {
		summary += fmt.Sprintf(" + %d Monte-Carlo batch jobs (%d security figure(s), %d cells x %d trials, seed %#x)",
			len(m.Jobs)-nSim, len(m.Security.Figures), len(m.Security.Cells), m.Security.Trials, m.Security.Seed)
	}
	fmt.Printf("%s over %d shards -> %s\n", summary, m.Shards, *out)
	return nil
}

func runShard(args []string) error {
	fs := flag.NewFlagSet("run-shard", flag.ExitOnError)
	manifest := fs.String("manifest", "", "manifest written by plan")
	shard := fs.Int("shard", -1, "shard index to execute")
	cacheDir := fs.String("cache-dir", "", "result cache directory this worker writes")
	workers := fs.Int("workers", 0, "simulation goroutines (0 = all CPUs)")
	progress := fs.Bool("progress", false, "print per-job progress")
	fs.Parse(args)

	if *manifest == "" || *shard < 0 || *cacheDir == "" {
		return fmt.Errorf("missing -manifest, -shard or -cache-dir (for a rowswap-cached daemon, use work -server)")
	}
	m, err := sweep.LoadManifest(*manifest)
	if err != nil {
		return err
	}
	stats, err := m.RunShard(*shard, *cacheDir, *workers, progressTo(*progress))
	if err != nil {
		return err
	}
	fmt.Printf("shard %d: %d jobs done (%d served from cache) -> %s\n",
		*shard, stats.Jobs, stats.Hits, *cacheDir)
	return nil
}

// defaultWorkerName identifies this process in the daemon's per-worker
// stats and lease bookkeeping when -name is not given.
func defaultWorkerName() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

func runWork(args []string) error {
	fs := flag.NewFlagSet("work", flag.ExitOnError)
	server := fs.String("server", "", "rowswap-cached URL to claim jobs from and push results to")
	manifest := fs.String("manifest", "", "manifest written by plan (default: fetch it from the server)")
	name := fs.String("name", defaultWorkerName(), "worker name reported to the coordinator")
	workers := fs.Int("workers", 0, "simulation goroutines claiming independently (0 = all CPUs)")
	progress := fs.Bool("progress", false, "print per-job progress")
	fs.Parse(args)

	if *server == "" {
		return fmt.Errorf("missing -server (start one with: rowswap-cached -manifest manifest.json)")
	}
	client := objstore.NewClient(*server)
	var raw []byte
	var err error
	if *manifest != "" {
		raw, err = os.ReadFile(*manifest)
		if err != nil {
			return err
		}
	} else if raw, err = client.ManifestJSON(); err != nil {
		return fmt.Errorf("fetching manifest from %s: %w (daemon has no default manifest; pass -manifest to register one)", client.Base(), err)
	}
	var m sweep.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	// Registration is idempotent and names the tenant: the daemon keys
	// each evaluation by the manifest's content fingerprint, so this
	// worker claims only from its own sweep's queue even when the daemon
	// serves several manifests at once.
	reg, err := client.Register(raw)
	if err != nil {
		return fmt.Errorf("registering manifest with %s: %w", client.Base(), err)
	}
	client = client.ForManifest(reg.Fingerprint)
	stats, err := m.RunWork(client, *name, *workers, progressTo(*progress))
	if err != nil {
		return err
	}
	fmt.Printf("worker %s: claimed %d jobs (%d simulated, %d served from store) -> %s (manifest %.12s…)\n",
		*name, stats.Claimed, stats.Simulated, stats.Hits, client.Base(), reg.Fingerprint)
	return nil
}

func runMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	manifest := fs.String("manifest", "", "manifest written by plan")
	dirs := fs.String("dirs", "", "comma-separated worker cache directories")
	server := fs.String("server", "", "rowswap-cached URL to pull the result set from instead of worker directories")
	mergedDir := fs.String("merged-dir", "", "directory the merged cache is built in")
	out := fs.String("out", "", "results file for rowswap-figures -manifest (optional)")
	noPack := fs.Bool("no-pack", false, "keep merged entries as loose files instead of a packed shard index")
	progress := fs.Bool("progress", false, "print import/pull progress")
	fs.Parse(args)

	if *manifest == "" || *mergedDir == "" {
		return fmt.Errorf("missing -manifest or -merged-dir")
	}
	if (*dirs == "") == (*server == "") {
		return fmt.Errorf("exactly one of -dirs (filesystem interchange) or -server (rowswap-cached transport) is required")
	}
	m, err := sweep.LoadManifest(*manifest)
	if err != nil {
		return err
	}
	var res *sweep.Results
	if *server != "" {
		res, err = m.MergeServer(*mergedDir, objstore.NewClient(*server), !*noPack, progressTo(*progress))
	} else {
		res, err = m.Merge(*mergedDir, strings.Split(*dirs, ","), !*noPack, progressTo(*progress))
	}
	if err != nil {
		return err
	}
	if *out != "" {
		if err := res.Save(*out); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "merged rows for %d figure(s) written to %s\n", len(res.Figures), *out)
	}
	return res.Render(os.Stdout)
}

// progressTo returns the progress writer the sweep API expects: stderr
// when progress is on, a nil io.Writer (progress disabled) otherwise.
func progressTo(on bool) io.Writer {
	if on {
		return os.Stderr
	}
	return nil
}
