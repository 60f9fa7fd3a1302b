// Command rowswap-cached is the networked sweep's store/coordinator
// daemon: an HTTP content-addressed object store plus a work-stealing
// job queue over an evaluation manifest. Workers (rowswap-sweep work)
// push each result the moment it is simulated and claim their next job
// from the queue; the merge stage (rowswap-sweep merge -server) pulls
// the complete result set — so a multi-machine run of the paper's
// evaluation needs no copied cache directories at all.
//
//	rowswap-sweep  plan -all -shards 1 -out manifest.json       # coordinator
//	rowswap-cached -manifest manifest.json -store-dir store     # coordinator (keep running)
//	rowswap-sweep  work -server http://COORD:8344 -name w0      # each worker machine
//	rowswap-sweep  merge -server http://COORD:8344 \
//	               -manifest manifest.json -merged-dir merged   # coordinator
//
// The daemon is a long-lived, multi-tenant evaluation service:
// -manifest is optional, and any number of manifests can be registered
// over HTTP (POST /v1/register; rowswap-sweep work -manifest does it
// automatically), each getting its own queue namespaced by the
// manifest's content fingerprint under /m/<fp>/. Registered manifests
// are persisted in the store directory, and a restarted daemon
// re-registers them and rebuilds each queue's done-ness from the
// results already stored — kill it mid-sweep and the restart resumes
// where the store left off. Workers heartbeat their leases while a job
// runs, so only silent (dead) workers are requeued, never slow ones.
//
// Results live in an ordinary simcache directory (-store-dir), so the
// store can be merged or packed like any local cache. A claimed job
// not completed or heartbeated within -lease is handed to the next
// claimer, so a worker killed mid-run delays its job by one lease
// instead of stalling the sweep.
// The daemon never simulates and never interprets a job beyond its
// content-addressed key, which is why one daemon binary serves workers
// of any build that matches the manifest's planner. GET /v1/service
// and GET /v1/metrics expose consolidated progress, per-worker
// liveness, and queue counters.
//
// See README.md for a two-machine walkthrough.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/objstore"
	"repro/internal/simcache"
	"repro/internal/sweep"
)

func main() {
	manifest := flag.String("manifest", "", "evaluation manifest (rowswap-sweep plan) whose jobs feed the work queue (optional: manifests can also be registered over HTTP, and persisted ones reload on restart)")
	storeDir := flag.String("store-dir", "store", "simcache directory results are persisted in")
	addr := flag.String("addr", "127.0.0.1:8344", "listen address (host:port; port 0 picks a free port; use 0.0.0.0 to serve other machines)")
	lease := flag.Duration("lease", objstore.DefaultLease, "job lease: a claimed job not completed within this window is requeued for other workers")
	progress := flag.Bool("progress", false, "log every claim, completion, and upload to stderr")
	flag.Parse()

	if err := run(*manifest, *storeDir, *addr, *lease, *progress); err != nil {
		fmt.Fprintf(os.Stderr, "rowswap-cached: %v\n", err)
		os.Exit(1)
	}
}

func run(manifestPath, storeDir, addr string, lease time.Duration, progress bool) error {
	opts := objstore.ServerOptions{Lease: lease, NewFolder: newFolder}
	if manifestPath != "" {
		raw, err := os.ReadFile(manifestPath)
		if err != nil {
			return err
		}
		m, err := sweep.LoadManifest(manifestPath)
		if err != nil {
			return err
		}
		// Structure only: the daemon is a different executable than the
		// planner by design, so the binary-fingerprint gate belongs to
		// the workers and the merge stage, which do interpret the jobs.
		if err := m.ValidateStructure(); err != nil {
			return err
		}
		opts.Manifest = raw
		opts.Jobs = m.QueueJobs()
	}
	cache, err := simcache.Open(storeDir)
	if err != nil {
		return fmt.Errorf("store dir: %w", err)
	}
	var logw *os.File
	if progress {
		logw = os.Stderr
	}
	opts.Log = logIfSet(logw)
	srv := objstore.NewServer(cache, opts)
	// Restart recovery: manifests registered in earlier daemon lives are
	// persisted under the store directory; re-registering them rebuilds
	// each queue's done-ness from the results already in the store, so a
	// restarted daemon resumes the sweep instead of re-running it.
	if n := srv.LoadPersisted(); n > 0 && logw != nil {
		fmt.Fprintf(logw, "rowswap-cached: recovered %d persisted manifest(s) from %s\n", n, storeDir)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The serving line goes to stdout first thing so scripts (and the
	// e2e tests) can parse the actual address, including an
	// OS-assigned port.
	fmt.Printf("rowswap-cached: serving %d jobs on http://%s (store %s, lease %s)\n",
		srv.Jobs(), ln.Addr(), storeDir, lease)
	return http.Serve(ln, srv.Handler())
}

// newFolder builds the per-manifest figure accumulator the daemon
// folds completions into (GET /m/<fp>/figures). This wiring lives
// here, not in objstore, because the import points the other way:
// sweep builds on objstore, so the server only knows the
// FigureFolder interface and the binary that links both supplies the
// constructor. Structure-only verification, same as the queue — the
// daemon never interprets a job beyond its content-addressed key.
func newFolder(raw []byte) (objstore.FigureFolder, error) {
	var m sweep.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	return m.NewAccumulator()
}

// logIfSet converts a possibly-nil *os.File into the io.Writer the
// server expects (a typed-nil *os.File inside a non-nil interface
// would defeat its log == nil checks).
func logIfSet(f *os.File) io.Writer {
	if f == nil {
		return nil
	}
	return f
}
