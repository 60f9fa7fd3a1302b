package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	neturl "net/url"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/objstore"
	"repro/internal/report"
	"repro/internal/sim"
)

// These are the acceptance tests of the networked sweep: a real
// rowswap-cached daemon on a loopback port, real rowswap-sweep worker
// processes in work-stealing mode, and a server-transport merge. The
// only things the processes share are the daemon's URL (and, for the
// processes that interpret jobs, the manifest) — no cache directory
// ever changes hands, which is exactly the claim the tests verify.

// buildCLI builds one of this repository's commands into dir and
// returns the binary path.
func buildCLI(t *testing.T, dir, name string) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not available to build the CLI")
	}
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, name)
	build := exec.Command(goBin, "build", "-o", bin, "./cmd/"+name)
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

var servingURL = regexp.MustCompile(`http://[0-9.]+:[0-9]+`)

// startCached starts a real rowswap-cached daemon and returns its base
// URL (parsed from the serving line, so -addr can use port 0). The
// daemon is killed when the test ends.
func startCached(t *testing.T, bin string, args ...string) string {
	url, _ := startCachedCmd(t, bin, args...)
	return url
}

// startCachedCmd is startCached exposing the daemon process, for tests
// that kill the daemon mid-sweep themselves.
func startCachedCmd(t *testing.T, bin string, args ...string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("rowswap-cached printed no serving line: %v", sc.Err())
	}
	url := servingURL.FindString(sc.Text())
	if url == "" {
		t.Fatalf("no URL in serving line %q", sc.Text())
	}
	// Drain any further output so the daemon never blocks on a full pipe.
	go io.Copy(io.Discard, stdout)
	return url, cmd
}

// queueStatus polls the daemon's default-tenant status endpoint.
func queueStatus(t *testing.T, url string) map[string]any {
	t.Helper()
	return queueStatusPath(t, url, "/v1/status")
}

// queueStatusPath polls any status route (namespaced tenants use
// /m/<fingerprint>/status).
func queueStatusPath(t *testing.T, url, path string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %s: HTTP %d: %s", path, resp.StatusCode, body)
	}
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("status decode: %v", err)
	}
	return st
}

// singleProcessFig14 computes the reference rows the merged results
// must match bit-identically.
func singleProcessFig14(t *testing.T, workloads []string, instructions int64) []report.PerfRow {
	t.Helper()
	report.ResetBaselineCache()
	want, err := report.Fig14(io.Discard, report.PerfOptions{
		Workloads: workloads,
		Cores:     2,
		Sim:       sim.Options{Instructions: instructions, WindowNS: 200_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	requireNonTrivial(t, want)
	return want
}

// loadFigureRows reads a merge-stage results file and extracts one
// figure's rows.
func loadFigureRows(t *testing.T, path, fig string) []report.PerfRow {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res Results
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	rows, ok := res.FigureRows(fig)
	if !ok {
		t.Fatalf("merged results carry no figure %s", fig)
	}
	return rows
}

// TestServerSweepWorkStealingTwoWorkerProcesses is the acceptance test
// of the networked transport: plan, a real rowswap-cached daemon, two
// real worker processes in `work -server` (work-stealing) mode that
// never touch a cache directory, and a `merge -server` pull must
// reproduce figure 14's PerfRows bit-identically to a single-process
// run — with zero filesystem interchange between any two processes. It
// also times the same matrix through pre-sharded round-robin run-shard
// workers and records both in BENCH_sweep.json's work_stealing section
// (jobs claimed per worker, wall seconds per mode).
func TestServerSweepWorkStealingTwoWorkerProcesses(t *testing.T) {
	dir := t.TempDir()
	sweepBin := buildCLI(t, dir, "rowswap-sweep")
	cachedBin := buildCLI(t, dir, "rowswap-cached")

	const instructions = 200_000
	workloads := []string{"gcc", "mcf", "gups"}

	run := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(sweepBin, args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("rowswap-sweep %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	manifest := filepath.Join(dir, "manifest.json")
	run("plan", "-fig", "14",
		"-workloads", "gcc,mcf,gups", "-cores", "2",
		"-instructions", fmt.Sprint(instructions), "-window", "200000",
		"-shards", "2", "-out", manifest)

	url := startCached(t, cachedBin,
		"-manifest", manifest, "-store-dir", filepath.Join(dir, "store"), "-addr", "127.0.0.1:0")

	// Two worker processes, claiming concurrently like two machines.
	// w1 gets the manifest from the daemon — a worker machine needs
	// only the binary and the URL.
	stealStart := time.Now()
	w0 := exec.Command(sweepBin, "work", "-server", url, "-name", "w0", "-manifest", manifest, "-workers", "2")
	w1 := exec.Command(sweepBin, "work", "-server", url, "-name", "w1", "-workers", "2")
	for i, w := range []*exec.Cmd{w0, w1} {
		w.Dir = dir
		if err := w.Start(); err != nil {
			t.Fatalf("starting worker %d: %v", i, err)
		}
	}
	for i, w := range []*exec.Cmd{w0, w1} {
		if err := w.Wait(); err != nil {
			t.Fatalf("worker %d failed: %v", i, err)
		}
	}
	stealSecs := time.Since(stealStart).Seconds()

	// The queue drained and every job was claimed by exactly one of
	// the two named workers.
	st := queueStatus(t, url)
	claimed := claimsByWorker(st)
	if len(claimed) != 2 {
		t.Errorf("claims from %d workers, want 2: %v", len(claimed), claimed)
	}
	if done := st["done"].(float64); done != 9 { // 3 workloads × (baseline + 2 configs)
		t.Errorf("queue reports %v jobs done, want 9", done)
	}

	// No worker cache directory exists anywhere: the store dir and the
	// manifest are the only artifacts besides the binaries.
	for _, name := range []string{"w0", "w1"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("worker %s left a local cache directory", name)
		}
	}

	results := filepath.Join(dir, "results.json")
	run("merge", "-server", url, "-manifest", manifest,
		"-merged-dir", filepath.Join(dir, "merged"), "-out", results)
	gotRows := loadFigureRows(t, results, "14")

	want := singleProcessFig14(t, workloads, instructions)
	if !reflect.DeepEqual(want, gotRows) {
		t.Errorf("work-stealing rows differ from single-process rows:\nwant: %+v\ngot:  %+v", want, gotRows)
	}

	// The comparison row: the same manifest's two round-robin shards
	// run by two run-shard processes with filesystem interchange, for
	// the BENCH file.
	shardStart := time.Now()
	runWorkers(t, dir, sweepBin, manifest, []string{filepath.Join(dir, "shard-w0"), filepath.Join(dir, "shard-w1")})
	shardSecs := time.Since(shardStart).Seconds()

	perWorker := map[string]any{}
	for w, n := range claimed {
		perWorker[w] = n
	}
	writeBenchSection(t, "work_stealing", map[string]any{
		"benchmark":                  "ServerSweepWorkStealing",
		"jobs":                       9,
		"worker_processes":           2,
		"jobs_claimed_per_worker":    perWorker,
		"work_stealing_wall_seconds": stealSecs,
		"presharded_wall_seconds":    shardSecs,
		"instructions_per_core":      instructions,
		"requeues":                   st["requeues"],
	})
}

// Protocol steps a kill proxy SIGKILLs its victim at.
const (
	// killAfterClaim: the worker dies once a matching claim response
	// has been relayed to it, holding a lease it will never complete
	// or renew, so the job must be requeued on expiry.
	killAfterClaim = "after-claim"
	// killAfterPut: the worker's first entry PUT is relayed, and it
	// dies on the /complete that follows, so the result is stored but
	// its acknowledgement never arrives: the expired lease must be
	// reconciled from the store, not requeued.
	killAfterPut = "after-put"
	// killDaemonAfterComplete: the victim is the daemon. It dies once
	// it has answered the worker's first successful /complete, before
	// that answer is relayed, so exactly one job was done and stored
	// when it died.
	killDaemonAfterComplete = "daemon-after-complete"
)

// startKillProxy puts a reverse proxy between one worker and the daemon
// at target and SIGKILLs the victim (the process sent on proc: the
// worker, or the daemon for killDaemonAfterComplete) at the named
// protocol step. From that step on, every request the worker sends is
// refused, never relayed, so the daemon sees exactly the protocol
// prefix the step names. match selects the claim that arms
// killAfterClaim. killed receives the daemon's jobs-done count, read
// just before the kill, and is then closed.
func startKillProxy(t *testing.T, target, step string, match func(objstore.Claim) bool) (url string, proc chan<- *os.Process, killed <-chan float64) {
	t.Helper()
	u, err := neturl.Parse(target)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		dead  bool // refuse every request from here on
		armed bool // the kill step's trigger has been relayed
	)
	procCh := make(chan *os.Process, 1)
	killedCh := make(chan float64, 1)
	kill := func() {
		done := daemonJobsDone(t, target)
		if err := (<-procCh).Kill(); err != nil {
			t.Errorf("kill proxy: %v", err)
		}
		killedCh <- done
		close(killedCh)
	}
	errKilled := errors.New("the daemon was killed by the test proxy")
	rp := httputil.NewSingleHostReverseProxy(u)
	rp.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	}
	rp.ModifyResponse = func(resp *http.Response) error {
		path := resp.Request.URL.Path
		if step == killDaemonAfterComplete && strings.HasSuffix(path, "/complete") && resp.StatusCode == http.StatusOK {
			// The daemon's whole answer is in; it dies before the
			// worker can read it.
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				return err
			}
			mu.Lock()
			dead = true
			mu.Unlock()
			kill()
			return errKilled
		}
		if step != killAfterClaim || !strings.HasSuffix(path, "/claim") {
			return nil
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var cr objstore.ClaimResponse
		if json.Unmarshal(body, &cr) == nil && cr.Status == objstore.ClaimJob && match(*cr.Claim) {
			// Refuse before the worker can read its claim, so nothing it
			// does with the job reaches the daemon.
			mu.Lock()
			dead, armed = true, true
			mu.Unlock()
		}
		return nil
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		killNow := step == killAfterPut && armed && !dead && strings.HasSuffix(r.URL.Path, "/complete")
		if killNow {
			dead = true
		}
		refuse := dead
		mu.Unlock()
		if killNow {
			kill()
		}
		if refuse {
			http.Error(w, "worker killed by the test proxy", http.StatusServiceUnavailable)
			return
		}
		rp.ServeHTTP(w, r)
		mu.Lock()
		killNow = step == killAfterClaim && armed
		armed = armed || (step == killAfterPut && r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v1/entry/"))
		if killNow {
			armed = false
		}
		mu.Unlock()
		if killNow {
			w.(http.Flusher).Flush() // the claim response is relayed
			kill()
		}
	}))
	t.Cleanup(srv.Close)
	return srv.URL, procCh, killedCh
}

// daemonJobsDone reads the daemon's jobs-done count over every
// manifest it serves, or -1 (failing the test) if it cannot.
func daemonJobsDone(t *testing.T, url string) float64 {
	resp, err := http.Get(url + "/v1/service")
	if err != nil {
		t.Errorf("kill proxy: daemon status: %v", err)
		return -1
	}
	defer resp.Body.Close()
	var st objstore.ServiceStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Errorf("kill proxy: daemon status: %v", err)
		return -1
	}
	done := 0
	for _, m := range st.Manifests {
		done += m.Done
	}
	return float64(done)
}

// runDoomedWorker runs a one-goroutine `work -name doomed` process
// against the daemon at url through a kill proxy, and returns once the
// proxy has killed it at step. The test fails if the worker exits on
// its own first.
func runDoomedWorker(t *testing.T, dir, sweepBin, url, manifest, step string, match func(objstore.Claim) bool) {
	t.Helper()
	proxyURL, proc, killed := startKillProxy(t, url, step, match)
	doomed := exec.Command(sweepBin, "work", "-server", proxyURL, "-name", "doomed", "-workers", "1", "-manifest", manifest)
	doomed.Dir = dir
	if err := doomed.Start(); err != nil {
		t.Fatal(err)
	}
	proc <- doomed.Process
	exited := make(chan error, 1)
	go func() { exited <- doomed.Wait() }()
	select {
	case <-killed:
		<-exited
	case err := <-exited:
		t.Fatalf("doomed worker exited (%v) before the proxy killed it %s", err, step)
	case <-time.After(2 * time.Minute):
		doomed.Process.Kill()
		<-exited
		t.Fatalf("the doomed worker never reached the %s kill step", step)
	}
}

// claimsByWorker lists each worker's claim count from a status
// snapshot's per-worker rows, leaving out workers that claimed nothing.
func claimsByWorker(st map[string]any) map[string]any {
	claims := map[string]any{}
	for name, row := range st["workers"].(map[string]any) {
		if n := row.(map[string]any)["claimed"]; n.(float64) > 0 {
			claims[name] = n
		}
	}
	return claims
}

// TestServerSweepSurvivesKilledWorker is the fault-tolerance
// acceptance test: a worker SIGKILLed at a named protocol step is
// absorbed by the queue, a second worker drains the sweep, and the
// merged figure is still bit-identical to a single-process run. Each
// step pins its outcome: killed after its claim, the job is requeued
// on lease expiry and re-run; killed after pushing its result, the
// expired lease is reconciled from the store instead.
func TestServerSweepSurvivesKilledWorker(t *testing.T) {
	dir := t.TempDir()
	sweepBin := buildCLI(t, dir, "rowswap-sweep")
	cachedBin := buildCLI(t, dir, "rowswap-cached")

	const instructions = 1_000_000
	workloads := []string{"gcc", "gups"}

	manifest := filepath.Join(dir, "manifest.json")
	planCmd := exec.Command(sweepBin, "plan", "-fig", "14",
		"-workloads", "gcc,gups", "-cores", "2",
		"-instructions", fmt.Sprint(instructions), "-window", "200000",
		"-shards", "1", "-out", manifest)
	if out, err := planCmd.CombinedOutput(); err != nil {
		t.Fatalf("plan: %v\n%s", err, out)
	}
	want := singleProcessFig14(t, workloads, instructions)

	for _, tc := range []struct {
		step                 string
		requeues, reconciled float64
	}{
		{killAfterClaim, 1, 0},
		{killAfterPut, 0, 1},
	} {
		t.Run(tc.step, func(t *testing.T) {
			sub := filepath.Join(dir, tc.step)
			run := func(args ...string) string {
				t.Helper()
				cmd := exec.Command(sweepBin, args...)
				cmd.Dir = dir
				out, err := cmd.CombinedOutput()
				if err != nil {
					t.Fatalf("rowswap-sweep %v: %v\n%s", args, err, out)
				}
				return string(out)
			}
			// The lease bounds how long the orphaned job waits; live
			// workers renew it every third of it.
			url := startCached(t, cachedBin,
				"-manifest", manifest, "-store-dir", filepath.Join(sub, "store"),
				"-addr", "127.0.0.1:0", "-lease", "2s")
			runDoomedWorker(t, dir, sweepBin, url, manifest, tc.step, func(objstore.Claim) bool { return true })

			// The rescuer finishes everything, including the orphaned
			// job once its lease expires.
			rescue := run("work", "-server", url, "-name", "rescuer", "-manifest", manifest)
			t.Logf("rescuer: %s", rescue)

			st := queueStatus(t, url)
			if done := st["done"].(float64); done != 6 { // 2 workloads × (baseline + 2 configs)
				t.Errorf("queue reports %v jobs done after rescue, want 6", done)
			}
			if got := st["requeues"].(float64); got != tc.requeues {
				t.Errorf("requeues = %v, want %v", got, tc.requeues)
			}
			if got := st["store_reconciled"].(float64); got != tc.reconciled {
				t.Errorf("store_reconciled = %v, want %v", got, tc.reconciled)
			}

			results := filepath.Join(sub, "results.json")
			run("merge", "-server", url, "-manifest", manifest,
				"-merged-dir", filepath.Join(sub, "merged"), "-out", results)
			if gotRows := loadFigureRows(t, results, "14"); !reflect.DeepEqual(want, gotRows) {
				t.Errorf("post-kill merged rows differ from single-process rows:\nwant: %+v\ngot:  %+v", want, gotRows)
			}
		})
	}
}

// TestServerSweepDaemonRestartMidSweep is the restartable-service
// acceptance test: a real daemon is SIGKILLed in the middle of a sweep
// at a named protocol step — through a kill proxy, once it has
// answered the worker's first /complete and before that answer reaches
// the worker — and a fresh daemon process over the same store
// directory must recover exactly that finished job from the store
// (recovered == 1, never re-simulated), let a fresh worker drain the
// remainder, and merge figures bit-identical to a single-process run.
// The restarted daemon is started WITHOUT -manifest: the manifest must
// come back from the store directory's persisted copy alone. It also
// records the BENCH service row: restart-recovery wall time vs a cold
// re-run of the same sweep, and heartbeat overhead per worker (the
// lease sits well below one job's wall time, so live workers
// demonstrably renew).
func TestServerSweepDaemonRestartMidSweep(t *testing.T) {
	dir := t.TempDir()
	sweepBin := buildCLI(t, dir, "rowswap-sweep")
	cachedBin := buildCLI(t, dir, "rowswap-cached")

	const instructions = 3_000_000
	workloads := []string{"gcc", "gups"}
	const jobs = 6 // 2 workloads × (baseline + 2 configs)

	run := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(sweepBin, args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("rowswap-sweep %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	manifest := filepath.Join(dir, "manifest.json")
	run("plan", "-fig", "14",
		"-workloads", "gcc,gups", "-cores", "2",
		"-instructions", fmt.Sprint(instructions), "-window", "200000",
		"-shards", "1", "-out", manifest)
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := objstore.ManifestFingerprint(raw)
	if err != nil {
		t.Fatal(err)
	}

	store := filepath.Join(dir, "store")
	url1, daemon1 := startCachedCmd(t, cachedBin,
		"-manifest", manifest, "-store-dir", store,
		"-addr", "127.0.0.1:0", "-lease", "250ms")

	// The pre-restart worker: one goroutine, so its first /complete
	// comes after exactly one stored result. It talks to the daemon
	// only through the kill proxy and dies with the daemon — that
	// failure is the point, not a test error.
	proxyURL, proc, killed := startKillProxy(t, url1, killDaemonAfterComplete, nil)
	proc <- daemon1.Process
	wA := exec.Command(sweepBin, "work", "-server", proxyURL, "-name", "pre-restart", "-workers", "1", "-manifest", manifest)
	wA.Dir = dir
	if err := wA.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- wA.Wait() }()
	var doneAtKill float64
	select {
	case doneAtKill = <-killed:
	case err := <-exited:
		t.Fatalf("pre-restart worker exited (%v) before the proxy killed the daemon", err)
	case <-time.After(2 * time.Minute):
		wA.Process.Kill()
		<-exited
		t.Fatal("the pre-restart worker never completed a job")
	}
	// SIGKILLed: no shutdown handler ran, every lease and every
	// done-bit lives only in the store directory now.
	daemon1.Wait()
	<-exited // the refused worker gives up; exit status irrelevant
	if doneAtKill != 1 {
		t.Errorf("daemon had %v jobs done when killed, want exactly 1", doneAtKill)
	}

	// Restart over the same store, WITHOUT -manifest: recovery must come
	// from the persisted manifest and the stored entries alone.
	recoverStart := time.Now()
	url2 := startCached(t, cachedBin,
		"-store-dir", store, "-addr", "127.0.0.1:0", "-lease", "250ms")
	st := queueStatusPath(t, url2, "/m/"+fp+"/status")
	recovered := st["recovered"].(float64)
	if recovered != 1 {
		t.Fatalf("restarted daemon recovered %v jobs from the warm store, want exactly the 1 completed before the kill (status %v)", recovered, st)
	}

	// A fresh worker drains the remainder against the restarted daemon.
	rescueOut := run("work", "-server", url2, "-name", "post-restart", "-manifest", manifest)
	recoverSecs := time.Since(recoverStart).Seconds()
	t.Logf("rescue: %s", rescueOut)

	st = queueStatusPath(t, url2, "/m/"+fp+"/status")
	if done := st["done"].(float64); done != jobs {
		t.Errorf("queue reports %v done after restart+rescue, want %d", done, jobs)
	}
	heartbeats := st["heartbeats"].(float64)
	if heartbeats < 1 {
		t.Errorf("no heartbeats recorded with lease (250ms) far below job wall time; renewal is dead")
	}

	// Merged figures must be bit-identical to a single-process run —
	// entries from before the kill, after the restart, and from the
	// doomed worker's final push all assemble into the same rows.
	results := filepath.Join(dir, "results.json")
	run("merge", "-server", url2, "-manifest", manifest,
		"-merged-dir", filepath.Join(dir, "merged"), "-out", results)
	gotRows := loadFigureRows(t, results, "14")
	want := singleProcessFig14(t, workloads, instructions)
	if !reflect.DeepEqual(want, gotRows) {
		t.Errorf("post-restart merged rows differ from single-process rows:\nwant: %+v\ngot:  %+v", want, gotRows)
	}

	// The comparison row for the BENCH file: the same sweep cold, in a
	// fresh daemon over an empty store.
	coldStart := time.Now()
	urlCold := startCached(t, cachedBin,
		"-manifest", manifest, "-store-dir", filepath.Join(dir, "store-cold"),
		"-addr", "127.0.0.1:0", "-lease", "250ms")
	run("work", "-server", urlCold, "-name", "cold", "-manifest", manifest)
	coldSecs := time.Since(coldStart).Seconds()

	perWorkerHB := map[string]any{}
	if workers, ok := st["workers"].(map[string]any); ok {
		for name, row := range workers {
			if m, ok := row.(map[string]any); ok {
				perWorkerHB[name] = m["heartbeats"]
			}
		}
	}
	writeBenchSection(t, "service", map[string]any{
		"benchmark":                     "ServerSweepDaemonRestart",
		"jobs":                          jobs,
		"jobs_done_at_kill":             doneAtKill,
		"jobs_recovered_on_restart":     recovered,
		"restart_recovery_wall_seconds": recoverSecs,
		"cold_rerun_wall_seconds":       coldSecs,
		"lease_seconds":                 0.25,
		"heartbeats_total":              heartbeats,
		"heartbeats_per_worker":         perWorkerHB,
		"instructions_per_core":         instructions,
	})
}

// TestServerTwoManifestsConcurrently is the multi-tenant acceptance
// test: one daemon, started with no manifest at all, serves two
// different sweeps at once. Each worker registers its own manifest and
// must only ever be handed its own jobs; each namespace's status
// reports only its own progress; and each sweep's merge is
// bit-identical to its own single-process run.
func TestServerTwoManifestsConcurrently(t *testing.T) {
	dir := t.TempDir()
	sweepBin := buildCLI(t, dir, "rowswap-sweep")
	cachedBin := buildCLI(t, dir, "rowswap-cached")

	const instructions = 200_000
	wlA, wlB := []string{"gcc", "mcf"}, []string{"gups"}
	const jobsA, jobsB = 6, 3

	run := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(sweepBin, args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("rowswap-sweep %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	manifestA := filepath.Join(dir, "manifest-a.json")
	manifestB := filepath.Join(dir, "manifest-b.json")
	run("plan", "-fig", "14", "-workloads", "gcc,mcf", "-cores", "2",
		"-instructions", fmt.Sprint(instructions), "-window", "200000",
		"-shards", "1", "-out", manifestA)
	run("plan", "-fig", "14", "-workloads", "gups", "-cores", "2",
		"-instructions", fmt.Sprint(instructions), "-window", "200000",
		"-shards", "1", "-out", manifestB)
	fpOf := func(path string) string {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := objstore.ManifestFingerprint(raw)
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	fpA, fpB := fpOf(manifestA), fpOf(manifestB)
	if fpA == fpB {
		t.Fatal("distinct plans share a fingerprint")
	}

	// One manifest-less daemon; each worker registers its own sweep.
	url := startCached(t, cachedBin,
		"-store-dir", filepath.Join(dir, "store"), "-addr", "127.0.0.1:0")
	workerA := exec.Command(sweepBin, "work", "-server", url, "-name", "wa", "-manifest", manifestA, "-workers", "2")
	workerB := exec.Command(sweepBin, "work", "-server", url, "-name", "wb", "-manifest", manifestB, "-workers", "2")
	for i, w := range []*exec.Cmd{workerA, workerB} {
		w.Dir = dir
		if err := w.Start(); err != nil {
			t.Fatalf("starting worker %d: %v", i, err)
		}
	}
	for i, w := range []*exec.Cmd{workerA, workerB} {
		if err := w.Wait(); err != nil {
			t.Fatalf("worker %d failed: %v", i, err)
		}
	}

	// Per-namespace status: each sweep fully done, by its own worker
	// only — a single cross-manifest claim would show up here as a
	// foreign worker name or a wrong total.
	stA := queueStatusPath(t, url, "/m/"+fpA+"/status")
	stB := queueStatusPath(t, url, "/m/"+fpB+"/status")
	if done := stA["done"].(float64); done != jobsA {
		t.Errorf("manifest A: %v done, want %d", done, jobsA)
	}
	if done := stB["done"].(float64); done != jobsB {
		t.Errorf("manifest B: %v done, want %d", done, jobsB)
	}
	claimedA := claimsByWorker(stA)
	claimedB := claimsByWorker(stB)
	if len(claimedA) != 1 || claimedA["wa"] == nil || claimedA["wa"].(float64) != jobsA {
		t.Errorf("manifest A claims crossed namespaces: %v", claimedA)
	}
	if len(claimedB) != 1 || claimedB["wb"] == nil || claimedB["wb"].(float64) != jobsB {
		t.Errorf("manifest B claims crossed namespaces: %v", claimedB)
	}

	// The consolidated service view sees both tenants and both workers.
	svc, err := objstore.NewClient(url).ServiceStatus()
	if err != nil {
		t.Fatal(err)
	}
	if len(svc.Manifests) != 2 {
		t.Errorf("service status sees %d manifests, want 2", len(svc.Manifests))
	}
	if len(svc.Workers) != 2 {
		t.Errorf("service status sees %d workers, want 2: %v", len(svc.Workers), svc.Workers)
	}

	// Each sweep merges bit-identically to its own single-process run.
	for _, tc := range []struct {
		name, manifest string
		workloads      []string
	}{
		{"a", manifestA, wlA},
		{"b", manifestB, wlB},
	} {
		results := filepath.Join(dir, "results-"+tc.name+".json")
		run("merge", "-server", url, "-manifest", tc.manifest,
			"-merged-dir", filepath.Join(dir, "merged-"+tc.name), "-out", results)
		gotRows := loadFigureRows(t, results, "14")
		want := singleProcessFig14(t, tc.workloads, instructions)
		if !reflect.DeepEqual(want, gotRows) {
			t.Errorf("manifest %s: merged rows differ from single-process rows:\nwant: %+v\ngot:  %+v", tc.name, want, gotRows)
		}
	}
}

// TestServerSweepShortLeaseHeartbeats is the heartbeat stress variant:
// the lease (150ms) sits far below one job's wall time, so without
// renewal every lease would expire mid-job and the sweep would thrash
// through requeues and stale completions. With heartbeats, a
// single live worker must drain the queue with zero requeues and zero
// stale completions.
func TestServerSweepShortLeaseHeartbeats(t *testing.T) {
	dir := t.TempDir()
	sweepBin := buildCLI(t, dir, "rowswap-sweep")
	cachedBin := buildCLI(t, dir, "rowswap-cached")

	const instructions = 3_000_000
	const jobs = 3 // 1 workload × (baseline + 2 configs)

	run := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(sweepBin, args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("rowswap-sweep %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	manifest := filepath.Join(dir, "manifest.json")
	run("plan", "-fig", "14", "-workloads", "gcc", "-cores", "2",
		"-instructions", fmt.Sprint(instructions), "-window", "200000",
		"-shards", "1", "-out", manifest)

	url := startCached(t, cachedBin,
		"-manifest", manifest, "-store-dir", filepath.Join(dir, "store"),
		"-addr", "127.0.0.1:0", "-lease", "150ms")

	// One worker, one goroutine: every job must survive on heartbeats
	// alone — no second claimer exists to paper over a lost lease.
	out := run("work", "-server", url, "-name", "slow-and-steady", "-workers", "1", "-manifest", manifest)
	t.Logf("worker: %s", out)

	st := queueStatus(t, url)
	if done := st["done"].(float64); done != jobs {
		t.Errorf("queue reports %v done, want %d", done, jobs)
	}
	if requeues := st["requeues"].(float64); requeues != 0 {
		t.Errorf("requeues = %v with a live heartbeating worker, want 0", requeues)
	}
	if stale := st["stale_completions"].(float64); stale != 0 {
		t.Errorf("stale_completions = %v, want 0: some completion lost its lease", stale)
	}
	if hb := st["heartbeats"].(float64); hb < jobs {
		t.Errorf("heartbeats = %v, want >= %d (every job outlives several lease windows)", hb, jobs)
	}
}

// TestServerSweepWarmStoreDifferential is the differential proof that
// done-ness comes from the store, not from daemon memory: after a full
// sweep, a brand-new daemon process over the same store directory must
// answer a second run of the same manifest entirely from Cache.Has —
// the second worker claims zero jobs and simulates nothing.
func TestServerSweepWarmStoreDifferential(t *testing.T) {
	dir := t.TempDir()
	sweepBin := buildCLI(t, dir, "rowswap-sweep")
	cachedBin := buildCLI(t, dir, "rowswap-cached")

	const instructions = 150_000
	const jobs = 3

	run := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(sweepBin, args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("rowswap-sweep %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	manifest := filepath.Join(dir, "manifest.json")
	run("plan", "-fig", "14", "-workloads", "gcc", "-cores", "2",
		"-instructions", fmt.Sprint(instructions), "-window", "200000",
		"-shards", "1", "-out", manifest)

	store := filepath.Join(dir, "store")
	url1, daemon1 := startCachedCmd(t, cachedBin,
		"-manifest", manifest, "-store-dir", store, "-addr", "127.0.0.1:0")
	firstOut := run("work", "-server", url1, "-name", "first", "-manifest", manifest)
	if !strings.Contains(firstOut, fmt.Sprintf("claimed %d jobs (%d simulated", jobs, jobs)) {
		t.Fatalf("first run did not simulate all %d jobs: %s", jobs, firstOut)
	}
	daemon1.Process.Kill()
	daemon1.Wait()

	// Fresh daemon, same store: registration recovers every job.
	url2 := startCached(t, cachedBin,
		"-manifest", manifest, "-store-dir", store, "-addr", "127.0.0.1:0")
	st := queueStatus(t, url2)
	if recovered := st["recovered"].(float64); recovered != jobs {
		t.Fatalf("restarted daemon recovered %v jobs, want %d", recovered, jobs)
	}

	secondOut := run("work", "-server", url2, "-name", "second", "-manifest", manifest)
	if !strings.Contains(secondOut, "claimed 0 jobs (0 simulated") {
		t.Errorf("second run against the warm store re-executed work: %s", secondOut)
	}
	st = queueStatus(t, url2)
	if done := st["done"].(float64); done != jobs {
		t.Errorf("done = %v after warm re-run, want %d", done, jobs)
	}
	if requeues := st["requeues"].(float64); requeues != 0 {
		t.Errorf("warm re-run caused %v requeues, want 0", requeues)
	}
}
