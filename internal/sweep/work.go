package sweep

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/objstore"
	"repro/internal/simcache"
)

// This file is the networked side of the sweep: a work-stealing worker
// that claims jobs from a rowswap-cached store daemon (internal/
// objstore) and pushes results to it instead of honoring plan-time
// shard assignments, and a merge that pulls the result set over HTTP.
// Together they make a multi-machine run of the evaluation need no
// filesystem interchange at all: ship the binary, start the daemon,
// point workers at it.

// QueueJobs converts the manifest's deduplicated job set into the
// object store's claimable queue entries, in manifest order — a
// claim's Job index addresses m.Jobs, which is how workers map a
// granted claim back onto the evaluation plan.
func (m *Manifest) QueueJobs() []objstore.QueueJob {
	jobs := make([]objstore.QueueJob, len(m.Jobs))
	for i, j := range m.Jobs {
		jobs[i] = objstore.QueueJob{Key: j.Key, Workload: j.Workload, Label: j.Label}
	}
	return jobs
}

// WorkStats reports what a RunWork invocation did.
type WorkStats struct {
	// Claimed is how many queue jobs this worker won; Simulated how
	// many it actually ran; Hits how many were already in the store
	// (pushed by an earlier run, or by a worker that lost its lease
	// after doing the work).
	Claimed, Simulated, Hits int
}

// Claim-poll backoff bounds. A worker that finds every remaining job
// leased elsewhere starts polling at minClaimWait and doubles up to the
// server's suggested retry (capped by maxClaimWait, whatever the server
// says). Sleeping the server's full suggestion immediately serialized
// the queue tail: the last jobs of a sweep finish in a few milliseconds,
// and a worker parked for a fixed 200 ms missed them by an order of
// magnitude (visible as the work-stealing gap in BENCH_sweep.json).
const (
	minClaimWait = time.Millisecond
	maxClaimWait = 2 * time.Second
)

// minHeartbeat floors the lease-renewal interval so a test daemon
// configured with a millisecond lease cannot make workers spin on
// heartbeats.
const minHeartbeat = 25 * time.Millisecond

// heartbeatLease renews the given lease every leaseSeconds/3 until
// stop is closed, so a job that runs longer than the daemon's lease is
// never requeued while its worker is alive and making progress. A
// definitive lease-lost answer ends renewal early — the lease is gone
// and re-asserting it would only spam the daemon; the worker's
// Complete then succeeds anyway iff the result reached the store
// (stale-completion proof). Transient errors (daemon restarting, net
// blips) are ignored: the next tick retries, and the stored-result
// path covers the worst case.
func heartbeatLease(client *objstore.Client, job int, lease, worker string, leaseSeconds float64, stop <-chan struct{}) {
	interval := time.Duration(leaseSeconds / 3 * float64(time.Second))
	if interval < minHeartbeat {
		interval = minHeartbeat
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			if err := client.Heartbeat(job, lease, worker); errors.Is(err, objstore.ErrLeaseLost) {
				return
			}
		}
	}
}

// queueSource claims jobs from the daemon's queue for worker, polling
// with backoff while every remaining job is leased elsewhere. Each
// granted claim is checked against the manifest and heartbeated until
// the executor ends it; a job that ran is then completed.
func (m *Manifest) queueSource(client *objstore.Client, worker string) source {
	return func() (claim, bool, error) {
		backoff := minClaimWait
		for {
			resp, err := client.ClaimJob(worker)
			if err != nil {
				return claim{}, false, fmt.Errorf("claim: %w", err)
			}
			switch resp.Status {
			case objstore.ClaimDone:
				return claim{}, false, nil
			case objstore.ClaimWait:
				limit := time.Duration(resp.RetryMS) * time.Millisecond
				if limit <= 0 || limit > maxClaimWait {
					limit = maxClaimWait
				}
				if backoff > limit {
					backoff = limit
				}
				time.Sleep(backoff)
				if backoff < limit {
					backoff *= 2
				}
				continue
			}
			c := resp.Claim
			if c.Job < 0 || c.Job >= len(m.Jobs) || m.Jobs[c.Job].Key != c.Key {
				return claim{}, false, fmt.Errorf("claimed job %d (key %.12s…) does not match the manifest — the daemon was started with a different plan", c.Job, c.Key)
			}
			// Renew the lease while the job runs: job time is unbounded
			// (and uncalibrated across hosts), the lease is not. Stopped
			// before Complete — a completed job needs no lease.
			stop := make(chan struct{})
			stopped := make(chan struct{})
			go func() {
				defer close(stopped)
				heartbeatLease(client, c.Job, c.Lease, worker, c.LeaseSeconds, stop)
			}()
			end := func(ok bool) error {
				close(stop)
				<-stopped
				if !ok {
					return nil
				}
				if err := client.Complete(c.Job, c.Lease, worker); err != nil {
					return fmt.Errorf("complete: %w", err)
				}
				return nil
			}
			return claim{ji: c.Job, end: end}, true, nil
		}
	}
}

// RunWork is the work-stealing worker entry point: claim a job from
// the daemon's queue, simulate it, push the result, complete the
// claim, repeat until the queue reports the evaluation done. Shard
// assignments in the manifest are ignored — scheduling is entirely
// claim-order, so fast machines naturally take more jobs and a worker
// that dies mid-job only delays that job by one lease (the queue
// requeues it on expiry). goroutines (0 = one per CPU) claim
// independently, so a single process also steals work from itself.
//
// The manifest must still expand under this binary (same build as the
// planner): the claim's content-addressed key is verified against the
// manifest before anything runs, so a queue that does not match the
// plan fails loudly instead of simulating the wrong cell.
func (m *Manifest) RunWork(client *objstore.Client, worker string, goroutines int, progress io.Writer) (WorkStats, error) {
	p, err := m.expand()
	if err != nil {
		return WorkStats{}, err
	}
	if worker == "" {
		return WorkStats{}, fmt.Errorf("sweep: a work-stealing worker needs a name (it identifies leases and per-worker stats)")
	}
	run := func(ji int) (bool, error) { return p.run(m, ji, client) }
	done, hits, err := m.execute(m.queueSource(client, worker), goroutines, len(m.Jobs), "worker "+worker, progress, run)
	return WorkStats{Claimed: done, Simulated: done - hits, Hits: hits}, err
}

// MergeServer is Merge with the daemon as the only source: an entry
// missing from mergedDir is pulled verbatim from the HTTP store, and
// the daemon's measured-cost estimates are imported too. The fold,
// audit and rows are Merge's, so they are bit-identical to a
// single-process run and to a directory-transport merge. Entries
// already in mergedDir are not re-fetched, so an interrupted merge
// resumes where it stopped.
func (m *Manifest) MergeServer(mergedDir string, client *objstore.Client, pack bool, progress io.Writer) (*Results, error) {
	p, err := m.expand()
	if err != nil {
		return nil, err
	}
	cache, err := simcache.Open(mergedDir)
	if err != nil {
		return nil, fmt.Errorf("sweep: merged dir: %w", err)
	}
	costs, err := client.CostsJSONL()
	if err == nil {
		nc := cache.Costs().ImportRecords(bytes.NewReader(costs))
		if progress != nil {
			fmt.Fprintf(progress, "  imported %d measured costs from %s\n", nc, client.Base())
		}
	} else if progress != nil {
		// Cost feedback is an optimization signal, not a correctness
		// dependency — but a silent drop would make a later
		// `plan -strategy cost` quietly fall back to the static
		// heuristic, so say what happened.
		fmt.Fprintf(progress, "  warning: measured costs not pulled from %s: %v\n", client.Base(), err)
	}
	return m.fold(p, cache, client.GetEntryRaw, pack, progress)
}
