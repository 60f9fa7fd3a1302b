package sweep

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/simcache"
)

// This file is the sweep's one executor. Every stage that touches jobs
// — a plan-time shard (RunShard), a work-stealing worker (RunWork) and
// the merge fold (Merge, MergeServer) — is the same goroutine pool
// draining manifest job indices from a source and running each one
// against a simcache.Store. Only the source and the per-job function
// differ.

// claim is one job a source hands the executor. end, when non-nil,
// releases the job once it has run (ok reports success); its error
// fails the run.
type claim struct {
	ji  int
	end func(ok bool) error
}

// A source yields the executor's next job; ok is false once it is
// drained. Sources are called from every pool goroutine at once.
type source func() (c claim, ok bool, err error)

// listSource hands out a fixed list of job indices, each exactly once.
func listSource(indices []int) source {
	var cursor atomic.Int64
	return func() (claim, bool, error) {
		k := int(cursor.Add(1)) - 1
		if k >= len(indices) {
			return claim{}, false, nil
		}
		return claim{ji: indices[k]}, true, nil
	}
}

// execute drains next on a pool of goroutines (0 = one per CPU, never
// more than maxJobs), running each job with run and stopping at the
// first error. Jobs are independent and deterministic, so the pool
// shapes wall time only, never a result. It returns how many jobs ran
// and how many of those run reported as store hits. Progress, when
// non-nil, gets one line per job, prefixed with who.
func (m *Manifest) execute(next source, goroutines, maxJobs int, who string, progress io.Writer, run func(ji int) (bool, error)) (done, hits int, err error) {
	if goroutines <= 0 {
		goroutines = runtime.GOMAXPROCS(0)
	}
	if goroutines > maxJobs {
		goroutines = maxJobs
	}
	progress = syncProgress(progress)
	var (
		mu     sync.Mutex
		firstE error
		wg     sync.WaitGroup
	)
	fail := func(err error) bool {
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstE == nil {
			firstE = err
		}
		return firstE != nil
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !fail(nil) {
				c, ok, err := next()
				if err != nil {
					fail(fmt.Errorf("sweep: %s: %w", who, err))
					return
				}
				if !ok {
					return
				}
				hit, err := run(c.ji)
				if c.end != nil {
					if endErr := c.end(err == nil); err == nil {
						err = endErr
					}
				}
				if err != nil {
					fail(fmt.Errorf("sweep: %s: %s: %w", who, m.Jobs[c.ji].desc(), err))
					return
				}
				mu.Lock()
				done++
				if hit {
					hits++
				}
				mu.Unlock()
				if progress != nil {
					state := "simulated"
					if hit {
						state = "cached"
					}
					fmt.Fprintf(progress, "  %s: %-30s %s\n", who, m.Jobs[c.ji].desc(), state)
				}
			}
		}()
	}
	wg.Wait()
	return done, hits, firstE
}

// mergeWorkers bounds the merge fold's concurrent entry reads; against
// a daemon it is how many round-trips overlap.
const mergeWorkers = 8

// mergeStore is the store a merge folds through: the merged directory's
// cache, where a miss is filled with the verbatim entry bytes fetch
// finds elsewhere (a worker directory or the daemon), so checksums
// survive the copy and the merged directory ends up holding exactly
// the entries the fold read.
type mergeStore struct {
	*simcache.Cache
	fetch  func(key string) ([]byte, bool, error)
	copied *atomic.Int64
}

func (s mergeStore) Get(key string, v any) (bool, error) {
	if hit, err := s.Cache.Get(key, v); hit || err != nil {
		return hit, err
	}
	data, ok, err := s.fetch(key)
	if err != nil || !ok {
		return false, err
	}
	if err := s.PutRaw(key, data); err != nil {
		return false, err
	}
	s.copied.Add(1)
	return s.Cache.Get(key, v)
}

// fold is the tail of both merge transports: fold every manifest job
// through a mergeStore over cache on the executor, audit that none is
// missing, snapshot the figures, and optionally pack the merged
// entries into "shard-index.pack". Folding is order-independent
// (Accumulator), so the pool cannot change a bit of the result.
func (m *Manifest) fold(p plan, cache *simcache.Cache, fetch func(key string) ([]byte, bool, error), pack bool, progress io.Writer) (*Results, error) {
	acc := m.newAccumulator(p)
	store := mergeStore{Cache: cache, fetch: fetch, copied: new(atomic.Int64)}
	all := make([]int, len(m.Jobs))
	for i := range all {
		all[i] = i
	}
	foldJob := func(ji int) (bool, error) { return acc.FoldJob(ji, store) }
	if _, _, err := m.execute(listSource(all), mergeWorkers, len(all), "merge", nil, foldJob); err != nil {
		return nil, err
	}
	if progress != nil {
		fmt.Fprintf(progress, "  copied %d entries into %s\n", store.copied.Load(), cache.Dir())
	}
	if missing := acc.Missing(); len(missing) > 0 {
		if len(missing) > 8 {
			missing = append(missing[:8], fmt.Sprintf("… and %d more", len(missing)-8))
		}
		return nil, fmt.Errorf("sweep: merge incomplete, %d of %d results missing:\n  %s",
			len(missing), len(m.Jobs), strings.Join(missing, "\n  "))
	}
	out, _, err := acc.Snapshot()
	if err != nil {
		return nil, err
	}
	if pack {
		n, err := cache.PackLoose("shard-index")
		if err != nil {
			return nil, fmt.Errorf("sweep: pack merged entries: %w", err)
		}
		if progress != nil {
			fmt.Fprintf(progress, "  packed %d entries into shard-index.pack\n", n)
		}
	}
	return out, nil
}
