package report

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

func matrixOpts(workers int) PerfOptions {
	return PerfOptions{
		Workloads: []string{"gcc", "povray", "mcf"},
		Cores:     2,
		Workers:   workers,
		Sim:       sim.Options{Instructions: 100_000, WindowNS: 200_000},
	}
}

var matrixConfigs = map[string]config.Mitigation{
	"rrs":       config.DefaultRRS(1200),
	"scale-srs": config.DefaultScaleSRS(1200),
}

// TestSerialAndParallelMatrixIdentical is the determinism contract of
// the parallel experiment engine: the rows must be bit-identical for any
// worker count, including the single-worker serial schedule.
func TestSerialAndParallelMatrixIdentical(t *testing.T) {
	ResetBaselineCache()
	serial, err := runMatrix(matrixOpts(1), matrixConfigs)
	if err != nil {
		t.Fatal(err)
	}
	ResetBaselineCache()
	parallel, err := runMatrix(matrixOpts(8), matrixConfigs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("serial and parallel rows diverged:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if len(parallel) != 3 || parallel[0].Workload != "gcc" || parallel[2].Workload != "mcf" {
		t.Errorf("row order not deterministic: %+v", parallel)
	}
}

// TestBaselineCacheDoesNotChangeNumbers verifies the baseline-sharing
// optimization: a matrix computed against cached baselines must produce
// the same normalized rows as one that simulated them fresh.
func TestBaselineCacheDoesNotChangeNumbers(t *testing.T) {
	ResetBaselineCache()
	fresh, err := runMatrix(matrixOpts(0), matrixConfigs)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := runMatrix(matrixOpts(0), matrixConfigs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, cached) {
		t.Errorf("cached-baseline rows diverged:\nfresh:  %+v\ncached: %+v", fresh, cached)
	}
	// The cache must actually be warm now. runMatrix keys baselines on
	// normalized options (so explicit defaults share the zero value's
	// entry), hence the Plan-derived lookup key.
	plan := matrixOpts(0).Plan(matrixConfigs)
	if _, ok := baselineCache.Load(baselineKey{workload: plan.Workloads[0].Name, cores: 2,
		opt: plan.Sim}); !ok {
		t.Error("baseline cache empty after two matrix runs")
	}
}

// TestMatrixErrorPropagates checks that an invalid config surfaces as an
// error (and not a deadlock or partial rows) under the worker pool.
func TestMatrixErrorPropagates(t *testing.T) {
	bad := map[string]config.Mitigation{
		"bad": {Kind: config.MitigationRRS}, // TRH=0 fails validation
	}
	if _, err := runMatrix(matrixOpts(4), bad); err == nil {
		t.Error("invalid config did not error")
	}
}

// TestMatrixWithPersistentCacheIdentical proves the persistent cache is
// invisible to the matrix's numbers: uncached rows, cold-cache rows, and
// warm-cache rows must be bit-identical, and the warm pass must actually
// be served from disk (the process-wide baseline cache is reset between
// passes, so only simcache can avoid re-simulation).
func TestMatrixWithPersistentCacheIdentical(t *testing.T) {
	opts := matrixOpts(2)
	opts.Workloads = []string{"gcc", "mcf"}
	opts.Sim.Instructions = 40_000

	ResetBaselineCache()
	plain, err := runMatrix(opts, matrixConfigs)
	if err != nil {
		t.Fatal(err)
	}

	opts.CacheDir = t.TempDir()
	ResetBaselineCache()
	cold, err := runMatrix(opts, matrixConfigs)
	if err != nil {
		t.Fatal(err)
	}
	ResetBaselineCache()
	warm, err := runMatrix(opts, matrixConfigs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, cold) {
		t.Errorf("cold-cache rows differ from uncached rows:\n%v\nvs\n%v", cold, plain)
	}
	if !reflect.DeepEqual(plain, warm) {
		t.Errorf("warm-cache rows differ from uncached rows:\n%v\nvs\n%v", warm, plain)
	}
}

// TestMatrixCacheDirFailureFallsBack ensures an unusable cache directory
// degrades to uncached simulation instead of failing the figure.
func TestMatrixCacheDirFailureFallsBack(t *testing.T) {
	opts := matrixOpts(1)
	opts.Workloads = []string{"gcc"}
	opts.Sim.Instructions = 30_000
	opts.CacheDir = string([]byte{0}) // invalid path on every platform

	ResetBaselineCache()
	rows, err := runMatrix(opts, matrixConfigs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
}

// TestMatrixProgressReportsKernel pins the progress line's kernel
// figures: each completed workload reports its runs' wall time, sim-IPS
// and regime mix, and says how many were served from cache.
func TestMatrixProgressReportsKernel(t *testing.T) {
	opts := matrixOpts(1)
	opts.Workloads = []string{"gcc"}
	opts.Sim.Instructions = 30_000
	opts.CacheDir = t.TempDir()
	var cold, warm strings.Builder

	ResetBaselineCache()
	opts.Progress = &cold
	if _, err := runMatrix(opts, matrixConfigs); err != nil {
		t.Fatal(err)
	}
	ResetBaselineCache()
	opts.Progress = &warm
	if _, err := runMatrix(opts, matrixConfigs); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		out, origin string
	}{
		"cold": {cold.String(), "    3 runs: "},
		"warm": {warm.String(), "    3 runs (3 original runs, served from cache): "},
	} {
		if !strings.Contains(c.out, "  gcc            done (baseline IPC ") ||
			!strings.Contains(c.out, c.origin) ||
			!strings.Contains(c.out, "M sim-IPS\n    regime mix of ") ||
			!strings.Contains(c.out, "stepped 0.0%\n") {
			t.Errorf("%s progress lacks the kernel figures:\n%s", name, c.out)
		}
	}
}
