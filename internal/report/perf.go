package report

import (
	"fmt"
	"io"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// PerfOptions selects the workload set and simulation scale for the
// performance figures.
type PerfOptions struct {
	// Workloads restricts the evaluation set (nil = all 78).
	Workloads []string
	// Cores per workload (default 8, Table III).
	Cores int
	// Sim carries the simulation scale knobs.
	Sim sim.Options
	// Workers is the size of the goroutine pool the experiment matrix is
	// spread over (0 = GOMAXPROCS, 1 = serial). Every simulation is an
	// independent deterministic job, so the resulting rows are identical
	// for any worker count.
	Workers int
	// CacheDir, when non-empty, enables the persistent result cache
	// (internal/simcache) rooted at that directory: every simulation of
	// the matrix — baselines and mitigated runs alike — is served from
	// disk when an entry for the same workload, configuration, options,
	// and binary exists. Results are deterministic, so caching cannot
	// change any normalized number.
	CacheDir string
	// Progress, if non-nil, receives one entry per completed workload:
	// its baseline IPC, then its runs' wall time, sim-IPS and regime
	// mix (marked when runs were served from cache).
	Progress io.Writer
}

func (o PerfOptions) withDefaults() PerfOptions {
	if o.Cores <= 0 {
		o.Cores = 8
	}
	return o
}

// QuickWorkloads is a 12-workload subset spanning all suites, used by
// the benchmark harness where running all 78 would be prohibitive.
var QuickWorkloads = []string{
	"gups", "gcc", "hmmer", "mcf", "povray", // SPEC2K6 + GUPS
	"xz_17", "lbm_17", // SPEC2K17
	"pr",      // GAP
	"comm1",   // COMMERCIAL
	"canneal", // PARSEC
	"mummer",  // BIOBENCH
	"mix5",    // MIX
}

func (o PerfOptions) workloadSet() []trace.Workload {
	all := trace.Workloads(o.Cores)
	if o.Workloads == nil {
		return all
	}
	byName := map[string]trace.Workload{}
	for _, w := range all {
		byName[w.Name] = w
	}
	var out []trace.Workload
	for _, name := range o.Workloads {
		if w, ok := byName[name]; ok {
			out = append(out, w)
		}
	}
	return out
}

// PerfRow is one workload's normalized performance under each evaluated
// configuration (keyed by config label).
type PerfRow struct {
	Workload string
	Suite    string
	HasHot   bool
	Norm     map[string]float64
}

// suiteMeans aggregates normalized performance per suite (and ALL), in
// the paper's suite display order.
func suiteMeans(rows []PerfRow, label string) ([]string, []float64) {
	bySuite := map[string][]float64{}
	var all []float64
	for _, r := range rows {
		v := r.Norm[label]
		bySuite[r.Suite] = append(bySuite[r.Suite], v)
		all = append(all, v)
	}
	var names []string
	var vals []float64
	for _, s := range trace.SuiteOrder {
		if xs, ok := bySuite[s]; ok {
			names = append(names, s)
			vals = append(vals, stats.GeoMean(xs))
		}
	}
	names = append(names, fmt.Sprintf("ALL-%d", len(all)))
	vals = append(vals, stats.GeoMean(all))
	return names, vals
}

func printSuiteTable(w io.Writer, rows []PerfRow, labels []string) {
	fmt.Fprintf(w, "%-22s", "suite")
	for _, l := range labels {
		fmt.Fprintf(w, "%22s", l)
	}
	fmt.Fprintln(w)
	names, _ := suiteMeans(rows, labels[0])
	cols := make([][]float64, len(labels))
	for i, l := range labels {
		_, cols[i] = suiteMeans(rows, l)
	}
	for r, name := range names {
		fmt.Fprintf(w, "%-22s", name)
		for i := range labels {
			fmt.Fprintf(w, "%22.4f", cols[i][r])
		}
		fmt.Fprintln(w)
	}
}

// Fig4 reproduces Figure 4: RRS with and without immediate unswaps.
// Expect the no-unswap variant to lose an extra few percent from its
// window-end unravel spikes.
func Fig4(w io.Writer, opt PerfOptions) ([]PerfRow, error) {
	return runFigure(w, opt, fig4Spec())
}

// Fig14 reproduces Figure 14: per-workload normalized performance of
// Scale-SRS and RRS at T_RH 1200 with the Misra-Gries tracker. The
// detailed panel lists workloads with hot rows (>800 ACTs/window); suite
// and ALL averages follow.
func Fig14(w io.Writer, opt PerfOptions) ([]PerfRow, error) {
	return runFigure(w, opt, fig14Spec())
}

// Fig15 reproduces Figure 15: sensitivity to T_RH from 4800 down to 512
// with the Misra-Gries tracker.
func Fig15(w io.Writer, opt PerfOptions) ([]PerfRow, error) {
	f, _ := PerfFigureByID("15")
	return runFigure(w, opt, f)
}

// Fig16 reproduces Figure 16: the same sweep with the Hydra tracker,
// whose DRAM-resident counters add traffic at low T_RH.
func Fig16(w io.Writer, opt PerfOptions) ([]PerfRow, error) {
	f, _ := PerfFigureByID("16")
	return runFigure(w, opt, f)
}

// Comparators evaluates the §IX-A related-work mechanisms (BlockHammer
// throttling, AQUA quarantine) against Scale-SRS at the given T_RH,
// reproducing the qualitative comparison: BlockHammer suffers
// DoS-style slowdowns on hot workloads, AQUA behaves comparably to
// swap-based isolation but reserves quarantine capacity.
func Comparators(w io.Writer, opt PerfOptions, trh int) ([]PerfRow, error) {
	return runFigure(w, opt, comparatorSpec(trh))
}

// Fig12 reproduces Figure 12: SRS performs like RRS (same swap rate 6)
// across T_RH values — SRS fixes security, Scale-SRS fixes scalability.
func Fig12(w io.Writer, opt PerfOptions) ([]PerfRow, error) {
	return runFigure(w, opt, fig12Spec())
}
