package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/simcache"
)

// quickOpts is a small matrix that still spans baseline sharing and
// hot workloads. The budget is sized so swaps actually fire (gcc and
// gups cross T_S within the compressed window): the normalized rows
// then carry full-precision non-1.0 values and the bit-identity
// comparisons below cannot pass vacuously.
func quickOpts() report.PerfOptions {
	return report.PerfOptions{
		Workloads: []string{"gcc", "mcf", "gups"},
		Cores:     2,
		Sim:       sim.Options{Instructions: 200_000, WindowNS: 200_000},
	}
}

// requireNonTrivial fails the calling test if no row carries a
// normalized value different from 1.0 — a vacuously identical matrix
// would make a bit-identity comparison meaningless.
func requireNonTrivial(t *testing.T, rows []report.PerfRow) {
	t.Helper()
	for _, r := range rows {
		for _, v := range r.Norm {
			if v != 1.0 {
				return
			}
		}
	}
	t.Fatal("every normalized value is exactly 1.0; the matrix exercises no mitigation work")
}

func mustPlan(t *testing.T, shards int) *Manifest {
	t.Helper()
	m, err := Plan("14", quickOpts(), shards)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustPlanEvaluation(t *testing.T, figs []string, shards int) *Manifest {
	t.Helper()
	m, err := PlanEvaluation(figs, quickOpts(), PlanOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPlanIsDeterministic(t *testing.T) {
	a := mustPlan(t, 3)
	b := mustPlan(t, 3)
	if !reflect.DeepEqual(a, b) {
		t.Error("two plans of the same sweep differ")
	}
	// 3 workloads x (baseline + rrs + scale-srs) in matrix order; a
	// single figure has no duplicate cells, so nothing dedupes away.
	if len(a.Jobs) != 9 {
		t.Fatalf("planned %d jobs, want 9", len(a.Jobs))
	}
	if a.Jobs[0].Workload != "gcc" || a.Jobs[0].Label != "" ||
		a.Jobs[1].Label != "rrs" || a.Jobs[2].Label != "scale-srs" {
		t.Errorf("matrix order broken: %+v", a.Jobs[:3])
	}
	seen := map[string]bool{}
	for _, j := range a.Jobs {
		if j.Key == "" || seen[j.Key] {
			t.Fatalf("job key empty or duplicated: %+v", j)
		}
		seen[j.Key] = true
	}
	if len(a.Figures) != 1 || a.Figures[0].Fig != "14" {
		t.Fatalf("single-figure plan carries figures %+v", a.Figures)
	}
	// A single figure's fan-out is the identity map.
	for ci, ji := range a.Figures[0].Cells {
		if ci != ji {
			t.Fatalf("single-figure fan-out is not the identity: cell %d -> job %d", ci, ji)
		}
	}
	if err := a.Validate(); err != nil {
		t.Errorf("fresh plan does not validate: %v", err)
	}
}

// TestEvaluationPlanDeduplicates is the planning half of the tentpole
// contract: a whole-evaluation plan must carry strictly fewer jobs than
// the same figures planned one by one, every shared cell (baselines,
// configs recurring across figures) appearing exactly once, while each
// figure's fan-out still covers its full matrix.
func TestEvaluationPlanDeduplicates(t *testing.T) {
	figs := report.PerfFigureIDs()
	eval, err := PlanEvaluation(figs, quickOpts(), PlanOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	perFigure := 0
	for _, id := range figs {
		m, err := Plan(id, quickOpts(), 2)
		if err != nil {
			t.Fatal(err)
		}
		perFigure += len(m.Jobs)
	}
	if len(eval.Jobs) >= perFigure {
		t.Errorf("evaluation plan has %d jobs, per-figure plans total %d: nothing deduplicated", len(eval.Jobs), perFigure)
	}
	// Each of the 3 workloads has exactly one baseline job, however many
	// figures reference it.
	baselines := 0
	for _, j := range eval.Jobs {
		if j.Label == "" {
			baselines++
		}
	}
	if baselines != 3 {
		t.Errorf("evaluation plan has %d baseline jobs, want 3 (one per workload)", baselines)
	}
	// Every figure's fan-out covers its whole matrix and resolves to
	// jobs of the right workload.
	for _, f := range eval.Figures {
		stride := len(f.Labels) + 1
		if len(f.Cells) != len(eval.Workloads)*stride {
			t.Errorf("figure %s fan-out covers %d cells, want %d", f.Fig, len(f.Cells), len(eval.Workloads)*stride)
		}
		for ci, ji := range f.Cells {
			if want := eval.Workloads[ci/stride]; eval.Jobs[ji].Workload != want {
				t.Errorf("figure %s cell %d fans out to job of workload %s, want %s", f.Fig, ci, eval.Jobs[ji].Workload, want)
			}
		}
	}
	if err := eval.Validate(); err != nil {
		t.Errorf("evaluation plan does not validate: %v", err)
	}
	if !reflect.DeepEqual(eval, mustPlanEvaluation(t, figs, 2)) {
		t.Error("two evaluation plans of the same sweep differ")
	}
}

func TestPlanRejectsBadInput(t *testing.T) {
	if _, err := Plan("nope", quickOpts(), 2); err == nil {
		t.Error("unknown figure accepted")
	}
	if _, err := Plan("14", quickOpts(), 0); err == nil {
		t.Error("zero shards accepted")
	}
	for _, strategy := range []string{"random", "cost"} {
		if _, err := PlanEvaluation([]string{"14"}, quickOpts(), PlanOptions{Shards: 2, Strategy: strategy}); err == nil {
			t.Errorf("unknown strategy %q accepted", strategy)
		}
	}
	if _, err := PlanEvaluation(nil, quickOpts(), PlanOptions{Shards: 2}); err == nil {
		t.Error("empty figure set accepted")
	}
	if _, err := PlanEvaluation([]string{"14", "14"}, quickOpts(), PlanOptions{Shards: 2}); err == nil {
		t.Error("duplicate figure accepted")
	}
}

// TestShardAssignmentCoversAllShards pins the one assignment: job i
// goes to shard i mod Shards, so every shard gets work and an explicit
// "round-robin" strategy plans the same manifest as the default.
func TestShardAssignmentCoversAllShards(t *testing.T) {
	m := mustPlan(t, 2)
	for i, j := range m.Jobs {
		if j.Shard != i%2 {
			t.Errorf("job %d (%s) on shard %d, want %d", i, j.desc(), j.Shard, i%2)
		}
	}
	rr, err := PlanEvaluation([]string{"14"}, quickOpts(), PlanOptions{Shards: 2, Strategy: StrategyRoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, rr) {
		t.Error("an explicit round-robin strategy plans a different manifest than the default")
	}
}

func TestManifestRoundTripsThroughJSON(t *testing.T) {
	m := mustPlanEvaluation(t, []string{"4", "14"}, 2)
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, loaded) {
		t.Errorf("manifest changed across save/load:\nsaved:  %+v\nloaded: %+v", m, loaded)
	}
	if err := loaded.Validate(); err != nil {
		t.Errorf("loaded manifest does not validate: %v", err)
	}
}

// TestValidateRejectsCorruptManifests is the table test of the
// hardened structural validation: every corruption an operator can
// realistically produce (hand-edits, mismatched -shards, truncation)
// must be rejected with an error naming the offending job or figure
// and telling the operator what to do.
func TestValidateRejectsCorruptManifests(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Manifest)
		wantErr []string
	}{
		{"stale schema", func(m *Manifest) { m.Schema = 1 },
			[]string{"schema 1", "re-run plan"}},
		{"schema 2", func(m *Manifest) { m.Schema = 2 },
			[]string{"schema 2", "re-run plan"}},
		{"zero shards", func(m *Manifest) { m.Shards = 0 },
			[]string{"0 shards", "at least 1"}},
		{"no figures", func(m *Manifest) { m.Figures = nil },
			[]string{"no figures"}},
		{"no jobs", func(m *Manifest) { m.Jobs = nil },
			[]string{"no jobs"}},
		{"duplicate figure", func(m *Manifest) { m.Figures = append(m.Figures, m.Figures[0]) },
			[]string{"appears twice", "re-run plan"}},
		{"empty job key", func(m *Manifest) { m.Jobs[2].Key = "" },
			[]string{"job 2", "empty cache key"}},
		{"duplicate job key", func(m *Manifest) { m.Jobs[3].Key = m.Jobs[4].Key },
			[]string{"jobs 3", "and 4", "share cache key", "re-run plan"}},
		{"negative shard", func(m *Manifest) { m.Jobs[1].Shard = -1 },
			[]string{"job 1", "shard -1", "valid: 0…1"}},
		{"shard beyond range", func(m *Manifest) { m.Jobs[1].Shard = 7 },
			[]string{"job 1", "shard 7", "2 shards", "valid: 0…1"}},
		{"fan-out beyond jobs", func(m *Manifest) { m.Figures[0].Cells[5] = len(m.Jobs) },
			[]string{"figure 4", "cell 5", "fan-out map is corrupt"}},
		{"negative fan-out", func(m *Manifest) { m.Figures[1].Cells[0] = -2 },
			[]string{"figure 14", "cell 0", "fan-out map is corrupt"}},
		{"orphaned job", func(m *Manifest) {
			// Point every reference to gcc's baseline job away from it.
			for fi := range m.Figures {
				for ci := range m.Figures[fi].Cells {
					if m.Figures[fi].Cells[ci] == 0 {
						m.Figures[fi].Cells[ci] = 1
					}
				}
			}
		}, []string{"job 0", "referenced by no figure"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := mustPlanEvaluation(t, []string{"4", "14"}, 2)
			tc.mutate(m)
			err := m.Validate()
			if err == nil {
				t.Fatal("corrupt manifest validated")
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

func TestExpandRejectsTamperedManifest(t *testing.T) {
	tamper := map[string]func(*Manifest){
		"binary":        func(m *Manifest) { m.Binary = "deadbeef" },
		"job key":       func(m *Manifest) { m.Jobs[3].Key = "0123456789abcdef" },
		"job identity":  func(m *Manifest) { m.Jobs[0].Workload = "gups" },
		"dropped job":   func(m *Manifest) { m.Jobs = m.Jobs[:len(m.Jobs)-1] },
		"workload list": func(m *Manifest) { m.Workloads = m.Workloads[:2] },
		"swapped fan-out": func(m *Manifest) {
			c := m.Figures[0].Cells
			c[0], c[3] = c[3], c[0]
		},
	}
	for name, mutate := range tamper {
		t.Run(name, func(t *testing.T) {
			m := mustPlanEvaluation(t, []string{"4", "14"}, 2)
			mutate(m)
			if err := m.Validate(); err == nil {
				t.Errorf("tampered manifest (%s) validated", name)
			}
		})
	}
}

// TestShardedSweepMatchesInProcessMatrix is the in-process half of the
// determinism contract (the process-boundary half is the end-to-end
// test): running every shard into its own cache directory and merging
// must yield rows bit-identical to report.Fig14 on the same options.
func TestShardedSweepMatchesInProcessMatrix(t *testing.T) {
	opt := quickOpts()
	report.ResetBaselineCache()
	want, err := report.Fig14(io.Discard, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireNonTrivial(t, want)

	// The subtest is named for the assignment the shards are dealt by.
	t.Run("round-robin", func(t *testing.T) {
		m, err := Plan("14", opt, 2)
		if err != nil {
			t.Fatal(err)
		}
		base := t.TempDir()
		var dirs []string
		for shard := 0; shard < m.Shards; shard++ {
			dir := filepath.Join(base, "worker", string(rune('0'+shard)))
			dirs = append(dirs, dir)
			stats, err := m.RunShard(shard, dir, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Jobs == 0 {
				t.Fatalf("shard %d ran no jobs", shard)
			}
		}
		res, err := m.Merge(filepath.Join(base, "merged"), dirs, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows, ok := res.FigureRows("14")
		if !ok {
			t.Fatal("merged results carry no figure 14")
		}
		if !reflect.DeepEqual(want, rows) {
			t.Errorf("sharded rows differ from in-process rows:\nwant: %+v\ngot:  %+v", want, rows)
		}
	})
}

// TestEvaluationSweepMatchesPerFigureRuns is the whole-evaluation
// analogue: one deduplicated manifest spanning several figures, run
// shard by shard and merged once, must reconstruct every figure's rows
// bit-identical to that figure's own in-process run.
func TestEvaluationSweepMatchesPerFigureRuns(t *testing.T) {
	opt := quickOpts()
	figs := []string{"4", "12", "14"}
	want := map[string][]report.PerfRow{}
	for _, id := range figs {
		report.ResetBaselineCache()
		var err error
		switch id {
		case "4":
			want[id], err = report.Fig4(io.Discard, opt)
		case "12":
			want[id], err = report.Fig12(io.Discard, opt)
		case "14":
			want[id], err = report.Fig14(io.Discard, opt)
		}
		if err != nil {
			t.Fatal(err)
		}
		requireNonTrivial(t, want[id])
	}

	m := mustPlanEvaluation(t, figs, 2)
	base := t.TempDir()
	var dirs []string
	totalJobs := 0
	for shard := 0; shard < m.Shards; shard++ {
		dir := filepath.Join(base, "worker", string(rune('0'+shard)))
		dirs = append(dirs, dir)
		stats, err := m.RunShard(shard, dir, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		totalJobs += stats.Jobs
	}
	if totalJobs != len(m.Jobs) {
		t.Fatalf("shards ran %d jobs, manifest lists %d", totalJobs, len(m.Jobs))
	}
	res, err := m.Merge(filepath.Join(base, "merged"), dirs, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Figures) != len(figs) {
		t.Fatalf("merged results cover %d figures, want %d", len(res.Figures), len(figs))
	}
	for _, id := range figs {
		rows, ok := res.FigureRows(id)
		if !ok {
			t.Errorf("merged results carry no figure %s", id)
			continue
		}
		if !reflect.DeepEqual(want[id], rows) {
			t.Errorf("figure %s: evaluation-merged rows differ from its in-process run:\nwant: %+v\ngot:  %+v", id, want[id], rows)
		}
	}
}

// TestRunShardIsIdempotent re-runs a shard over its own cache: the
// second pass must be all hits and leave the merged rows unchanged.
func TestRunShardIsIdempotent(t *testing.T) {
	m := mustPlan(t, 1)
	dir := t.TempDir()
	cold, err := m.RunShard(0, dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Hits != 0 {
		t.Errorf("cold shard run reported %d hits", cold.Hits)
	}
	warm, err := m.RunShard(0, dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Hits != warm.Jobs {
		t.Errorf("warm shard run: %d of %d jobs hit", warm.Hits, warm.Jobs)
	}
}

// TestMergeReportsMissingShard proves an incomplete sweep fails loudly,
// naming the shard whose results are absent.
func TestMergeReportsMissingShard(t *testing.T) {
	m := mustPlan(t, 2)
	dir := t.TempDir()
	if _, err := m.RunShard(0, filepath.Join(dir, "w0"), 0, nil); err != nil {
		t.Fatal(err)
	}
	// Worker 1 never ran.
	_, err := m.Merge(filepath.Join(dir, "merged"), []string{filepath.Join(dir, "w0")}, false, nil)
	if err == nil {
		t.Fatal("merge of an incomplete sweep succeeded")
	}
	if got := err.Error(); !strings.Contains(got, "shard 1") {
		t.Errorf("merge error does not name the missing shard: %v", err)
	}
}

// TestMergeCopiesOnlyValidManifestEntries pins the merge's copy path:
// worker directories holding a packed index, a checksum-corrupted loose
// copy of a manifest entry, and a stray entry of another sweep still
// merge bit-identically to a clean merge; the merged directory ends up
// with exactly the manifest's entries, each byte-identical to the
// worker's valid copy; and a missing worker directory fails the merge.
func TestMergeCopiesOnlyValidManifestEntries(t *testing.T) {
	m := mustPlan(t, 2)
	base := t.TempDir()
	w0, w1 := filepath.Join(base, "w0"), filepath.Join(base, "w1")
	for shard, dir := range []string{w0, w1} {
		if _, err := m.RunShard(shard, dir, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	want, err := m.Merge(filepath.Join(base, "clean"), []string{w0, w1}, false, nil)
	if err != nil {
		t.Fatal(err)
	}

	// w0: every entry packed. w1: a corrupt loose copy of one of w0's
	// entries (payload byte flipped, so only the checksum catches it)
	// and a valid entry no manifest job references.
	c0, err := simcache.Open(w0)
	if err != nil {
		t.Fatal(err)
	}
	victim := m.Jobs[0].Key // round-robin deals job 0 to shard 0
	valid, ok := c0.GetRaw(victim)
	if !ok {
		t.Fatal("worker 0 lacks its own entry")
	}
	if n, err := c0.PackLoose("shard"); err != nil || n == 0 {
		t.Fatalf("pack worker 0: %d entries, %v", n, err)
	}
	corrupt := append([]byte(nil), valid...)
	i := bytes.LastIndexAny(corrupt, "123456789")
	corrupt[i] = '0'
	if err := os.WriteFile(filepath.Join(w1, victim+".json"), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	stray := simcache.Key("another sweep")
	c1, err := simcache.Open(w1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put(stray, 1); err != nil {
		t.Fatal(err)
	}

	merged := filepath.Join(base, "merged")
	got, err := m.Merge(merged, []string{w1, w0}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("merge over packed and corrupt worker dirs differs from a clean merge")
	}
	entries, err := filepath.Glob(filepath.Join(merged, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(m.Jobs) {
		t.Errorf("merged dir holds %d entries, want exactly the manifest's %d", len(entries), len(m.Jobs))
	}
	if _, err := os.Stat(filepath.Join(merged, stray+".json")); !os.IsNotExist(err) {
		t.Error("an entry no manifest job references was copied into the merged dir")
	}
	if copied, err := os.ReadFile(filepath.Join(merged, victim+".json")); err != nil ||
		!bytes.Equal(bytes.TrimSpace(copied), valid) {
		t.Errorf("merged copy of the corrupted entry is not the valid worker bytes: %v\n%s", err, copied)
	}

	if _, err := m.Merge(filepath.Join(base, "merged2"), []string{w0, filepath.Join(base, "w9")}, false, nil); err == nil {
		t.Error("merge over a missing worker directory succeeded")
	}
}

// TestLeftoverCostSidecarIsIgnored covers stores written by older
// builds, which keep a measured-cost sidecar ("costs.jsonl") next to
// their entries. Get, Put, PackLoose and a Merge over such directories
// work as over clean ones, and the sidecar is left alone: its bytes and
// modification time are unchanged (an age-pruning Open does not delete
// it even though it is older than any entry would be kept), it is not
// packed or counted as an entry, and it is not copied into mergedDir.
func TestLeftoverCostSidecarIsIgnored(t *testing.T) {
	const sidecar = "costs.jsonl"
	m := mustPlan(t, 2)
	base := t.TempDir()
	w0, w1 := filepath.Join(base, "w0"), filepath.Join(base, "w1")
	// The old line format, one line per job, keyed by the job's own
	// result key.
	var lines bytes.Buffer
	for _, j := range m.Jobs {
		fmt.Fprintf(&lines, "{\"key\":%q,\"seconds\":1.5}\n", j.Key)
	}
	old := time.Now().Add(-60 * 24 * time.Hour).Truncate(time.Second)
	for _, dir := range []string{w0, w1} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, sidecar)
		if err := os.WriteFile(path, lines.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
	}

	// Get misses and Puts, through the shards.
	for shard, dir := range []string{w0, w1} {
		if _, err := m.RunShard(shard, dir, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Get, Put and PackLoose directly.
	c0, err := simcache.Open(w0)
	if err != nil {
		t.Fatal(err)
	}
	var res json.RawMessage
	if hit, err := c0.Get(m.Jobs[0].Key, &res); err != nil || !hit {
		t.Fatalf("Get of shard 0's first job: hit=%v err=%v", hit, err)
	}
	extra := simcache.Key("an entry next to the sidecar")
	if err := c0.Put(extra, 7); err != nil {
		t.Fatal(err)
	}
	var seven int
	if hit, err := c0.Get(extra, &seven); err != nil || !hit || seven != 7 {
		t.Fatalf("Get after Put: hit=%v err=%v value=%d", hit, err, seven)
	}
	loose, err := filepath.Glob(filepath.Join(w0, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := c0.PackLoose("shard"); err != nil || n != len(loose) {
		t.Fatalf("PackLoose packed %d entries (err %v), want the %d loose entries only", n, err, len(loose))
	}

	merged := filepath.Join(base, "merged")
	got, err := m.Merge(merged, []string{w0, w1}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(merged, sidecar)); !os.IsNotExist(err) {
		t.Errorf("the sidecar was copied into the merged dir (stat: %v)", err)
	}
	for _, dir := range []string{w0, w1} {
		path := filepath.Join(dir, sidecar)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("sidecar in %s: %v", dir, err)
		}
		if !bytes.Equal(data, lines.Bytes()) {
			t.Errorf("sidecar in %s was rewritten", dir)
		}
		if info, err := os.Stat(path); err != nil || !info.ModTime().Equal(old) {
			t.Errorf("sidecar in %s was touched: %v", dir, err)
		}
	}

	// Without the sidecars the same worker dirs merge to the same rows.
	for _, dir := range []string{w0, w1} {
		if err := os.Remove(filepath.Join(dir, sidecar)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := m.Merge(filepath.Join(base, "clean"), []string{w0, w1}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("a merge over dirs with a leftover sidecar differs from one without")
	}
}

// TestMergedResultsRenderAndRoundTrip exercises the Results artifact:
// save, load, and render must reproduce the figure output of the
// in-process run byte for byte.
func TestMergedResultsRenderAndRoundTrip(t *testing.T) {
	opt := quickOpts()
	report.ResetBaselineCache()
	var wantBuf bytes.Buffer
	wantRows, err := report.Fig14(&wantBuf, opt)
	if err != nil {
		t.Fatal(err)
	}
	m := mustPlan(t, 1)
	dir := t.TempDir()
	if _, err := m.RunShard(0, filepath.Join(dir, "w0"), 0, nil); err != nil {
		t.Fatal(err)
	}
	res, err := m.Merge(filepath.Join(dir, "merged"), []string{filepath.Join(dir, "w0")}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "results.json")
	if err := res.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	rows, ok := loaded.FigureRows("14")
	if !ok {
		t.Fatal("loaded results carry no figure 14")
	}
	if !reflect.DeepEqual(wantRows, rows) {
		t.Error("rows changed across results save/load")
	}
	var gotBuf bytes.Buffer
	if err := loaded.Render(&gotBuf); err != nil {
		t.Fatal(err)
	}
	if wantBuf.String() != gotBuf.String() {
		t.Errorf("rendered figure differs from in-process output:\nwant:\n%s\ngot:\n%s", wantBuf.String(), gotBuf.String())
	}
}
