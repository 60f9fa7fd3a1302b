package sweep

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/simcache"
)

// secPlanOpts keeps security plans small: 9 trials per cell cut into
// batches of 4 — two full batches plus a short tail batch, so batch
// coverage validation and the oracle comparison both exercise the
// uneven-tail path.
func secPlanOpts(shards int) PlanOptions {
	return PlanOptions{
		Shards:   shards,
		Strategy: StrategyRoundRobin,
		MCTrials: 9,
		MCBatch:  4,
		MCSeed:   0x51,
	}
}

func mustPlanSecurity(t *testing.T, figs []string, shards int) *Manifest {
	t.Helper()
	m, err := PlanEvaluation(figs, report.PerfOptions{}, secPlanOpts(shards))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPlanSecurityOnlyManifest(t *testing.T) {
	m := mustPlanSecurity(t, []string{"6", "t4"}, 2)
	if !reflect.DeepEqual(m, mustPlanSecurity(t, []string{"6", "t4"}, 2)) {
		t.Error("two security plans of the same sweep differ")
	}
	if m.Security == nil {
		t.Fatal("no security section")
	}
	s := m.Security
	if s.Seed != 0x51 || s.Trials != 9 || s.Batch != 4 {
		t.Fatalf("security params not recorded: %+v", s)
	}
	// Fig 6 has 15 cells; t4 is closed-form (no cells). 9 trials in
	// batches of 4 → 3 batches per cell.
	if len(s.Cells) != 15 || len(s.Figures) != 2 {
		t.Fatalf("%d cells / %d figures, want 15 / 2", len(s.Cells), len(s.Figures))
	}
	if len(m.Jobs) != 45 {
		t.Fatalf("planned %d jobs, want 45", len(m.Jobs))
	}
	for i, j := range m.Jobs {
		if j.kind() != JobKindMC || j.MC == nil || j.Workload != MCWorkload {
			t.Fatalf("job %d is not a Monte-Carlo batch: %+v", i, j)
		}
		if j.MC.Cell != i/3 || j.MC.Batch != i%3 {
			t.Fatalf("job %d out of (cell, batch) order: %+v", i, j.MC)
		}
		if want := 4 - 3*(i%3/2); j.MC.Trials != want { // 4, 4, then the short tail of 1
			t.Fatalf("job %d has %d trials, want %d", i, j.MC.Trials, want)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("planned manifest fails validation: %v", err)
	}
}

func TestPlanMixedManifest(t *testing.T) {
	m, err := PlanEvaluation([]string{"14", "6"}, quickOpts(), secPlanOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	// Simulation jobs first (3 workloads x 3 configs), then the trial
	// batches.
	if len(m.Jobs) != 9+45 {
		t.Fatalf("planned %d jobs, want 54", len(m.Jobs))
	}
	for i, j := range m.Jobs {
		if wantSim := i < 9; (j.kind() == JobKindSim) != wantSim {
			t.Fatalf("job %d kind %q breaks the simulation-jobs-first layout", i, j.kind())
		}
	}
	if len(m.Figures) != 1 || m.Figures[0].Fig != "14" {
		t.Fatalf("perf figures: %+v", m.Figures)
	}
	if m.Security == nil || len(m.Security.Figures) != 1 || m.Security.Figures[0].Fig != "6" {
		t.Fatalf("security figures: %+v", m.Security)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("mixed manifest fails validation: %v", err)
	}
	// Both kinds must flow through the daemon queue unchanged.
	qj := m.QueueJobs()
	if len(qj) != len(m.Jobs) || qj[len(qj)-1].Workload != MCWorkload {
		t.Fatalf("queue jobs do not cover the Monte-Carlo block: %d entries", len(qj))
	}
}

// A schema-2 results file — merged before generic job kinds existed —
// must still render: results files carry no binary fingerprint, so a
// saved perf-only merge stays readable across builds. (Schema-2
// manifests are rejected: no worker of this build could run one.)
func TestSchema2ResultsStillRender(t *testing.T) {
	m := mustPlan(t, 1, StrategyRoundRobin)
	dir := t.TempDir()
	if _, err := m.RunShard(0, dir, 0, nil); err != nil {
		t.Fatal(err)
	}
	res, err := m.Merge(dir, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	res.Schema = 2
	var buf strings.Builder
	if err := res.Render(&buf); err != nil || buf.Len() == 0 {
		t.Fatalf("schema-2 results render: %v", err)
	}
}

// Every corruption an edited or damaged schema-3 manifest can carry
// must fail validation with an error naming the problem and the fix.
func TestValidateRejectsBadSchema3Manifests(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(m *Manifest)
		wantErr string
	}{
		{"unknown job kind",
			func(m *Manifest) { m.Jobs[0].Kind = "quantum" },
			`unknown kind "quantum"`},
		{"duplicate tally batch",
			func(m *Manifest) { m.Jobs[1].MC.Batch = 0 },
			"duplicate tally keys"},
		{"mc job without cell ref",
			func(m *Manifest) { m.Jobs[0].MC = nil },
			"names no cell"},
		{"mc cell out of range",
			func(m *Manifest) { m.Jobs[0].MC.Cell = 99 },
			"lists only"},
		{"empty trial batch",
			func(m *Manifest) { m.Jobs[0].MC.Trials = 0 },
			"non-empty"},
		{"zero trial count",
			func(m *Manifest) { m.Security.Trials = 0 },
			"must be positive"},
		{"batch trials do not sum",
			func(m *Manifest) { m.Jobs[2].MC.Trials = 5 },
			"sum to"},
		{"missing batch job",
			func(m *Manifest) { m.Jobs = m.Jobs[:len(m.Jobs)-1] },
			"batch jobs"},
		{"duplicate security figure",
			func(m *Manifest) { m.Security.Figures = append(m.Security.Figures, m.Security.Figures[0]) },
			"appears twice"},
		{"figure fan-out out of range",
			func(m *Manifest) { m.Security.Figures[0].Cells[0] = 99 },
			"fan-out map is corrupt"},
		{"unreferenced security cell",
			func(m *Manifest) { m.Security.Figures[0].Cells = m.Security.Figures[0].Cells[:14] },
			"referenced by no figure"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := mustPlanSecurity(t, []string{"6"}, 1)
			c.mutate(m)
			err := m.ValidateStructure()
			if err == nil {
				t.Fatal("corrupt manifest validated")
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

func mcRowBits(r MonteCarloRow) [4]uint64 {
	return [4]uint64{uint64(r.Result.Iterations),
		math.Float64bits(r.Result.MeanTimeNS),
		math.Float64bits(r.Result.MeanEpochs),
		math.Float64bits(r.Result.StdErrTimeNS)}
}

// The tentpole guarantee at unit scale: Fig. 6's trial batches sharded
// across two worker cache directories and merged are bit-identical to
// the single-process oracle running the same seeded stream — every
// float of every row.
func TestDistributedSecurityMatchesOracle(t *testing.T) {
	m := mustPlanSecurity(t, []string{"6"}, 2)
	dirA, dirB := t.TempDir(), t.TempDir()
	if _, err := m.RunShard(0, dirA, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunShard(1, dirB, 0, nil); err != nil {
		t.Fatal(err)
	}
	// Import order B-then-A: merge must not care.
	res, err := m.Merge(t.TempDir(), []string{dirB, dirA}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, ok := res.SecurityRows("6")
	if !ok || len(rows) != 15 {
		t.Fatalf("figure 6 rows missing or short: %d", len(rows))
	}
	oracle := report.RunSecurityCells(m.Security.Cells, m.Security.Seed, m.Security.Trials, m.Security.Batch)
	for i, row := range rows {
		want := MonteCarloRow{Label: row.Label, Result: oracle[i]}
		if mcRowBits(row) != mcRowBits(want) || row.Result.Tail != oracle[i].Tail || row.Result.Skipped != oracle[i].Skipped {
			t.Errorf("cell %d (%s): distributed %+v != oracle %+v", i, row.Label, row.Result, oracle[i])
		}
	}
	// The distributed rows must actually span regimes, or the identity
	// proves less than it claims.
	var direct, tail bool
	for _, row := range rows {
		if row.Result.Tail {
			tail = true
		} else if !row.Result.Skipped {
			direct = true
		}
	}
	if !direct || !tail {
		t.Errorf("rows cover direct=%v tail=%v; want both regimes", direct, tail)
	}
	// Round trip through the results file and render.
	path := t.TempDir() + "/results.json"
	if err := res.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	lrows, _ := loaded.SecurityRows("6")
	for i := range rows {
		if mcRowBits(lrows[i]) != mcRowBits(rows[i]) {
			t.Fatalf("cell %d changed across the results file round trip", i)
		}
	}
	var buf strings.Builder
	if err := loaded.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "MC@4800") {
		t.Error("rendered output lacks the Monte-Carlo column")
	}
}

// A stored tally that decodes but violates its invariants must fail
// the merge loudly — never silently fold garbage into a figure.
func TestMergeRejectsCorruptTally(t *testing.T) {
	m := mustPlanSecurity(t, []string{"6"}, 1)
	dir := t.TempDir()
	if _, err := m.RunShard(0, dir, 0, nil); err != nil {
		t.Fatal(err)
	}
	cache, err := simcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Valid envelope, invalid payload: a tally that declares a trial it
	// cannot account for.
	if err := cache.Put(m.Jobs[0].Key, json.RawMessage(`{"trials":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Merge(t.TempDir(), []string{dir}, false, nil); err == nil ||
		!strings.Contains(err.Error(), "invalid") {
		t.Errorf("merge accepted a corrupt tally: %v", err)
	}
}

// Deleting a batch entry must surface as an audited "missing" failure
// naming the job, exactly like a missing simulation result.
func TestMergeAuditsMissingTally(t *testing.T) {
	m := mustPlanSecurity(t, []string{"6"}, 1)
	dir := t.TempDir()
	if _, err := m.RunShard(0, dir, 0, nil); err != nil {
		t.Fatal(err)
	}
	victim := m.Jobs[7]
	if err := os.Remove(filepath.Join(dir, victim.Key+".json")); err != nil {
		t.Fatal(err)
	}
	_, err := m.Merge(t.TempDir(), []string{dir}, false, nil)
	if err == nil || !strings.Contains(err.Error(), "missing") || !strings.Contains(err.Error(), victim.Label) {
		t.Errorf("missing tally not audited by name: %v", err)
	}
}
