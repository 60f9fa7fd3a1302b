package sweep

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestSyncWriterSerializesConcurrentLines hammers the progress-writer
// fix directly: many goroutines writing whole lines through one
// syncProgress-wrapped buffer must interleave at line granularity —
// every line intact, every write accounted for. Run with -race this
// also proves the wrapped writer is the only synchronization needed.
func TestSyncWriterSerializesConcurrentLines(t *testing.T) {
	var buf bytes.Buffer
	w := syncProgress(&buf)
	const writers, lines = 16, 200
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < lines; i++ {
				fmt.Fprintf(w, "writer-%02d line %03d\n", g, i)
			}
		}(g)
	}
	wg.Wait()
	got := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(got) != writers*lines {
		t.Fatalf("%d lines written, want %d", len(got), writers*lines)
	}
	for _, line := range got {
		var g, i int
		if _, err := fmt.Sscanf(line, "writer-%d line %d", &g, &i); err != nil {
			t.Fatalf("torn or garbled progress line %q: %v", line, err)
		}
	}
}

// TestSyncProgressWrapping pins the wrapper's edges: nil stays nil (so
// the progress == nil fast paths keep working), and re-wrapping an
// already-synchronized writer does not stack another lock.
func TestSyncProgressWrapping(t *testing.T) {
	if syncProgress(nil) != nil {
		t.Error("syncProgress(nil) is not nil")
	}
	var buf bytes.Buffer
	w := syncProgress(&buf)
	if syncProgress(w) != w {
		t.Error("re-wrapping a syncWriter allocated a new one")
	}
}

// TestRunShardProgressRaceHammer drives the real concurrent call site
// of the shared progress writer: a worker pool executing a shard with
// progress aimed at a plain bytes.Buffer. Before the syncProgress fix,
// the pool's goroutines called fmt.Fprintf on that writer
// unsynchronized — a data race -race reports and a source of
// interleaved partial lines. The pool must produce one intact progress
// line per job.
func TestRunShardProgressRaceHammer(t *testing.T) {
	m := mustPlanSecurity(t, []string{"6"}, 1)
	var buf bytes.Buffer
	if _, err := m.RunShard(0, t.TempDir(), 8, &buf); err != nil {
		t.Fatal(err)
	}
	var jobLines int
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasSuffix(line, " simulated"), strings.HasSuffix(line, " cached"):
			jobLines++
		case strings.HasPrefix(line, "  "):
			// pool summary lines (imports, packing) are fine
		default:
			t.Errorf("garbled progress line %q", line)
		}
	}
	if jobLines != len(m.Jobs) {
		t.Errorf("%d job progress lines for %d jobs", jobLines, len(m.Jobs))
	}
}
