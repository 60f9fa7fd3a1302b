package simcache

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fill stores n distinct payloads and returns their keys in Put order.
func fill(t *testing.T, c *Cache, tag string, n int) []string {
	t.Helper()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = Key(tag, i)
		if err := c.Put(keys[i], map[string]int{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

func TestPackLooseServesSameEntries(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := fill(t, c, "pack", 8)
	n, err := c.PackLoose("shard-index")
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("packed %d entries, want 8", n)
	}
	// The loose files must be gone, replaced by one pack file.
	loose, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(loose) != 0 {
		t.Errorf("%d loose files survive packing", len(loose))
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-index.pack")); err != nil {
		t.Fatalf("pack file missing: %v", err)
	}
	// Both the packing cache and a fresh Open must serve every entry.
	for name, cache := range map[string]*Cache{"same": c} {
		for i, key := range keys {
			var v map[string]int
			if hit, err := cache.Get(key, &v); err != nil || !hit {
				t.Fatalf("%s cache: Get(%d) = (%v, %v), want hit", name, i, hit, err)
			}
			if v["i"] != i {
				t.Errorf("%s cache: entry %d holds %v", name, i, v)
			}
		}
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range keys {
		var v map[string]int
		if hit, _ := reopened.Get(key, &v); !hit || v["i"] != i {
			t.Fatalf("reopened cache: entry %d not served from pack (hit=%v v=%v)", i, hit, v)
		}
	}
}

// TestRepeatedPackingNeverDiscardsEntries is the regression test for
// repeated merges into one cache directory: a second PackLoose with the
// same name must not overwrite the first pack — every entry from both
// rounds stays servable, across a fresh Open too.
func TestRepeatedPackingNeverDiscardsEntries(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := fill(t, c, "round1", 3)
	if n, err := c.PackLoose("shard-index"); err != nil || n != 3 {
		t.Fatalf("first pack = (%d, %v)", n, err)
	}
	second := fill(t, c, "round2", 4)
	if n, err := c.PackLoose("shard-index"); err != nil || n != 4 {
		t.Fatalf("second pack = (%d, %v)", n, err)
	}
	packs, _ := filepath.Glob(filepath.Join(dir, "*.pack"))
	if len(packs) != 2 {
		t.Fatalf("%d pack files after two rounds, want 2 (no overwrite)", len(packs))
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, cache := range []*Cache{c, reopened} {
		for i, key := range append(append([]string(nil), first...), second...) {
			var v map[string]int
			if hit, _ := cache.Get(key, &v); !hit {
				t.Fatalf("entry %d lost after repeated packing", i)
			}
		}
	}
}

func TestLooseEntryShadowsPackedEntry(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("shadow")
	if err := c.Put(key, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PackLoose("p"); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key, 2); err != nil {
		t.Fatal(err)
	}
	var v int
	if hit, _ := c.Get(key, &v); !hit || v != 2 {
		t.Errorf("Get = (%v, %d), want the fresher loose value 2", hit, v)
	}
}

func TestCorruptPackedEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := fill(t, c, "corrupt-pack", 3)
	if _, err := c.PackLoose("p"); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the pack's middle entry payload.
	path := filepath.Join(dir, "p.pack")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, key := range keys {
		var v map[string]int
		if hit, err := fresh.Get(key, &v); err != nil {
			t.Fatal(err)
		} else if hit {
			hits++
		}
	}
	if hits != 2 {
		t.Errorf("%d of 3 entries served from the corrupted pack, want exactly 2", hits)
	}
}

// copyEntries copies each key a sweep merge would ask for from src into
// dst the way the merge does (GetRaw, then PutRaw) and returns how many
// were copied. A key src can not serve validly is skipped.
func copyEntries(t *testing.T, dst, src *Cache, keys []string) int {
	t.Helper()
	n := 0
	for _, key := range keys {
		data, ok := src.GetRaw(key)
		if !ok {
			continue
		}
		if err := dst.PutRaw(key, data); err != nil {
			t.Fatal(err)
		}
		n++
	}
	return n
}

// TestImportDirUnionsLooseAndPacked pins that a merged cache built by
// copying from one worker dir with loose entries and one with packed
// entries serves the union of both.
func TestImportDirUnionsLooseAndPacked(t *testing.T) {
	a, err := Open(t.TempDir()) // loose entries
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(t.TempDir()) // packed entries
	if err != nil {
		t.Fatal(err)
	}
	keysA := fill(t, a, "import-a", 3)
	keysB := fill(t, b, "import-b", 4)
	if _, err := b.PackLoose("shard"); err != nil {
		t.Fatal(err)
	}

	merged, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	na := copyEntries(t, merged, a, keysA)
	nb := copyEntries(t, merged, b, keysB)
	if na != 3 || nb != 4 {
		t.Fatalf("copied (%d, %d) entries, want (3, 4)", na, nb)
	}
	for i, key := range append(append([]string(nil), keysA...), keysB...) {
		if !merged.Has(key) {
			t.Errorf("merged cache misses entry %d", i)
		}
		var v map[string]int
		if hit, err := merged.Get(key, &v); !hit || err != nil {
			t.Errorf("merged entry %d unreadable: hit=%v err=%v", i, hit, err)
		}
	}
}

// TestImportDirSkipsInvalidEntries pins that a torn or checksum-corrupted
// worker entry is never served by GetRaw, is refused by PutRaw, and so
// never reaches a merged cache, while the valid entry beside it does.
func TestImportDirSkipsInvalidEntries(t *testing.T) {
	src := t.TempDir()
	s, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	good := Key("good")
	if err := s.Put(good, 42); err != nil {
		t.Fatal(err)
	}
	// A torn write and a checksum-corrupted entry must not be copied.
	torn := Key("torn")
	tornBytes := []byte(`{"schema":1,"key":`)
	if err := os.WriteFile(filepath.Join(src, torn+".json"), tornBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := Key("bad")
	if err := s.Put(bad, 43); err != nil {
		t.Fatal(err)
	}
	// Corrupt the payload itself (43 -> 63) so only the checksum can
	// reject the entry.
	path := filepath.Join(src, bad+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[bytes.LastIndexByte(data, '4')] = '6'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	merged, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := merged.PutRaw(bad, data); err == nil {
		t.Error("PutRaw accepted checksum-corrupted bytes")
	}
	if err := merged.PutRaw(torn, tornBytes); err == nil {
		t.Error("PutRaw accepted a torn entry")
	}
	if n := copyEntries(t, merged, s, []string{good, torn, bad}); n != 1 {
		t.Errorf("copied %d entries, want only the valid one", n)
	}
	var v int
	if hit, _ := merged.Get(good, &v); !hit || v != 42 {
		t.Errorf("valid entry lost in copy: hit=%v v=%d", hit, v)
	}
	if merged.Has(bad) || merged.Has(torn) {
		t.Error("invalid entry copied")
	}
}

// TestImportedEntryBytesAreVerbatim pins the copy a sweep merge makes:
// GetRaw from a worker's cache — loose or packed — into PutRaw on the
// merged cache must reproduce the entry file byte for byte, so
// checksums and bit-identity survive the process boundary.
func TestImportedEntryBytesAreVerbatim(t *testing.T) {
	src := t.TempDir()
	s, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("verbatim")
	if err := s.Put(key, map[string]float64{"ipc": 1.2345678901234567}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(src, key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, packed := range []bool{false, true} {
		if packed {
			if _, err := s.PackLoose("shard"); err != nil {
				t.Fatal(err)
			}
		}
		data, ok := s.GetRaw(key)
		if !ok {
			t.Fatalf("packed=%v: GetRaw missed a valid entry", packed)
		}
		merged, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := merged.PutRaw(key, data); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(merged.path(key))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("packed=%v: copy changed entry bytes:\nsrc: %s\ndst: %s", packed, want, got)
		}
	}
}

func TestNilCachePackAndImportAreNoOps(t *testing.T) {
	var c *Cache
	if err := c.PutRaw(Key("x"), []byte("{}")); err != nil {
		t.Errorf("nil PutRaw = %v", err)
	}
	if _, ok := c.GetRaw(Key("x")); ok {
		t.Error("nil GetRaw claims an entry")
	}
	if n, err := c.PackLoose("x"); n != 0 || err != nil {
		t.Errorf("nil PackLoose = (%d, %v)", n, err)
	}
	if c.Has(Key("x")) {
		t.Error("nil cache claims an entry")
	}
}
