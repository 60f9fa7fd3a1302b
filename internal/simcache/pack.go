package simcache

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// This file implements the cache's packed index: PackLoose folds loose
// per-result files into a single packed index file. A full 78-workload
// sweep writes thousands of small JSON entries; packing them means a
// later process pays one sequential file scan at Open instead of a
// directory walk plus one open per entry (the ROADMAP's "packed index"
// item).
//
// Pack format: one envelope per line, exactly the bytes a loose entry
// file holds (same schema, key, and checksum fields), so the integrity
// gates of decodeEnvelope apply unchanged. A corrupted packed entry is
// dropped from the in-memory index and reported as a miss; unlike a
// loose file it cannot be deleted individually, so it stays inert in
// the pack until age-pruning removes the file.

// packRef locates one entry inside a pack file.
type packRef struct {
	path string
	off  int64
	n    int
}

// scanPacks indexes every *.pack file in the cache directory. Later
// files (lexicographically) win key collisions, matching the order
// PackLoose creates them. Unreadable files or undecodable lines are
// skipped: the index is a read-side accelerator, and every entry is
// re-validated by decodeEnvelope at Get time anyway.
func (c *Cache) scanPacks() {
	names, err := filepath.Glob(filepath.Join(c.dir, "*.pack"))
	if err != nil {
		return
	}
	sort.Strings(names)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, path := range names {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
		var off int64
		for sc.Scan() {
			line := sc.Bytes()
			n := int64(len(line)) + 1 // +1 for the newline
			var e envelope
			if json.Unmarshal(line, &e) == nil && e.Key != "" {
				c.packed[e.Key] = packRef{path: path, off: off, n: len(line)}
			}
			off += n
		}
		f.Close()
	}
}

// packedRaw serves key's envelope bytes from the packed index,
// validating them once and returning the extracted payload alongside.
// A corrupted or stale packed entry is dropped from the index and
// reported as a miss so the caller re-simulates into a loose file
// (which Get prefers over the pack from then on).
func (c *Cache) packedRaw(key string) (data []byte, payload json.RawMessage, ok bool) {
	c.mu.RLock()
	ref, found := c.packed[key]
	c.mu.RUnlock()
	if !found {
		return nil, nil, false
	}
	drop := func() {
		c.mu.Lock()
		delete(c.packed, key)
		c.mu.Unlock()
	}
	f, err := os.Open(ref.path)
	if err != nil {
		drop()
		return nil, nil, false
	}
	defer f.Close()
	data = make([]byte, ref.n)
	if _, err := f.ReadAt(data, ref.off); err != nil {
		drop()
		return nil, nil, false
	}
	payload, ok = decodeEnvelope(data, key)
	if !ok {
		drop()
		return nil, nil, false
	}
	return data, payload, true
}

// getPacked serves key from the packed index, fully re-validating the
// entry bytes.
func (c *Cache) getPacked(key string, v any) bool {
	_, payload, ok := c.packedRaw(key)
	if !ok {
		return false
	}
	if json.Unmarshal(payload, v) != nil {
		c.mu.Lock()
		delete(c.packed, key)
		c.mu.Unlock()
		return false
	}
	return true
}

// looseKeys returns the keys of all loose entry files, sorted.
func (c *Cache) looseKeys() []string {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return nil
	}
	var keys []string
	for _, e := range entries {
		if name := e.Name(); filepath.Ext(name) == ".json" {
			keys = append(keys, strings.TrimSuffix(name, ".json"))
		}
	}
	sort.Strings(keys)
	return keys
}

// Has reports whether the cache holds a valid entry for key.
func (c *Cache) Has(key string) bool {
	var raw json.RawMessage
	hit, _ := c.Get(key, &raw)
	return hit
}

// PackLoose folds every valid loose entry into a single new packed
// index file (atomically: temp file + rename), removes the packed
// loose files, and indexes the new pack. Invalid loose entries are
// deleted rather than packed. The file is named <name>.pack, or
// <name>-2.pack and so on when earlier packs of the same name exist —
// existing packs are never overwritten, so repeated merges into one
// directory (figures sharing baselines, incremental re-merges) only
// ever add entries; duplicate keys across packs are harmless because
// entries are content-addressed, so colliding packed entries hold
// identical bytes and scanPacks may resolve them in any order. It
// returns the number of entries packed. Packing is
// coordinator-side maintenance (rowswap-sweep merge); it must not run
// concurrently with writers of the same directory.
func (c *Cache) PackLoose(name string) (int, error) {
	if c == nil {
		return 0, nil
	}
	keys := c.looseKeys()
	var packed []string
	tmp, err := os.CreateTemp(c.dir, "pack-*.tmp")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriter(tmp)
	for _, key := range keys {
		data, err := os.ReadFile(c.path(key))
		if err != nil {
			continue
		}
		if _, ok := decodeEnvelope(data, key); !ok {
			os.Remove(c.path(key))
			continue
		}
		bw.Write(bytes.TrimSpace(data))
		bw.WriteByte('\n')
		packed = append(packed, key)
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if len(packed) == 0 {
		return 0, nil
	}
	dst := filepath.Join(c.dir, name+".pack")
	for n := 2; ; n++ {
		if _, err := os.Lstat(dst); errors.Is(err, fs.ErrNotExist) {
			break
		}
		dst = filepath.Join(c.dir, fmt.Sprintf("%s-%d.pack", name, n))
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return 0, err
	}
	for _, key := range packed {
		os.Remove(c.path(key))
	}
	c.scanPacks()
	return len(packed), nil
}
