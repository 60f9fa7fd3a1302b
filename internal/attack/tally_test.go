package attack

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden fixtures")

// goldenCases covers every sampling regime of RunBatch, each at two
// distinct (root, batch) coordinates so the fixture also pins the
// seeding scheme (BatchSeed / SubSeed): a changed derivation moves
// every byte.
type goldenCase struct {
	name   string
	spec   TrialSpec
	root   uint64
	batch  int
	trials int
}

func goldenCases() []goldenCase {
	direct := TrialSpec{Model: NewJuggernautRRS(4800, 6), Rounds: 1100}
	tail := TrialSpec{Model: NewJuggernautSRS(4800, 10), Rounds: 0}
	latent := TrialSpec{Model: NewJuggernautRRS(1200, 6), Rounds: 600}
	skipped := TrialSpec{Model: NewJuggernautSRS(4800, 10), Rounds: 5000}
	// The paper's direct cell ends ~99.7% of its windows on their first
	// uniform. A small bank raises λ = G/R so most windows multiply
	// several uniforms, pinning the sampler's multi-uniform path.
	small := func(rows, rounds int) TrialSpec {
		m := NewJuggernautRRS(4800, 6)
		m.RowsPerBank = rows
		return TrialSpec{Model: m, Rounds: rounds}
	}
	return []goldenCase{
		{"direct-b0", direct, 0xf16, 0, 4},
		{"direct-b7", direct, 0xf16, 7, 4},
		{"direct-k3-b2", small(2048, 600), 0xf16, 2, 50}, // λ ≈ 0.46, p ≈ 0.011
		{"direct-k4-b5", small(1024, 0), 31, 5, 50},      // λ ≈ 1.54, p ≈ 0.071
		{"tail-b0", tail, 0xf16, 0, 250},
		{"tail-b3", tail, 99, 3, 250},
		{"latent-b0", latent, 1, 0, 50},
		{"skipped-b0", skipped, 2, 0, 25},
	}
}

// TestRunBatchGolden pins the exact encoded tally of each seeded batch.
// RunBatch promises to be a pure function of (spec, root, batch,
// trials); this fixture is what makes that promise falsifiable across
// commits — any change to the RNG, the seeding scheme, the sampling
// loops, or the envelope encoding shows up as a byte diff. Regenerate
// deliberately with `go test ./internal/attack -run RunBatchGolden
// -update` and justify the diff in the commit.
func TestRunBatchGolden(t *testing.T) {
	path := filepath.Join("testdata", "run_batch_golden.json")
	got := make(map[string]json.RawMessage)
	for _, c := range goldenCases() {
		enc, err := EncodeTally(c.spec.RunBatch(c.root, c.batch, c.trials))
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		// A second run must reproduce the bytes even before comparing to
		// the fixture — this splits "RunBatch became nondeterministic"
		// from "RunBatch changed" in the failure output.
		again, err := EncodeTally(c.spec.RunBatch(c.root, c.batch, c.trials))
		if err != nil || !bytes.Equal(enc, again) {
			t.Fatalf("%s: RunBatch is not deterministic in-process", c.name)
		}
		got[c.name] = enc
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden fixture (run with -update to create): %v", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("golden fixture corrupt: %v", err)
	}
	for _, c := range goldenCases() {
		w, ok := want[c.name]
		if !ok {
			t.Errorf("%s: missing from golden fixture (run with -update)", c.name)
			continue
		}
		// The fixture is stored indented for reviewable diffs; compact
		// both sides back to the canonical EncodeTally form to compare.
		var wc bytes.Buffer
		if err := json.Compact(&wc, w); err != nil {
			t.Fatalf("%s: golden fixture corrupt: %v", c.name, err)
		}
		if !bytes.Equal(wc.Bytes(), got[c.name]) {
			t.Errorf("%s: tally bytes changed\n got: %s\nwant: %s", c.name, got[c.name], wc.Bytes())
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("golden fixture has stale case %q (run with -update)", name)
		}
	}
}

// resultBits flattens a MonteCarloResult to exact bit patterns, so
// "identical result" below means identical down to the last float bit,
// not approximately equal.
func resultBits(r MonteCarloResult) [6]uint64 {
	b := [6]uint64{uint64(r.Iterations),
		math.Float64bits(r.MeanTimeNS),
		math.Float64bits(r.MeanEpochs),
		math.Float64bits(r.StdErrTimeNS)}
	if r.Tail {
		b[4] = 1
	}
	if r.Skipped {
		b[5] = 1
	}
	return b
}

// foldRandom merges a batch set along a random binary tree: a random
// split point, each side folded recursively, then one Merge at the
// root. Together with a random permutation of the input this exercises
// arbitrary compositions of commutativity and associativity.
func foldRandom(ts []Tally, rng *rand.Rand) Tally {
	if len(ts) == 1 {
		return ts[0]
	}
	cut := 1 + rng.Intn(len(ts)-1)
	return foldRandom(ts[:cut], rng).Merge(foldRandom(ts[cut:], rng))
}

// TestMergeOrderInvariance is the property test behind the distributed
// sweep's bit-identity guarantee: any shuffle of a cell's batches, and
// any shape of merge tree over them, folds to the identical Tally and
// the bit-identical MonteCarloResult. Run for both sampling regimes —
// they use disjoint accumulators.
func TestMergeOrderInvariance(t *testing.T) {
	cases := []struct {
		name   string
		spec   TrialSpec
		trials int
	}{
		{"direct", TrialSpec{Model: NewJuggernautRRS(4800, 6), Rounds: 1100}, 3},
		{"tail", TrialSpec{Model: NewJuggernautSRS(4800, 10), Rounds: 0}, 200},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const root, nBatches = 0xf16, 9
			batches := make([]Tally, nBatches)
			for b := range batches {
				batches[b] = c.spec.RunBatch(root, b, c.trials)
			}
			ref := MergeTallies(batches...)
			if err := ref.Validate(); err != nil {
				t.Fatalf("reference merge invalid: %v", err)
			}
			refBits := resultBits(ref.Result(c.spec.Model))
			rng := rand.New(rand.NewSource(7))
			for iter := 0; iter < 50; iter++ {
				shuffled := append([]Tally(nil), batches...)
				rng.Shuffle(len(shuffled), func(i, j int) {
					shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
				})
				merged := foldRandom(shuffled, rng)
				if !reflect.DeepEqual(merged, ref) {
					t.Fatalf("iter %d: merged tally differs from reference fold\n got: %+v\nwant: %+v", iter, merged, ref)
				}
				if bits := resultBits(merged.Result(c.spec.Model)); bits != refBits {
					t.Fatalf("iter %d: result bits differ: %v vs %v", iter, bits, refBits)
				}
			}
			// Commutativity and identity, stated directly.
			if !reflect.DeepEqual(batches[0].Merge(batches[1]), batches[1].Merge(batches[0])) {
				t.Error("Merge is not commutative")
			}
			var zero Tally
			if !reflect.DeepEqual(zero.Merge(batches[0]), batches[0].Merge(zero)) {
				t.Error("zero Tally is not a two-sided identity")
			}
		})
	}
}

// The oracle equivalence in miniature: RunTally (sequential batches in
// one process) equals a shuffled distributed-style fold of the same
// batches, bit for bit.
func TestRunTallyMatchesShuffledBatches(t *testing.T) {
	spec := TrialSpec{Model: NewJuggernautSRS(4800, 10), Rounds: 0}
	const root, trials, batchSize = 42, 1000, 250
	oracle := spec.RunTally(root, trials, batchSize)
	var batches []Tally
	for b := 0; b*batchSize < trials; b++ {
		batches = append(batches, spec.RunBatch(root, b, batchSize))
	}
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(batches), func(i, j int) { batches[i], batches[j] = batches[j], batches[i] })
	if merged := MergeTallies(batches...); !reflect.DeepEqual(merged, oracle) {
		t.Fatalf("shuffled batch merge differs from RunTally oracle\n got: %+v\nwant: %+v", merged, oracle)
	}
}

// FuzzTallyDecode hammers the strict tally decoder the way
// FuzzEntryUpload hammers the store's envelope decoder: arbitrary
// bytes must never panic, anything that decodes must satisfy Validate,
// and a valid tally must survive an encode/decode round trip
// unchanged. This is the gate that keeps a corrupt or hostile stored
// envelope out of a merged security figure.
func FuzzTallyDecode(f *testing.F) {
	for _, c := range goldenCases()[:4] {
		enc, err := EncodeTally(c.spec.RunBatch(c.root, c.batch, c.trials))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		// Truncated and extended variants of real envelopes.
		f.Add(enc[:len(enc)/2])
		f.Add(append(append([]byte(nil), enc...), "{}"...))
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"trials":1}`))
	f.Add([]byte(`{"trials":-1}`))
	f.Add([]byte(`{"trials":1,"skipped":true,"direct":1}`))
	f.Add([]byte(`{"trials":2,"direct":1,"tail":1,"sum_lo":1,"max_epochs":1,"sq_lo":1,"tail_buckets":[{"b":0,"n":1}]}`))
	f.Add([]byte(`{"trials":1,"direct":1,"sum_lo":1,"sq_lo":1,"max_epochs":1,"unknown_field":9}`))
	f.Add([]byte(`{"trials":2,"tail":2,"tail_buckets":[{"b":5,"n":1},{"b":5,"n":1}]}`))
	f.Add([]byte(`{"trials":1,"tail":1,"tail_buckets":[{"b":-3,"n":1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tl, err := DecodeTally(data)
		if err != nil {
			return // rejected, as corrupt input must be
		}
		if verr := tl.Validate(); verr != nil {
			t.Fatalf("decoder accepted a tally Validate rejects: %v\ninput: %q", verr, data)
		}
		enc, err := EncodeTally(tl)
		if err != nil {
			t.Fatalf("accepted tally fails to re-encode: %v", err)
		}
		rt, err := DecodeTally(enc)
		if err != nil {
			t.Fatalf("canonical encoding fails to decode: %v", err)
		}
		if !reflect.DeepEqual(rt, tl) {
			t.Fatalf("round trip changed the tally: %+v vs %+v", rt, tl)
		}
	})
}
