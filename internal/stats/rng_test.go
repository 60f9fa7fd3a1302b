package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical outputs", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	s1 := r.Split()
	s2 := r.Split()
	if s1.Uint64() == s2.Uint64() {
		t.Error("split streams start identically")
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(1)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) hit only %d distinct values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(2)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %g, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + int(seed%100)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(3)
	for _, p := range []float64{0.5, 0.01, 1e-4} {
		sum := 0.0
		const n = 20000
		for i := 0; i < n; i++ {
			g := r.Geometric(p)
			if g < 1 {
				t.Fatalf("Geometric(%g) = %g < 1", p, g)
			}
			sum += g
		}
		mean, want := sum/n, 1/p
		if math.Abs(mean-want)/want > 0.1 {
			t.Errorf("Geometric(%g) mean = %g, want ~%g", p, mean, want)
		}
	}
	if g := r.Geometric(1); g != 1 {
		t.Errorf("Geometric(1) = %g, want 1", g)
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRNG(4)
	for _, lambda := range []float64{0.5, 5, 50, 500} {
		sum := 0.0
		const n = 20000
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(lambda))
		}
		mean := sum / n
		if math.Abs(mean-lambda)/lambda > 0.05 {
			t.Errorf("Poisson(%g) mean = %g", lambda, mean)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Error("Poisson of non-positive lambda should be 0")
	}
}

// TestPoissonRunLengthMatchesPoissonLoop pins PoissonRunLength to the
// loop it replaces: the same run lengths from the same seed, and the
// same RNG state afterwards. The λ set spans the paper's direct cell
// (0.00307), multi-uniform windows, both sides of the λ = 30 fallback,
// and λ small enough that exp(-λ)·2^53 sits just below 2^53.
func TestPoissonRunLengthMatchesPoissonLoop(t *testing.T) {
	cases := 0
	for _, seed := range []uint64{1, 2, 3} {
		for _, lambda := range []float64{1e-4, 0.00307, 0.5, 2, 29.9, 30, 45} {
			for _, k := range []int{1, 2, 3, 6} {
				if 1/PoissonTail(k, lambda) > 1e6 {
					continue // expected run too long for a unit test
				}
				cases++
				a, b := NewRNG(seed), NewRNG(seed)
				// Three runs in a row: each must also leave the stream
				// where the next one expects it.
				for run := 0; run < 3; run++ {
					got := a.PoissonRunLength(lambda, k)
					var want uint64
					for {
						want++
						if b.Poisson(lambda) >= k {
							break
						}
					}
					if got != want {
						t.Fatalf("seed %d λ=%g k=%d run %d: PoissonRunLength = %d, Poisson loop = %d",
							seed, lambda, k, run, got, want)
					}
				}
				for i := 0; i < 4; i++ {
					if x, y := a.Uint64(), b.Uint64(); x != y {
						t.Fatalf("seed %d λ=%g k=%d: RNG state diverged (output %d: %#x vs %#x)",
							seed, lambda, k, i, x, y)
					}
				}
			}
		}
	}
	if cases != 3*23 {
		t.Fatalf("%d (seed, λ, k) cases ran, want 69", cases)
	}
}

func TestPoissonRunLengthPanicsOnEndlessRun(t *testing.T) {
	for _, c := range []struct {
		lambda float64
		k      int
	}{{0, 1}, {-1, 1}, {math.NaN(), 1}, {0.5, 0}, {0.5, -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PoissonRunLength(%g, %d) did not panic", c.lambda, c.k)
				}
			}()
			NewRNG(1).PoissonRunLength(c.lambda, c.k)
		}()
	}
}

func TestBinomialMoments(t *testing.T) {
	r := NewRNG(5)
	cases := []struct {
		n int
		p float64
	}{{10, 0.3}, {1000, 0.5}, {100000, 1e-4}, {70000, 1.0 / 131072}}
	for _, c := range cases {
		sum := 0.0
		const iters = 5000
		for i := 0; i < iters; i++ {
			k := r.Binomial(c.n, c.p)
			if k < 0 || k > c.n {
				t.Fatalf("Binomial(%d,%g) = %d out of range", c.n, c.p, k)
			}
			sum += float64(k)
		}
		mean, want := sum/iters, float64(c.n)*c.p
		tol := 5 * math.Sqrt(want*(1-c.p)/iters) // 5 sigma of the sample mean
		if tol < 0.05*want {
			tol = 0.05 * want
		}
		if math.Abs(mean-want) > tol {
			t.Errorf("Binomial(%d,%g) mean = %g, want ~%g", c.n, c.p, mean, want)
		}
	}
	if r.Binomial(10, 0) != 0 || r.Binomial(10, 1) != 10 || r.Binomial(0, 0.5) != 0 {
		t.Error("Binomial edge cases wrong")
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(6)
	sum, sq := 0.0, 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sq += v * v
	}
	if mean := sum / n; math.Abs(mean) > 0.02 {
		t.Errorf("Normal mean = %g, want ~0", mean)
	}
	if variance := sq / n; math.Abs(variance-1) > 0.03 {
		t.Errorf("Normal variance = %g, want ~1", variance)
	}
}
