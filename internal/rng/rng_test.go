package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at step %d", i)
		}
	}
}

func TestNewDifferentSeeds(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds matched %d/100 outputs", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	a := Derive(7, 1, 2, 3)
	b := Derive(7, 1, 2, 4)
	c := Derive(7, 1, 2, 3)
	if a.Uint64() != c.Uint64() {
		t.Fatal("Derive with identical labels not deterministic")
	}
	matches := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			matches++
		}
	}
	if matches > 2 {
		t.Fatalf("derived streams with different labels matched %d/100", matches)
	}
}

func TestDeriveLabelOrderMatters(t *testing.T) {
	a := Derive(7, 1, 2)
	b := Derive(7, 2, 1)
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("label order should produce different streams")
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(9)
	for _, n := range []uint64{1, 2, 3, 7, 100, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nUniform(t *testing.T) {
	r := New(123)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	r := New(77)
	const trials = 200000
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		for i := 0; i < trials; i++ {
			if r.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / trials
		if math.Abs(got-p) > 0.01 {
			t.Errorf("Bernoulli(%v) mean = %v", p, got)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(11)
	const trials = 200000
	for _, p := range []float64{0.15, 0.5, 0.9} {
		sum := 0
		for i := 0; i < trials; i++ {
			sum += r.Geometric(p)
		}
		got := float64(sum) / trials
		want := (1 - p) / p
		if math.Abs(got-want) > 0.05*want+0.01 {
			t.Errorf("Geometric(%v) mean = %v, want %v", p, got, want)
		}
	}
}

func TestGeometricP1(t *testing.T) {
	r := New(3)
	for i := 0; i < 100; i++ {
		if g := r.Geometric(1); g != 0 {
			t.Fatalf("Geometric(1) = %d, want 0", g)
		}
	}
}

func TestGeometricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) should panic")
		}
	}()
	New(1).Geometric(0)
}

func TestBinomialEdgeCases(t *testing.T) {
	r := New(8)
	if got := r.Binomial(0, 0.5); got != 0 {
		t.Errorf("Binomial(0, .5) = %d", got)
	}
	if got := r.Binomial(10, 0); got != 0 {
		t.Errorf("Binomial(10, 0) = %d", got)
	}
	if got := r.Binomial(10, 1); got != 10 {
		t.Errorf("Binomial(10, 1) = %d", got)
	}
}

func TestBinomialMoments(t *testing.T) {
	r := New(21)
	const trials = 60000
	cases := []struct {
		n int
		p float64
	}{{10, 0.3}, {100, 0.05}, {1000, 0.7}, {5, 0.9}, {1, 0.5}}
	for _, c := range cases {
		sum, sumSq := 0.0, 0.0
		for i := 0; i < trials; i++ {
			x := float64(r.Binomial(c.n, c.p))
			if x < 0 || x > float64(c.n) {
				t.Fatalf("Binomial(%d,%v) out of range: %v", c.n, c.p, x)
			}
			sum += x
			sumSq += x * x
		}
		mean := sum / trials
		wantMean := float64(c.n) * c.p
		variance := sumSq/trials - mean*mean
		wantVar := float64(c.n) * c.p * (1 - c.p)
		if math.Abs(mean-wantMean) > 0.03*wantMean+0.05 {
			t.Errorf("Binomial(%d,%v) mean = %v want %v", c.n, c.p, mean, wantMean)
		}
		if wantVar > 0 && math.Abs(variance-wantVar) > 0.1*wantVar+0.1 {
			t.Errorf("Binomial(%d,%v) var = %v want %v", c.n, c.p, variance, wantVar)
		}
	}
}

func TestBinomialRangeProperty(t *testing.T) {
	r := New(99)
	f := func(nRaw uint16, pRaw uint16) bool {
		n := int(nRaw % 2000)
		p := float64(pRaw) / 65535
		x := r.Binomial(n, p)
		return x >= 0 && x <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMultinomialSplitConserves(t *testing.T) {
	r := New(31)
	f := func(totalRaw uint16, kRaw uint8) bool {
		total := int(totalRaw % 5000)
		k := int(kRaw%20) + 1
		out := make([]int64, k)
		r.MultinomialSplit(total, out)
		var sum int64
		for _, v := range out {
			if v < 0 {
				return false
			}
			sum += v
		}
		return sum == int64(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestMultinomialSplitUniform(t *testing.T) {
	r := New(55)
	const k, total, trials = 4, 100, 20000
	sums := make([]float64, k)
	out := make([]int64, k)
	for i := 0; i < trials; i++ {
		r.MultinomialSplit(total, out)
		for j, v := range out {
			sums[j] += float64(v)
		}
	}
	want := float64(total) / k
	for j, s := range sums {
		got := s / trials
		if math.Abs(got-want) > 0.05*want {
			t.Errorf("bucket %d mean = %v want %v", j, got, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(2)
	for _, n := range []int{0, 1, 2, 10, 100} {
		dst := make([]int, n)
		r.Perm(dst)
		seen := make(map[int]bool, n)
		for _, v := range dst {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, dst)
			}
			seen[v] = true
		}
	}
}

// TestShuffleCarriesPermOrder pins what a stream shuffled in place
// relies on: with the same draws, position i of a shuffled slice holds
// the element that started at Perm's order[i], payload and all.
func TestShuffleCarriesPermOrder(t *testing.T) {
	type tagged struct{ v, i int }
	for _, n := range []int{0, 1, 2, 1000} {
		order := make([]int, n)
		Derive(4, uint64(n)).Perm(order)
		xs := make([]tagged, n)
		for i := range xs {
			xs[i] = tagged{v: 7*i + 3, i: i}
		}
		Shuffle(Derive(4, uint64(n)), xs)
		for i, x := range xs {
			if x.i != order[i] || x.v != 7*x.i+3 {
				t.Fatalf("n=%d: position %d holds %+v, Perm put %d there", n, i, x, order[i])
			}
		}
	}
}

func TestZipfRange(t *testing.T) {
	r := New(66)
	z := NewZipf(2.0, 1, 1000)
	for i := 0; i < 10000; i++ {
		v := z.Sample(r)
		if v < 1 || v > 1000 {
			t.Fatalf("Zipf sample %d out of [1,1000]", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	// With exponent 2, P(1) ≈ 0.6 of the bounded mass; check 1 is by far
	// the most frequent value.
	r := New(14)
	z := NewZipf(2.0, 1, 10000)
	const trials = 50000
	ones := 0
	for i := 0; i < trials; i++ {
		if z.Sample(r) == 1 {
			ones++
		}
	}
	frac := float64(ones) / trials
	if frac < 0.5 || frac > 0.72 {
		t.Fatalf("Zipf(2) P(1) = %v, want ≈ 0.61", frac)
	}
}

func TestZipfExponentNearOne(t *testing.T) {
	r := New(15)
	z := NewZipf(1.0, 1, 100)
	counts := make([]int, 101)
	for i := 0; i < 50000; i++ {
		counts[z.Sample(r)]++
	}
	// For s=1 over [1,100], P(1)/P(10) should be ≈ 10.
	ratio := float64(counts[1]) / float64(counts[10]+1)
	if ratio < 6 || ratio > 16 {
		t.Fatalf("Zipf(1) P(1)/P(10) = %v, want ≈ 10", ratio)
	}
}

func TestAliasTableDistribution(t *testing.T) {
	r := New(71)
	weights := []float64{1, 2, 3, 4}
	tab := NewAliasTable(weights)
	const trials = 100000
	counts := make([]float64, len(weights))
	for i := 0; i < trials; i++ {
		counts[tab.Sample(r)]++
	}
	for i, w := range weights {
		want := w / 10 * trials
		if math.Abs(counts[i]-want) > 6*math.Sqrt(want) {
			t.Errorf("alias bucket %d: got %v want ~%v", i, counts[i], want)
		}
	}
}

func TestAliasTableSingle(t *testing.T) {
	r := New(72)
	tab := NewAliasTable([]float64{3.5})
	for i := 0; i < 10; i++ {
		if tab.Sample(r) != 0 {
			t.Fatal("single-outcome table must return 0")
		}
	}
}

func TestAliasTableZeroWeightNeverSampled(t *testing.T) {
	r := New(73)
	tab := NewAliasTable([]float64{0, 1, 0, 2})
	for i := 0; i < 10000; i++ {
		s := tab.Sample(r)
		if s == 0 || s == 2 {
			t.Fatalf("sampled zero-weight outcome %d", s)
		}
	}
}

func TestPowerLawWeights(t *testing.T) {
	w := PowerLawWeights(5, 2)
	if w[0] != 1 {
		t.Errorf("w[0] = %v", w[0])
	}
	if math.Abs(w[1]-0.25) > 1e-12 {
		t.Errorf("w[1] = %v want 0.25", w[1])
	}
	for i := 1; i < len(w); i++ {
		if w[i] >= w[i-1] {
			t.Errorf("weights not decreasing at %d", i)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkBinomialLargeN(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Binomial(100000, 0.001)
	}
}

func BenchmarkZipf(b *testing.B) {
	r := New(1)
	z := NewZipf(2.0, 1, 1<<20)
	for i := 0; i < b.N; i++ {
		_ = z.Sample(r)
	}
}

// truncGeometricGrid is the (p, cutoff) grid the table draw is checked
// on: a long-tailed p, the serving default, a short one, one whose steps
// crowd into the first buckets, and p == 1, which draws nothing.
var truncGeometricGrid = struct {
	ps      []float64
	cutoffs []int
}{[]float64{0.01, 0.15, 0.5, 0.9, 1}, []int{1, 4, 64}}

// TestTruncGeometricEqualsGeometric: the table draw is
// min(Geometric(p), cutoff) draw for draw — the reference is the formula
// itself on a twin stream — and leaves the stream where Geometric leaves
// it.
func TestTruncGeometricEqualsGeometric(t *testing.T) {
	draws := 1_000_000 // × 15 grid points: 15 M draws
	if testing.Short() {
		draws = 50_000
	}
	for _, p := range truncGeometricGrid.ps {
		for _, cutoff := range truncGeometricGrid.cutoffs {
			table := NewTruncGeometric(p, cutoff)
			a, b := New(uint64(cutoff)), New(uint64(cutoff))
			for i := 0; i < draws; i++ {
				if got, want := table.Draw(a), min(b.Geometric(p), cutoff); got != want {
					t.Fatalf("p=%v cutoff=%d draw %d: table %d, formula %d", p, cutoff, i, got, want)
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Errorf("p=%v cutoff=%d: the table draw and Geometric consumed different numbers of draws", p, cutoff)
			}
		}
	}
}

// TestTruncGeometricBucketEdges checks the draw where the table could be
// wrong if it were: on both sides of every bucket edge, at the guard
// band's ends around it, and at the ends of the 53-bit range.
func TestTruncGeometricBucketEdges(t *testing.T) {
	const top = 1<<53 - 1
	for _, p := range truncGeometricGrid.ps {
		if p == 1 {
			continue // no table: Draw answers 0 without a uniform
		}
		logq := math.Log1p(-p)
		for _, cutoff := range truncGeometricGrid.cutoffs {
			table := NewTruncGeometric(p, cutoff)
			check := func(x uint64) {
				if got, want := table.at(x), min(geometricAt(x, logq), cutoff); got != want {
					t.Fatalf("p=%v cutoff=%d x=%#x: table %d, formula %d", p, cutoff, x, got, want)
				}
			}
			formula := 0
			for b := uint64(0); b < truncBuckets; b++ {
				if table.table[b] < 0 {
					formula++
				}
				edge := b << truncShift
				for _, d := range []uint64{0, 1, truncGuard - 1, truncGuard, truncGuard + 1} {
					if edge >= d {
						check(edge - d)
					}
					check(min(edge+d, top))
				}
			}
			check(top)
			// A bucket goes to the formula only around a step of the law
			// (two do when the step is within the guard of their edge: every
			// step of p = 0.5 is), and the law has at most cutoff steps below
			// the cap.
			if formula > 2*cutoff {
				t.Errorf("p=%v cutoff=%d: %d buckets call the formula, want ≤ %d", p, cutoff, formula, 2*cutoff)
			}
		}
	}
}

func TestTruncGeometricPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"p=0":      func() { NewTruncGeometric(0, 4) },
		"p>1":      func() { NewTruncGeometric(1.5, 4) },
		"cutoff<0": func() { NewTruncGeometric(0.5, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTruncGeometric with %s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkGeometric(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		sink += min(r.Geometric(0.15), 64)
	}
}

func BenchmarkTruncGeometric(b *testing.B) {
	r, table := New(1), NewTruncGeometric(0.15, 64)
	for i := 0; i < b.N; i++ {
		sink += table.Draw(r)
	}
}

var sink int
