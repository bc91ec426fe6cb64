package topk

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestTopBasic(t *testing.T) {
	scores := []float64{0.1, 0.5, 0.3, 0.9, 0.2}
	top := Top(scores, 2)
	if len(top) != 2 {
		t.Fatalf("len = %d", len(top))
	}
	if top[0].Vertex != 3 || top[1].Vertex != 1 {
		t.Errorf("top = %v", top)
	}
	if top[0].Score != 0.9 || top[1].Score != 0.5 {
		t.Errorf("scores = %v", top)
	}
}

func TestTopKLargerThanN(t *testing.T) {
	scores := []float64{0.2, 0.8}
	top := Top(scores, 10)
	if len(top) != 2 {
		t.Fatalf("len = %d, want 2", len(top))
	}
	if top[0].Vertex != 1 {
		t.Error("order wrong")
	}
}

func TestTopZeroAndNegativeK(t *testing.T) {
	if Top([]float64{1, 2}, 0) != nil {
		t.Error("k=0 should return nil")
	}
	if Top([]float64{1, 2}, -3) != nil {
		t.Error("k<0 should return nil")
	}
}

func TestTopTiesDeterministic(t *testing.T) {
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	top := Top(scores, 2)
	if top[0].Vertex != 0 || top[1].Vertex != 1 {
		t.Errorf("tie-break should prefer small ids, got %v", top)
	}
}

// TestTopTieBreakPinned pins the documented tie-break: on equal
// scores the smaller vertex id wins, including across the selection
// boundary and regardless of input position.
func TestTopTieBreakPinned(t *testing.T) {
	// All-equal scores: the top-k must be exactly ids 0..k-1 in order.
	same := make([]float64, 64)
	for i := range same {
		same[i] = 0.25
	}
	for _, k := range []int{1, 3, 63, 64} {
		top := Top(same, k)
		if len(top) != k {
			t.Fatalf("k=%d: len %d", k, len(top))
		}
		for i, e := range top {
			if e.Vertex != uint32(i) {
				t.Fatalf("k=%d: position %d holds vertex %d, want %d (smaller id must win ties)",
					k, i, e.Vertex, i)
			}
		}
	}
	// A tie straddling the cut: vertices 1, 3, 4 share the boundary
	// score; k=2 must keep {0} and then the smallest tied id, 1.
	scores := []float64{0.9, 0.5, 0.1, 0.5, 0.5}
	top := Top(scores, 2)
	if top[0].Vertex != 0 || top[1].Vertex != 1 {
		t.Errorf("boundary tie: got %v, want vertices [0 1]", top)
	}
	// k=4 keeps all three tied vertices ordered by id.
	top = Top(scores, 4)
	want := []uint32{0, 1, 3, 4}
	for i, e := range top {
		if e.Vertex != want[i] {
			t.Fatalf("k=4: got %v, want vertex order %v", top, want)
		}
	}
}

func TestTopMatchesSortProperty(t *testing.T) {
	r := rng.New(3)
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%100) + 1
		k := int(kRaw%20) + 1
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = math.Floor(r.Float64()*10) / 10 // force ties
		}
		got := Top(scores, k)

		type pair struct {
			v uint32
			s float64
		}
		ref := make([]pair, n)
		for i, s := range scores {
			ref[i] = pair{uint32(i), s}
		}
		sort.Slice(ref, func(i, j int) bool {
			if ref[i].s != ref[j].s {
				return ref[i].s > ref[j].s
			}
			return ref[i].v < ref[j].v
		})
		want := k
		if want > n {
			want = n
		}
		if len(got) != want {
			return false
		}
		for i := 0; i < want; i++ {
			if got[i].Vertex != ref[i].v || got[i].Score != ref[i].s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCapturedMassPerfect(t *testing.T) {
	pi := []float64{0.4, 0.3, 0.2, 0.1}
	if m := CapturedMass(pi, pi, 2); math.Abs(m-0.7) > 1e-12 {
		t.Errorf("µ2(pi) = %v, want 0.7", m)
	}
	if m := OptimalMass(pi, 2); math.Abs(m-0.7) > 1e-12 {
		t.Errorf("optimal = %v", m)
	}
}

func TestCapturedMassWrongEstimate(t *testing.T) {
	pi := []float64{0.4, 0.3, 0.2, 0.1}
	est := []float64{0.1, 0.2, 0.3, 0.4} // reversed
	if m := CapturedMass(pi, est, 2); math.Abs(m-0.3) > 1e-12 {
		t.Errorf("captured = %v, want 0.3 (picks vertices 3,2)", m)
	}
	if nm := NormalizedCapturedMass(pi, est, 2); math.Abs(nm-0.3/0.7) > 1e-12 {
		t.Errorf("normalized = %v", nm)
	}
}

func TestNormalizedCapturedMassBounds(t *testing.T) {
	r := rng.New(9)
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(50) + 2
		k := r.Intn(n) + 1
		pi := make([]float64, n)
		est := make([]float64, n)
		var sum float64
		for i := range pi {
			pi[i] = r.Float64()
			est[i] = r.Float64()
			sum += pi[i]
		}
		for i := range pi {
			pi[i] /= sum
		}
		nm := NormalizedCapturedMass(pi, est, k)
		if nm < 0 || nm > 1+1e-12 {
			t.Fatalf("normalized mass %v out of [0,1]", nm)
		}
		if opt := NormalizedCapturedMass(pi, pi, k); math.Abs(opt-1) > 1e-12 {
			t.Fatalf("self-normalized mass = %v, want 1", opt)
		}
	}
}

func TestExactIdentification(t *testing.T) {
	pi := []float64{0.4, 0.3, 0.2, 0.1}
	if e := ExactIdentification(pi, pi, 2); e != 1 {
		t.Errorf("self identification = %v", e)
	}
	est := []float64{0.0, 0.5, 0.0, 0.5} // top-2(est) = {1,3}; top-2(pi) = {0,1}
	if e := ExactIdentification(pi, est, 2); e != 0.5 {
		t.Errorf("identification = %v, want 0.5", e)
	}
	if e := ExactIdentification(pi, est, 0); e != 1 {
		t.Errorf("k=0 should be vacuously 1, got %v", e)
	}
}

func TestExactIdentificationKLargerThanN(t *testing.T) {
	pi := []float64{0.6, 0.4}
	est := []float64{0.4, 0.6}
	if e := ExactIdentification(pi, est, 5); e != 1 {
		t.Errorf("with k>n all vertices are top-k; identification = %v", e)
	}
}

func TestCapturedMassMonotoneInK(t *testing.T) {
	r := rng.New(17)
	pi := make([]float64, 100)
	est := make([]float64, 100)
	var sum float64
	for i := range pi {
		pi[i] = r.Float64()
		est[i] = r.Float64()
		sum += pi[i]
	}
	for i := range pi {
		pi[i] /= sum
	}
	prev := 0.0
	for k := 1; k <= 100; k++ {
		m := CapturedMass(pi, est, k)
		if m < prev-1e-12 {
			t.Fatalf("captured mass decreased at k=%d: %v < %v", k, m, prev)
		}
		prev = m
	}
	if math.Abs(prev-1) > 1e-9 {
		t.Errorf("µn should be 1, got %v", prev)
	}
}

func BenchmarkTop1000of1M(b *testing.B) {
	r := rng.New(1)
	scores := make([]float64, 1000000)
	for i := range scores {
		scores[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Top(scores, 1000)
	}
}
