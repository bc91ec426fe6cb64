package hist

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/rng"
)

// refQuantile computes the bucket-quantized quantile directly from a
// sorted sample slice, mirroring Quantile's contract (upper bound of
// the selected sample's bucket, clamped to [min, max]).
func refQuantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	v := bucketUpper(bucketIndex(sorted[rank-1]))
	if v < sorted[0] {
		v = sorted[0]
	}
	if v > sorted[n-1] {
		v = sorted[n-1]
	}
	return v
}

func TestBucketIndexRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose [lower, upper] range
	// contains it, and bucket boundaries must be contiguous.
	vals := []int64{0, 1, 2, 63, 64, 65, 127, 128, 129, 1000, 4095, 4096,
		1 << 20, 1<<20 + 17, 1 << 40, math.MaxInt64}
	for _, v := range vals {
		i := bucketIndex(v)
		if up := bucketUpper(i); v > up {
			t.Errorf("value %d above its bucket %d upper bound %d", v, i, up)
		}
		if i > 0 {
			if prev := bucketUpper(i - 1); v <= prev {
				t.Errorf("value %d should be in bucket %d (upper %d), got %d", v, i-1, prev, i)
			}
		}
	}
	for i := 0; i < 1000; i++ {
		if got := bucketIndex(bucketUpper(i)); got != i {
			t.Fatalf("bucketIndex(bucketUpper(%d)) = %d", i, got)
		}
	}
	// The largest representable value lands in the last index of the
	// documented bucket space.
	if got := bucketIndex(math.MaxInt64); got != maxBuckets-1 {
		t.Errorf("bucketIndex(MaxInt64) = %d, want %d", got, maxBuckets-1)
	}
	// Values below subBucketCount are exact.
	for v := int64(0); v < subBucketCount; v++ {
		if bucketUpper(bucketIndex(v)) != v {
			t.Fatalf("small value %d not exact", v)
		}
	}
	// Relative error bound: upper/lower within a bucket differ by at
	// most a factor of 1 + 1/subBucketCount.
	for _, v := range vals[1:] {
		i := bucketIndex(v)
		up := bucketUpper(i)
		lo := int64(0)
		if i > 0 {
			lo = bucketUpper(i-1) + 1
		}
		if float64(up-lo) > float64(lo)/subBucketCount+1 {
			t.Errorf("bucket %d [%d,%d] too wide for value %d", i, lo, up, v)
		}
	}
}

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0) != 0 || h.Max() != 0 {
		t.Errorf("empty histogram not all-zero: %s", h.String())
	}
	// Out-of-range and hostile q values must also return 0 on an empty
	// histogram — concurrent scrapers quantile histograms that may not
	// have seen a sample yet, and garbage here would leak into metrics.
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if h.Quantile(q) != 0 {
			t.Errorf("empty Quantile(%v) = %d", q, h.Quantile(q))
		}
	}
	// An empty snapshot iterates no buckets.
	h.Snapshot().Buckets(func(upper int64, count uint64) {
		t.Errorf("empty histogram iterated bucket (%d, %d)", upper, count)
	})
}

func TestSnapshotIsIndependentCopy(t *testing.T) {
	var h Histogram
	for _, v := range []int64{3, 70, 70, 5000, 1 << 20} {
		h.RecordValue(v)
	}
	snap := h.Snapshot()
	if snap.Count() != h.Count() || snap.Sum() != h.Sum() ||
		snap.Quantile(0) != h.Quantile(0) || snap.Max() != h.Max() ||
		!reflect.DeepEqual(snap.Counts(), h.Counts()) {
		t.Fatalf("snapshot differs from source: %s vs %s", snap, &h)
	}
	// Recording into the original must not bleed into the snapshot,
	// and vice versa.
	before := snap.Counts()
	h.RecordValue(1 << 30)
	if !reflect.DeepEqual(snap.Counts(), before) || snap.Count() != 5 {
		t.Fatal("snapshot mutated by a later Record into the source")
	}
	snap.RecordValue(1)
	if h.Count() != 6 || h.Quantile(0) != 3 {
		t.Fatalf("source mutated by a Record into the snapshot: %s", &h)
	}
}

func TestBucketsIteration(t *testing.T) {
	var h Histogram
	samples := []int64{0, 1, 63, 64, 100, 100, 4096, 1 << 22}
	for _, v := range samples {
		h.RecordValue(v)
	}
	var total uint64
	last := int64(-1)
	h.Buckets(func(upper int64, count uint64) {
		if count == 0 {
			t.Errorf("bucket %d iterated with zero count", upper)
		}
		if upper <= last {
			t.Errorf("bucket upper bounds not strictly ascending: %d after %d", upper, last)
		}
		last = upper
		total += count
	})
	if total != h.Count() {
		t.Fatalf("bucket counts sum to %d, want %d", total, h.Count())
	}
	// Every sample must be <= the upper bound of some bucket holding it:
	// cumulative counts over the iteration dominate the true CDF.
	for _, v := range samples {
		var cum uint64
		h.Buckets(func(upper int64, count uint64) {
			if upper >= v {
				cum += count
			}
		})
		var atLeast uint64
		for _, s := range samples {
			if bucketUpper(bucketIndex(s)) >= v {
				atLeast++
			}
		}
		if cum != atLeast {
			t.Fatalf("cumulative count above %d = %d, want %d", v, cum, atLeast)
		}
	}
}

func TestSingleSample(t *testing.T) {
	var h Histogram
	h.Record(1500 * time.Microsecond)
	want := int64(1500 * 1000)
	if h.Count() != 1 || h.Sum() != want || h.Quantile(0) != want || h.Max() != want {
		t.Fatalf("single sample stats wrong: %s", h.String())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != want {
			t.Errorf("Quantile(%v) = %d, want %d (min==max must pin every quantile)", q, got, want)
		}
	}
}

func TestAllEqualSamples(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.RecordValue(777777)
	}
	for _, q := range []float64{0, 0.5, 0.9999, 1} {
		if got := h.Quantile(q); got != 777777 {
			t.Errorf("Quantile(%v) = %d, want 777777", q, got)
		}
	}
	if h.Sum() != 1000*777777 {
		t.Errorf("Sum = %v", h.Sum())
	}
}

func TestNegativeClampedToZero(t *testing.T) {
	var h Histogram
	h.RecordValue(-5)
	if h.Count() != 1 || h.Quantile(0) != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Errorf("negative sample not clamped: %s", h.String())
	}
}

func TestQuantilesAgainstSortedReference(t *testing.T) {
	r := rng.New(42)
	var h Histogram
	var samples []int64
	for i := 0; i < 5000; i++ {
		// Mix magnitudes: microseconds to seconds.
		v := int64(r.Uint64n(1_000_000_000))
		if r.Bernoulli(0.3) {
			v = int64(r.Uint64n(50_000))
		}
		samples = append(samples, v)
		h.RecordValue(v)
	}
	sorted := append([]int64(nil), samples...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		got, want := h.Quantile(q), refQuantile(sorted, q)
		if got != want {
			t.Errorf("Quantile(%v) = %d, reference %d", q, got, want)
		}
	}
}

// TestMergeEqualsConcat is the satellite contract: for any shard split
// of a sample stream, merging the shard histograms equals the histogram
// of the concatenated samples — exactly, bucket by bucket.
func TestMergeEqualsConcat(t *testing.T) {
	r := rng.New(7)
	samples := make([]int64, 4096)
	for i := range samples {
		samples[i] = int64(r.Uint64n(10_000_000_000))
	}
	var whole Histogram
	for _, v := range samples {
		whole.RecordValue(v)
	}
	// Shard splits: contiguous chunks of several widths, including
	// degenerate ones (single shard, one-element shards via width 1).
	for _, shards := range []int{1, 2, 3, 7, 64, len(samples)} {
		var merged Histogram
		per := (len(samples) + shards - 1) / shards
		for s := 0; s < shards; s++ {
			lo := s * per
			hi := min(lo+per, len(samples))
			var part Histogram
			for _, v := range samples[lo:hi] {
				part.RecordValue(v)
			}
			merged.Merge(&part)
		}
		if merged.Count() != whole.Count() || merged.Sum() != whole.Sum() ||
			merged.Quantile(0) != whole.Quantile(0) || merged.Max() != whole.Max() {
			t.Fatalf("shards=%d: scalar stats diverge", shards)
		}
		if !reflect.DeepEqual(merged.Counts(), whole.Counts()) {
			t.Fatalf("shards=%d: bucket counts diverge", shards)
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			if merged.Quantile(q) != whole.Quantile(q) {
				t.Fatalf("shards=%d: Quantile(%v) diverges", shards, q)
			}
		}
	}
}

func TestMergeEmptyAndIntoEmpty(t *testing.T) {
	var a, b, empty Histogram
	a.RecordValue(10)
	a.RecordValue(30)
	a.Merge(&empty) // no-op
	a.Merge(nil)    // no-op
	if a.Count() != 2 {
		t.Fatalf("merge of empty changed count: %d", a.Count())
	}
	b.Merge(&a) // into empty: adopts min/max
	if b.Count() != 2 || b.Quantile(0) != 10 || b.Max() != 30 {
		t.Errorf("merge into empty: %s", b.String())
	}
}
