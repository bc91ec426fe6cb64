// Package hist provides a mergeable log-bucketed latency histogram for
// the load-generation and serving-measurement pipeline.
//
// The bucket layout is log-linear (HDR-histogram style): values below
// subBucketCount land in exact unit buckets; above that, every power of
// two is split into subBucketCount linear sub-buckets, so the relative
// quantization error is bounded by 1/subBucketCount (< 1.6%) at every
// magnitude. Bucket indices are computed with integer bit operations
// only — no floating point — so the mapping is exact, portable and
// deterministic.
//
// Histograms merge by bucket-count addition, which is associative and
// commutative: merging per-shard histograms in any order yields exactly
// the histogram of the concatenated samples. That property is what lets
// the load generator keep one histogram per worker goroutine, record
// without locks, and still produce bit-identical aggregate buckets for
// any worker count.
package hist

import (
	"fmt"
	"math/bits"
	"time"
)

// subBucketBits fixes the resolution: 2^subBucketBits linear
// sub-buckets per power of two.
const subBucketBits = 6

// subBucketCount is the number of sub-buckets per power of two (and the
// threshold below which values are counted exactly).
const subBucketCount = 1 << subBucketBits // 64

// maxBuckets is the index space needed for the full non-negative int64
// range (values are clamped into it): 64 exact buckets plus
// subBucketCount per remaining power of two.
const maxBuckets = subBucketCount + (63-subBucketBits)*subBucketCount

// Histogram counts non-negative int64 samples (canonically latency in
// nanoseconds) in log-linear buckets, tracking count, sum, min and max
// exactly. The zero value is ready to use. It is not safe for
// concurrent use; keep one per goroutine and Merge.
type Histogram struct {
	buckets []uint64 // grown lazily to the highest index recorded
	count   uint64
	sum     int64
	min     int64
	max     int64
}

// bucketIndex maps a non-negative value to its bucket. Values below
// subBucketCount map to themselves; above, the index advances by
// subBucketCount per power of two, linearly within each.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < subBucketCount {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // 2^exp <= u < 2^(exp+1)
	shift := exp - subBucketBits
	return int(uint64(shift+1)<<subBucketBits + (u >> shift) - subBucketCount)
}

// bucketUpper returns the largest value mapping to bucket i (the
// pessimistic representative quantiles report).
func bucketUpper(i int) int64 {
	if i < subBucketCount {
		return int64(i)
	}
	major := i >> subBucketBits // >= 1
	sub := i & (subBucketCount - 1)
	lower := int64(subBucketCount+sub) << (major - 1)
	return lower + int64(1)<<(major-1) - 1
}

// RecordValue adds one sample. Negative values are clamped to zero (a
// latency can round down to it, never legitimately below).
func (h *Histogram) RecordValue(v int64) {
	if v < 0 {
		v = 0
	}
	idx := bucketIndex(v)
	if idx >= len(h.buckets) {
		grown := make([]uint64, idx+1)
		copy(grown, h.buckets)
		h.buckets = grown
	}
	h.buckets[idx]++
	h.sum += v
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
}

// Record adds one duration sample at nanosecond granularity.
func (h *Histogram) Record(d time.Duration) { h.RecordValue(int64(d)) }

// Merge folds other into h. Bucket addition is exact, so for any
// partition of a sample stream into shards, merging the shard
// histograms (in any order) equals recording the whole stream into one
// histogram.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	if len(other.buckets) > len(h.buckets) {
		grown := make([]uint64, len(other.buckets))
		copy(grown, h.buckets)
		h.buckets = grown
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.count == 0 || other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the exact sum of all recorded samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Max returns the exact largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the value at quantile q in [0, 1]: the upper bound
// of the bucket holding the ceil(q·count)-th smallest sample, clamped
// to the exact [min, max] envelope (so Quantile(0) is the smallest
// sample and Quantile(1) == Max exactly). Returns 0 when empty; q
// outside [0, 1] is clamped.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.count))
	if float64(rank) < q*float64(h.count) {
		rank++
	}
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			v := bucketUpper(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max // unreachable: bucket counts always sum to h.count
}

// QuantileDuration is Quantile for nanosecond samples.
func (h *Histogram) QuantileDuration(q float64) time.Duration {
	return time.Duration(h.Quantile(q))
}

// Snapshot returns an independent deep copy of the histogram: a
// consistent point-in-time view that a scraper can iterate and
// quantile at leisure while the original keeps recording. The copy
// shares no storage with h, so it is immutable as long as the caller
// does not Record into it.
func (h *Histogram) Snapshot() *Histogram {
	c := *h
	c.buckets = append([]uint64(nil), h.buckets...)
	return &c
}

// Buckets calls fn once per non-empty bucket in ascending value order,
// with the bucket's inclusive upper bound and its count. This is the
// iteration surface exposition renderers (e.g. Prometheus cumulative
// buckets) are built on: summing count over all calls equals Count(),
// and every sample in a bucket is <= that bucket's upper bound.
func (h *Histogram) Buckets(fn func(upper int64, count uint64)) {
	for i, c := range h.buckets {
		if c != 0 {
			fn(bucketUpper(i), c)
		}
	}
}

// Counts returns a copy of the bucket counts (trailing zero buckets
// trimmed by construction). Two histograms over the same samples have
// equal Counts regardless of recording order or sharding.
func (h *Histogram) Counts() []uint64 {
	out := make([]uint64, len(h.buckets))
	copy(out, h.buckets)
	return out
}

// String summarizes the distribution for logs.
func (h *Histogram) String() string {
	return fmt.Sprintf("hist{n=%d p50=%v p95=%v p99=%v max=%v}",
		h.count, h.QuantileDuration(0.50), h.QuantileDuration(0.95),
		h.QuantileDuration(0.99), time.Duration(h.Max()))
}
