package rng

import "math"

// TruncGeometric draws min(Geometric(p), cutoff) — a walk's length
// under teleport probability p and a step cap — without a logarithm on
// most draws, and equal to Stream.Geometric's on every one: the same
// stream yields the same lengths, so results pinned on Geometric stay
// pinned.
//
// Geometric inverts the 53-bit uniform x through floor(log(1-x·2⁻⁵³) /
// log(1-p)), which is a step function of x with at most cutoff steps
// below the cap. The table cuts the range of x into truncBuckets equal
// buckets by its top bits; a bucket in which the formula takes one value
// stores it, the few that straddle a step store -1 and send the draw to
// the formula.
type TruncGeometric struct {
	cutoff int
	logq   float64 // log1p(-p)
	table  []int32 // nil when p == 1: every draw is 0 and consumes nothing
}

const (
	truncBits    = 11
	truncBuckets = 1 << truncBits
	truncShift   = 53 - truncBits
	// truncGuard widens a bucket on both sides before its two ends are
	// compared. The computed quotient is the exact one (monotone in x)
	// within a relative error of a few 2⁻⁵³, and a quotient never exceeds
	// 53·ln2/|logq|, so a computed value can sit on the wrong side of a
	// step only within ~300 values of x of it; the guard is 2²⁰.
	truncGuard = 1 << 20
)

// NewTruncGeometric builds the table for (p, cutoff). It panics if
// p <= 0, p > 1 or cutoff < 0.
func NewTruncGeometric(p float64, cutoff int) *TruncGeometric {
	if p <= 0 || p > 1 {
		panic("rng: Geometric requires 0 < p <= 1")
	}
	if cutoff < 0 {
		panic("rng: TruncGeometric with cutoff < 0")
	}
	t := &TruncGeometric{cutoff: cutoff}
	if p == 1 {
		return t
	}
	t.logq = math.Log1p(-p)
	t.table = make([]int32, truncBuckets)
	for b := range t.table {
		lo := uint64(b) << truncShift
		hi := lo + 1<<truncShift - 1
		first := t.formula(lo - min(lo, truncGuard))
		last := t.formula(min(hi+truncGuard, 1<<53-1))
		if first == last {
			t.table[b] = int32(first) // ≤ MaxInt32: geometricAt clamps there
		} else {
			t.table[b] = -1
		}
	}
	return t
}

// Draw returns min(r.Geometric(p), cutoff), consuming exactly the draws
// r.Geometric(p) would (one; none when p == 1).
func (t *TruncGeometric) Draw(r *Stream) int {
	if t.table == nil {
		return 0
	}
	return t.at(r.Uint64() >> 11)
}

// at is the draw at the 53-bit uniform x.
func (t *TruncGeometric) at(x uint64) int {
	if v := t.table[x>>truncShift]; v >= 0 {
		return int(v)
	}
	return t.formula(x)
}

func (t *TruncGeometric) formula(x uint64) int {
	return min(geometricAt(x, t.logq), t.cutoff)
}
