package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram of nonnegative values with a
// quantile readout. Bucket i counts values in (bounds[i-1], bounds[i]]
// (bucket 0 starts at zero); values above the last bound land in an
// overflow bucket. Recording is a binary search plus one atomic add, so
// histograms are safe for concurrent recording, and bucket counts are
// order-independent: the same multiset of values always produces the
// same counts, which is what lets histograms appear in the canonical
// manifest. The mean is kept from an exact running sum; because float
// addition is order-sensitive under concurrency, the mean is volatile
// and canonical manifests carry only the bucket counts.
//
// A nil Histogram ignores all operations.
type Histogram struct {
	bounds   []float64
	counts   []atomic.Int64 // len(bounds)+1; last is overflow
	count    atomic.Int64
	sumBits  atomic.Uint64 // float64 bits of the running sum
	overflow atomic.Int64
}

// NewHistogram creates a histogram with the given ascending bucket upper
// bounds. Panics if bounds is empty or not strictly increasing — bucket
// layout is part of a metric's identity, so a malformed layout is a
// programming error, not a runtime condition.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	if bounds[0] <= 0 {
		panic("obs: histogram bounds must be positive")
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	return h
}

// ExpBuckets returns n bounds start, start*factor, start*factor², ....
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Record adds one observation. Negative values clamp to zero.
func (h *Histogram) Record(v float64) {
	if h == nil {
		return
	}
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Mean returns the mean of recorded observations (0 if none). Exact up
// to float addition order; volatile under concurrent recording.
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load()) / float64(n)
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) by linear
// interpolation inside the bucket holding the target rank. The estimate
// is within one bucket width of the exact order statistic for values at
// or below the last bound; values in the overflow bucket report the last
// bound (the histogram cannot see past it).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		if cum+n >= target {
			if i == len(h.bounds) {
				// Overflow bucket: the last bound is the histogram's
				// horizon.
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := float64(target-cum) / float64(n)
			return lo + frac*(hi-lo)
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// BucketCounts returns a copy of the bucket counts; the last entry is
// the overflow bucket.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Bounds returns the bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}
