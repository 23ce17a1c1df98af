package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile is the sort-based oracle: the order statistic at rank
// ceil(q*n) of the recorded multiset, after the same clamping Record
// applies (negatives and NaN to zero).
func exactQuantile(values []float64, q float64) float64 {
	s := make([]float64, len(values))
	for i, v := range values {
		if v < 0 || math.IsNaN(v) {
			v = 0
		}
		s[i] = v
	}
	sort.Float64s(s)
	target := int(math.Ceil(q * float64(len(s))))
	if target < 1 {
		target = 1
	}
	return s[target-1]
}

// maxBucketWidth returns the widest bucket of a bounds layout,
// including the implicit (0, bounds[0]] first bucket.
func maxBucketWidth(bounds []float64) float64 {
	w := bounds[0]
	for i := 1; i < len(bounds); i++ {
		if d := bounds[i] - bounds[i-1]; d > w {
			w = d
		}
	}
	return w
}

// checkQuantiles holds a histogram's quantile and mean readout to the
// sort oracle: every quantile estimate must land within one bucket
// width of the exact order statistic, and the mean must be exact up to
// float summation error. Values past the last bound are excluded by the
// callers — the overflow bucket clamps to the histogram's horizon,
// which is documented, not an approximation error.
func checkQuantiles(t *testing.T, h *Histogram, values []float64, bounds []float64) {
	t.Helper()
	width := maxBucketWidth(bounds)
	for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		got := h.Quantile(q)
		want := exactQuantile(values, q)
		if math.Abs(got-want) > width {
			t.Fatalf("Quantile(%g) = %g, exact %g: error exceeds one bucket width (%g)",
				q, got, want, width)
		}
	}
	var sum float64
	for _, v := range values {
		if v < 0 || math.IsNaN(v) {
			v = 0
		}
		sum += v
	}
	wantMean := sum / float64(len(values))
	if got := h.Mean(); math.Abs(got-wantMean) > 1e-9*math.Max(1, math.Abs(wantMean)) {
		t.Fatalf("Mean() = %g, exact %g", got, wantMean)
	}
}

// linearBuckets returns n bounds start, start+width, ....
func linearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// TestHistogramQuantileProperty drives seeded random workloads with
// several bucket layouts through the oracle comparison.
func TestHistogramQuantileProperty(t *testing.T) {
	layouts := []struct {
		name   string
		bounds []float64
	}{
		{"linear", linearBuckets(10, 10, 50)},
		{"exp", ExpBuckets(1, 2, 16)},
		{"single", []float64{100}},
	}
	for _, layout := range layouts {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			last := layout.bounds[len(layout.bounds)-1]
			n := 1 + rng.Intn(2000)
			values := make([]float64, n)
			h := NewHistogram(layout.bounds)
			for i := range values {
				// Mix of in-range values and exact bound hits; cap at
				// the last bound so the oracle property applies.
				v := rng.Float64() * last
				if rng.Intn(10) == 0 {
					v = layout.bounds[rng.Intn(len(layout.bounds))]
				}
				values[i] = v
				h.Record(v)
			}
			checkQuantiles(t, h, values, layout.bounds)
			if h.Count() != int64(n) {
				t.Fatalf("%s seed %d: Count() = %d, want %d", layout.name, seed, h.Count(), n)
			}
		}
	}
}

func TestHistogramOverflowAndClamp(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	h.Record(100) // overflow
	h.Record(-5)  // clamps to 0, lands in bucket (0,1]
	h.Record(math.NaN())
	if got := h.Count(); got != 3 {
		t.Fatalf("Count() = %d, want 3", got)
	}
	if got := h.Quantile(1); got != 4 {
		t.Fatalf("Quantile(1) with overflow = %g, want the last bound 4", got)
	}
	counts := h.BucketCounts()
	if counts[0] != 2 || counts[len(counts)-1] != 1 {
		t.Fatalf("bucket counts = %v, want clamped values in bucket 0 and one overflow", counts)
	}
}

func TestHistogramEmptyAndNil(t *testing.T) {
	var nilH *Histogram
	nilH.Record(1)
	if nilH.Count() != 0 || nilH.Quantile(0.5) != 0 || nilH.Mean() != 0 {
		t.Fatal("nil histogram must no-op")
	}
	h := NewHistogram([]float64{1})
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zero")
	}
}

func TestHistogramMalformedBoundsPanic(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}, {0, 1}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

// FuzzHistogramQuantile feeds arbitrary byte-derived value streams and
// quantiles through the oracle comparison. Runs in the CI fuzz smoke.
func FuzzHistogramQuantile(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 0.5)
	f.Add([]byte{255, 0, 128}, 0.99)
	f.Add([]byte{0}, 0.0)
	bounds := linearBuckets(8, 8, 32)
	last := bounds[len(bounds)-1]
	f.Fuzz(func(t *testing.T, data []byte, q float64) {
		if len(data) == 0 {
			return
		}
		if math.IsNaN(q) || q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		values := make([]float64, len(data))
		h := NewHistogram(bounds)
		for i, b := range data {
			// Bytes scale onto [0, last] so every value is within the
			// histogram's horizon and the oracle property applies.
			v := float64(b) / 255 * last
			values[i] = v
			h.Record(v)
		}
		got := h.Quantile(q)
		want := exactQuantile(values, q)
		if width := maxBucketWidth(bounds); math.Abs(got-want) > width {
			t.Fatalf("Quantile(%g) = %g, exact %g: error exceeds one bucket width (%g)",
				q, got, want, width)
		}
	})
}
