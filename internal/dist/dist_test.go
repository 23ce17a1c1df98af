package dist

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSourceDeterminism(t *testing.T) {
	a := NewSource(42)
	b := NewSource(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestForkIndependence(t *testing.T) {
	a := NewSource(1)
	fork1 := a.Fork()
	// Re-create and fork again: the fork must be reproducible.
	b := NewSource(1)
	fork2 := b.Fork()
	for i := 0; i < 10; i++ {
		if fork1.Float64() != fork2.Float64() {
			t.Fatalf("forks from same seed diverged at draw %d", i)
		}
	}
}

func TestBoolEdges(t *testing.T) {
	s := NewSource(1)
	for i := 0; i < 50; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if s.Bool(-0.5) {
			t.Fatal("Bool(negative) returned true")
		}
		if !s.Bool(1.5) {
			t.Fatal("Bool(>1) returned false")
		}
	}
}

func TestExpMean(t *testing.T) {
	s := NewSource(7)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(100)
	}
	mean := sum / n
	if math.Abs(mean-100) > 2 {
		t.Errorf("Exp(100) sample mean = %v, want ~100", mean)
	}
	if s.Exp(0) != 0 || s.Exp(-5) != 0 {
		t.Errorf("Exp of non-positive mean should be 0")
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := NewSource(9)
	const n = 100001
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = s.LogNormal(1000, 1.5)
	}
	// The median of samples should be near the parameter.
	count := 0
	for _, x := range xs {
		if x <= 1000 {
			count++
		}
	}
	frac := float64(count) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("fraction below median = %v, want ~0.5", frac)
	}
	if s.LogNormal(0, 1) != 0 {
		t.Errorf("LogNormal with non-positive median should be 0")
	}
}

func TestZipfSkew(t *testing.T) {
	s := NewSource(13)
	z := NewZipf(s, 1.5, 100)
	counts := make([]int, 100)
	const n = 100000
	for i := 0; i < n; i++ {
		idx := z.Draw()
		if idx < 0 || idx >= 100 {
			t.Fatalf("Zipf draw %d out of range", idx)
		}
		counts[idx]++
	}
	if counts[0] <= counts[50]*5 {
		t.Errorf("Zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
	if z.N() != 100 {
		t.Errorf("N = %d, want 100", z.N())
	}
}

func TestZipfPanics(t *testing.T) {
	s := NewSource(1)
	for name, f := range map[string]func(){
		"zeroN":   func() { NewZipf(s, 2, 0) },
		"badSkew": func() { NewZipf(s, 1, 10) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			f()
		})
	}
}

func TestWeightedDraw(t *testing.T) {
	s := NewSource(17)
	w := NewWeighted([]float64{1, 0, 3})
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[w.Draw(s)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
}

func TestWeightedPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty":    func() { NewWeighted(nil) },
		"negative": func() { NewWeighted([]float64{1, -1}) },
		"allZero":  func() { NewWeighted([]float64{0, 0}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			f()
		})
	}
}

func TestEmpiricalMatchesBreakpoints(t *testing.T) {
	s := NewSource(19)
	// 50% of values <= 1000, 90% <= 10000, 100% <= 1e6.
	e := NewEmpirical([]float64{1000, 10000, 1e6}, []float64{0.5, 0.9, 1.0})
	const n = 200000
	var below1k, below10k int
	for i := 0; i < n; i++ {
		x := e.Draw(s)
		if x <= 0 {
			t.Fatalf("non-positive sample %v", x)
		}
		if x > 1e6+1e-6 {
			t.Fatalf("sample %v above last breakpoint", x)
		}
		if x <= 1000 {
			below1k++
		}
		if x <= 10000 {
			below10k++
		}
	}
	if f := float64(below1k) / n; math.Abs(f-0.5) > 0.01 {
		t.Errorf("fraction <= 1000 = %v, want ~0.5", f)
	}
	if f := float64(below10k) / n; math.Abs(f-0.9) > 0.01 {
		t.Errorf("fraction <= 10000 = %v, want ~0.9", f)
	}
}

func TestEmpiricalPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty":       func() { NewEmpirical(nil, nil) },
		"mismatch":    func() { NewEmpirical([]float64{1}, []float64{0.5, 1}) },
		"notAscValue": func() { NewEmpirical([]float64{2, 1}, []float64{0.5, 1}) },
		"notAscFrac":  func() { NewEmpirical([]float64{1, 2}, []float64{0.9, 0.5}) },
		"noEndAtOne":  func() { NewEmpirical([]float64{1, 2}, []float64{0.5, 0.9}) },
		"nonPositive": func() { NewEmpirical([]float64{0, 2}, []float64{0.5, 1}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			f()
		})
	}
}

// Property: Weighted.Draw always returns an index with positive weight.
func TestWeightedNeverPicksZero(t *testing.T) {
	f := func(seed int64, raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		anyPositive := false
		for i, r := range raw {
			weights[i] = float64(r)
			if r > 0 {
				anyPositive = true
			}
		}
		if !anyPositive {
			return true
		}
		w := NewWeighted(weights)
		s := NewSource(seed)
		for i := 0; i < 100; i++ {
			idx := w.Draw(s)
			if idx < 0 || idx >= len(weights) || weights[idx] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
