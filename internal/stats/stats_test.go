package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestMeanSingle(t *testing.T) {
	if got := Mean([]float64{42}); got != 42 {
		t.Fatalf("Mean([42]) = %v, want 42", got)
	}
}

func TestMeanKnown(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestPopStdDevEmpty(t *testing.T) {
	if got := PopStdDev(nil); got != 0 {
		t.Fatalf("PopStdDev(nil) = %v, want 0", got)
	}
}

func TestPopStdDevConstant(t *testing.T) {
	if got := PopStdDev([]float64{7, 7, 7}); got != 0 {
		t.Fatalf("PopStdDev(constant) = %v, want 0", got)
	}
}

func TestPopStdDevKnown(t *testing.T) {
	// Population stddev of {2, 4, 4, 4, 5, 5, 7, 9} is exactly 2.
	got := PopStdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEqual(got, 2, 1e-12) {
		t.Fatalf("PopStdDev = %v, want 2", got)
	}
}

func TestSampleStdDevKnown(t *testing.T) {
	// Sample stddev of {1, 2, 3} is 1.
	got := SampleStdDev([]float64{1, 2, 3})
	if !almostEqual(got, 1, 1e-12) {
		t.Fatalf("SampleStdDev = %v, want 1", got)
	}
}

func TestSampleStdDevShort(t *testing.T) {
	if got := SampleStdDev([]float64{3}); got != 0 {
		t.Fatalf("SampleStdDev(single) = %v, want 0", got)
	}
}

func TestPearsonPerfectPositive(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{10, 20, 30, 40}
	if got := Pearson(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("Pearson = %v, want 1", got)
	}
}

func TestPearsonPerfectNegative(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{8, 6, 4, 2}
	if got := Pearson(xs, ys); !almostEqual(got, -1, 1e-12) {
		t.Fatalf("Pearson = %v, want -1", got)
	}
}

func TestPearsonConstantSeries(t *testing.T) {
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("Pearson(constant, y) = %v, want 0", got)
	}
}

func TestPearsonLengthMismatch(t *testing.T) {
	if got := Pearson([]float64{1, 2}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("Pearson(mismatch) = %v, want 0", got)
	}
}

func TestPearsonUncorrelatedNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 20000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	if got := Pearson(xs, ys); math.Abs(got) > 0.05 {
		t.Fatalf("Pearson(independent) = %v, want ~0", got)
	}
}

func TestMax(t *testing.T) {
	if got := Max([]float64{3, -1, 7, 2}); got != 7 {
		t.Fatalf("Max = %v, want 7", got)
	}
	if Max(nil) != 0 {
		t.Fatal("Max of empty input should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{100, 50},
		{50, 35},
		{25, 20},
		{-5, 15},
		{105, 50},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Percentile mutated its input: %v", xs)
	}
}

func TestPercentileEmpty(t *testing.T) {
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("Percentile(nil) = %v, want 0", got)
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 1000)
	var w Welford
	for i := range xs {
		xs[i] = rng.NormFloat64()*5 + 10
		w.Add(xs[i])
	}
	if w.N() != len(xs) {
		t.Fatalf("N = %d, want %d", w.N(), len(xs))
	}
	if !almostEqual(w.Mean(), Mean(xs), 1e-9) {
		t.Fatalf("Welford mean = %v, batch mean = %v", w.Mean(), Mean(xs))
	}
	if !almostEqual(w.PopStdDev(), PopStdDev(xs), 1e-9) {
		t.Fatalf("Welford popsd = %v, batch = %v", w.PopStdDev(), PopStdDev(xs))
	}
	if !almostEqual(w.SampleStdDev(), SampleStdDev(xs), 1e-9) {
		t.Fatalf("Welford samplesd = %v, batch = %v", w.SampleStdDev(), SampleStdDev(xs))
	}
}

func TestWelfordZeroValue(t *testing.T) {
	var w Welford
	if w.N() != 0 || w.Mean() != 0 || w.PopStdDev() != 0 || w.SampleStdDev() != 0 {
		t.Fatal("zero-value Welford should report zeros")
	}
}

// Property: PopStdDev is translation invariant and scales with |k|.
func TestQuickStdDevAffine(t *testing.T) {
	f := func(raw []float64, shift float64, scale float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			// Keep values in a sane range to avoid float blowup.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				continue
			}
			xs = append(xs, x)
		}
		if len(xs) == 0 {
			return true
		}
		shift = math.Mod(shift, 1e6)
		if math.IsNaN(shift) {
			shift = 0
		}
		scale = math.Mod(scale, 100)
		if math.IsNaN(scale) {
			scale = 1
		}
		base := PopStdDev(xs)
		shifted := make([]float64, len(xs))
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + shift
			scaled[i] = x * scale
		}
		tol := 1e-6 * (1 + base + math.Abs(shift) + math.Abs(scale)*base)
		return almostEqual(PopStdDev(shifted), base, tol) &&
			almostEqual(PopStdDev(scaled), math.Abs(scale)*base, tol)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Pearson is bounded in [-1, 1] and symmetric.
func TestQuickPearsonBoundsAndSymmetry(t *testing.T) {
	f := func(pairs [][2]float64) bool {
		xs := make([]float64, 0, len(pairs))
		ys := make([]float64, 0, len(pairs))
		for _, p := range pairs {
			if math.IsNaN(p[0]) || math.IsNaN(p[1]) || math.IsInf(p[0], 0) || math.IsInf(p[1], 0) {
				continue
			}
			if math.Abs(p[0]) > 1e6 || math.Abs(p[1]) > 1e6 {
				continue
			}
			xs = append(xs, p[0])
			ys = append(ys, p[1])
		}
		r := Pearson(xs, ys)
		if r < -1-1e-9 || r > 1+1e-9 {
			return false
		}
		return almostEqual(r, Pearson(ys, xs), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the smallest element <= Mean <= Max for nonempty input.
func TestQuickMinMeanMaxOrder(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				continue
			}
			xs = append(xs, x)
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return slices.Min(xs) <= m+1e-9 && m <= Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
