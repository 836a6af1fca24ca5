package stats

import (
	"math"
	"math/rand"
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

func TestMeanSimple(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestSum(t *testing.T) {
	if got := Sum([]float64{1.5, 2.5, -1}); got != 3 {
		t.Fatalf("Sum = %v, want 3", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 {
		t.Errorf("Min = %v, want -1", Min(xs))
	}
	if Max(xs) != 7 {
		t.Errorf("Max = %v, want 7", Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Errorf("Min/Max of empty should be 0")
	}
}

func TestVarianceConstant(t *testing.T) {
	xs := []float64{5, 5, 5, 5}
	if got := Variance(xs); got != 0 {
		t.Fatalf("Variance of constant = %v, want 0", got)
	}
}

func TestStdDevKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	if got := CoefficientOfVariation([]float64{1, 1, 1}); got != 0 {
		t.Errorf("CV of constant = %v, want 0", got)
	}
	if got := CoefficientOfVariation([]float64{0, 0}); got != 0 {
		t.Errorf("CV with zero mean = %v, want 0", got)
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); err == nil {
		t.Errorf("expected error for empty sample")
	}
	if _, err := Percentile([]float64{1}, -3); err == nil {
		t.Errorf("expected error for p < 0")
	}
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Errorf("expected error for p > 100")
	}
}

func TestPercentileKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", c.p, err)
		}
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	_, _ = Percentile(xs, 50)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("Percentile mutated its input: %v", xs)
	}
}

func TestMustPercentile(t *testing.T) {
	if got := MustPercentile(nil, 99); got != 0 {
		t.Errorf("MustPercentile(nil) = %v, want 0", got)
	}
	if got := MustPercentile([]float64{1, 2}, 100); got != 2 {
		t.Errorf("MustPercentile = %v, want 2", got)
	}
}

func TestCDF(t *testing.T) {
	points := CDF([]float64{1, 1, 2, 3})
	if len(points) != 3 {
		t.Fatalf("CDF collapsed points = %d, want 3", len(points))
	}
	if points[0].Value != 1 || !almostEqual(points[0].Cumulative, 0.5, 1e-12) {
		t.Errorf("first point = %+v", points[0])
	}
	if points[2].Value != 3 || !almostEqual(points[2].Cumulative, 1, 1e-12) {
		t.Errorf("last point = %+v", points[2])
	}
	if CDF(nil) != nil {
		t.Errorf("CDF(nil) should be nil")
	}
}

func TestCDFAt(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := CDFAt(xs, 2.5); got != 0.5 {
		t.Errorf("CDFAt(2.5) = %v, want 0.5", got)
	}
	if got := CDFAt(xs, 0); got != 0 {
		t.Errorf("CDFAt(0) = %v, want 0", got)
	}
	if got := CDFAt(nil, 1); got != 0 {
		t.Errorf("CDFAt(nil) = %v, want 0", got)
	}
}

func TestCDFMonotonicProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		points := CDF(xs)
		prevV := math.Inf(-1)
		prevC := 0.0
		for _, p := range points {
			if p.Value <= prevV || p.Cumulative < prevC {
				return false
			}
			prevV, prevC = p.Value, p.Cumulative
		}
		return almostEqual(points[len(points)-1].Cumulative, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 1000)
	var o Online
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
		o.Add(xs[i])
	}
	if o.N() != len(xs) {
		t.Fatalf("N = %d", o.N())
	}
	if !almostEqual(o.Mean(), Mean(xs), 1e-9) {
		t.Errorf("online mean %v vs batch %v", o.Mean(), Mean(xs))
	}
	if !almostEqual(o.Variance(), Variance(xs), 1e-6) {
		t.Errorf("online var %v vs batch %v", o.Variance(), Variance(xs))
	}
	if o.Min() != Min(xs) || o.Max() != Max(xs) {
		t.Errorf("online min/max mismatch")
	}
}

func TestOnlineEmpty(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Variance() != 0 || o.StdDev() != 0 {
		t.Errorf("empty accumulator should report zeros")
	}
}

func TestNormalize(t *testing.T) {
	xs := []float64{1, 3}
	if !Normalize(xs) {
		t.Fatalf("Normalize returned false")
	}
	if !almostEqual(xs[0], 0.25, 1e-12) || !almostEqual(xs[1], 0.75, 1e-12) {
		t.Errorf("normalized = %v", xs)
	}
	zero := []float64{0, 0}
	if Normalize(zero) {
		t.Errorf("Normalize of zero-sum should return false")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Errorf("Clamp misbehaves")
	}
}

func TestPercentileWithinRangeProperty(t *testing.T) {
	f := func(raw []uint16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		p := float64(pRaw) / 255 * 100
		v, err := Percentile(xs, p)
		if err != nil {
			return false
		}
		return v >= Min(xs)-1e-9 && v <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryMatchesIndividualStats(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	mean, max, cv := Summary(xs)
	if !almostEqual(mean, Mean(xs), 1e-12) {
		t.Errorf("Summary mean = %v, want %v", mean, Mean(xs))
	}
	if max != Max(xs) {
		t.Errorf("Summary max = %v, want %v", max, Max(xs))
	}
	if !almostEqual(cv, CoefficientOfVariation(xs), 1e-12) {
		t.Errorf("Summary cv = %v, want %v", cv, CoefficientOfVariation(xs))
	}
	if m, mx, c := Summary(nil); m != 0 || mx != 0 || c != 0 {
		t.Errorf("Summary(nil) = %v %v %v, want zeros", m, mx, c)
	}
	if _, _, c := Summary([]float64{0, 0}); c != 0 {
		t.Errorf("zero-mean cv = %v, want 0", c)
	}
}
