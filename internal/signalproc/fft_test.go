package signalproc

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// dftNaive is an O(n^2) reference DFT used to validate the FFT.
func dftNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum
	}
	return out
}

func complexAlmostEqual(a, b []complex128, eps float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > eps {
			return false
		}
	}
	return true
}

func randomComplex(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return out
}

func TestFFTEmpty(t *testing.T) {
	if _, err := FFT(nil); err == nil {
		t.Fatalf("expected error for empty input")
	}
	if _, err := IFFT(nil); err == nil {
		t.Fatalf("expected error for empty input")
	}
	if _, err := FFTReal(nil); err == nil {
		t.Fatalf("expected error for empty input")
	}
}

func TestFFTSingle(t *testing.T) {
	out, err := FFT([]complex128{3 + 4i})
	if err != nil || out[0] != 3+4i {
		t.Fatalf("FFT of single sample = %v, %v", out, err)
	}
	inv, err := IFFT([]complex128{3 + 4i})
	if err != nil || inv[0] != 3+4i {
		t.Fatalf("IFFT of single sample = %v, %v", inv, err)
	}
}

func TestFFTMatchesNaivePowerOfTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 4, 8, 16, 64, 256} {
		x := randomComplex(rng, n)
		got, err := FFT(x)
		if err != nil {
			t.Fatal(err)
		}
		want := dftNaive(x)
		if !complexAlmostEqual(got, want, 1e-6*float64(n)) {
			t.Fatalf("FFT mismatch for n=%d", n)
		}
	}
}

func TestFFTMatchesNaiveArbitraryLength(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{3, 5, 6, 7, 12, 31, 60, 100} {
		x := randomComplex(rng, n)
		got, err := FFT(x)
		if err != nil {
			t.Fatal(err)
		}
		want := dftNaive(x)
		if !complexAlmostEqual(got, want, 1e-6*float64(n)) {
			t.Fatalf("Bluestein FFT mismatch for n=%d", n)
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{8, 10, 21, 64, 100, 255} {
		x := randomComplex(rng, n)
		spec, err := FFT(x)
		if err != nil {
			t.Fatal(err)
		}
		back, err := IFFT(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !complexAlmostEqual(back, x, 1e-7*float64(n)) {
			t.Fatalf("round trip mismatch for n=%d", n)
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 200 {
			return true
		}
		x := make([]complex128, len(raw))
		for i, r := range raw {
			x[i] = complex(float64(r)/255, rng.Float64())
		}
		spec, err := FFT(x)
		if err != nil {
			return false
		}
		back, err := IFFT(spec)
		if err != nil {
			return false
		}
		return complexAlmostEqual(back, x, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 48
	a := randomComplex(rng, n)
	b := randomComplex(rng, n)
	sum := make([]complex128, n)
	for i := range sum {
		sum[i] = a[i] + b[i]
	}
	fa, _ := FFT(a)
	fb, _ := FFT(b)
	fsum, _ := FFT(sum)
	expect := make([]complex128, n)
	for i := range expect {
		expect[i] = fa[i] + fb[i]
	}
	if !complexAlmostEqual(fsum, expect, 1e-6) {
		t.Fatalf("FFT is not linear")
	}
}

func TestFFTParsevalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 128
	x := randomComplex(rng, n)
	spec, _ := FFT(x)
	timeEnergy := 0.0
	for _, v := range x {
		timeEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	freqEnergy := 0.0
	for _, v := range spec {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	freqEnergy /= float64(n)
	if math.Abs(timeEnergy-freqEnergy) > 1e-6*timeEnergy {
		t.Fatalf("Parseval violated: %v vs %v", timeEnergy, freqEnergy)
	}
}

func TestPowerSpectrumDetectsSine(t *testing.T) {
	n := 720 // one day at 2-minute slots
	cycles := 31
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.5 + 0.3*math.Sin(2*math.Pi*float64(cycles)*float64(i)/float64(n))
	}
	spectrum, err := PowerSpectrum(x)
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for i := range spectrum {
		if spectrum[i] > spectrum[best] {
			best = i
		}
	}
	if best+1 != cycles {
		t.Fatalf("dominant bin = %d, want %d", best+1, cycles)
	}
}

func TestPowerSpectrumErrors(t *testing.T) {
	if _, err := PowerSpectrum(nil); err == nil {
		t.Errorf("empty input should error")
	}
	if _, err := PowerSpectrum([]float64{1}); err == nil {
		t.Errorf("single sample has no non-DC bins and should error")
	}
}

func TestFactorize(t *testing.T) {
	cases := map[int][]int{
		1: {}, 2: {2}, 8: {4, 2}, 30: {2, 3, 5}, 1024: {4, 4, 4, 4, 4},
		10800: {4, 4, 3, 3, 3, 5, 5}, 7: nil, 22: nil, 21601: nil,
	}
	for n, want := range cases {
		got, smooth := factorize(n)
		if smooth != (want != nil) || smooth && !slices.Equal(got, want) {
			t.Errorf("factorize(%d) = %v, %v, want %v", n, got, smooth, want)
		}
	}
}

func TestNextSmooth(t *testing.T) {
	cases := map[int]int{1: 1, 7: 8, 13: 15, 17: 18, 61: 64, 1000: 1000, 43201: 43740}
	for in, want := range cases {
		if got := nextSmooth(in); got != want {
			t.Errorf("nextSmooth(%d) = %d, want %d", in, got, want)
		}
	}
}

// TestFFTMatchesNaiveEverySmoothLength runs the kernel at every length it
// handles directly up to 1,024 — each butterfly, in every stage order the
// factorization produces.
func TestFFTMatchesNaiveEverySmoothLength(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lengths := 0
	for n := 1; n <= 1024; n++ {
		radices, smooth := factorize(n)
		if !smooth {
			continue
		}
		lengths++
		x := randomComplex(rng, n)
		got, err := FFT(x)
		if err != nil {
			t.Fatal(err)
		}
		if !complexAlmostEqual(got, dftNaive(x), 1e-9*float64(n)) {
			t.Errorf("FFT mismatch for n=%d (radices %v)", n, radices)
		}
	}
	if lengths != 87 {
		t.Fatalf("visited %d 5-smooth lengths up to 1024, want 87", lengths)
	}
}

// TestFFTMatchesNaiveBluestein covers lengths with a prime factor above 5:
// the chirp-z fallback, convolving on the same kernel.
func TestFFTMatchesNaiveBluestein(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{7, 11, 13, 14, 77, 91, 143, 211, 1001, 1009} {
		if _, smooth := factorize(n); smooth {
			t.Fatalf("n=%d is 5-smooth and would not reach the fallback", n)
		}
		x := randomComplex(rng, n)
		got, err := FFT(x)
		if err != nil {
			t.Fatal(err)
		}
		if !complexAlmostEqual(got, dftNaive(x), 1e-9*float64(n)) {
			t.Errorf("Bluestein FFT mismatch for n=%d", n)
		}
	}
}

// TestPowerSpectrumMatchesComplexPath checks the real-input path (even n:
// packed half-length transform; odd n: widened) against the magnitudes of the
// full complex transform.
func TestPowerSpectrumMatchesComplexPath(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{2, 3, 4, 6, 14, 30, 45, 360, 625, 720, 1001, 2002, 21600, 21601} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
		}
		got, err := PowerSpectrum(x)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := FFTReal(x)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n/2 {
			t.Fatalf("n=%d: %d bins, want %d", n, len(got), n/2)
		}
		for k, v := range got {
			if want := cmplx.Abs(spec[k+1]); math.Abs(v-want) > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: %v, want %v", n, k+1, v, want)
			}
		}
	}
}

// TestPowerSpectrumConcurrent runs more lengths at once than the plan cache
// keeps, so plans are built, evicted and rebuilt, their unpack tables added
// and scratch buffers traded between goroutines, all under -race; every
// result must equal the serial one.
func TestPowerSpectrumConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lengths := []int{360, 361, 722, 1000, 1001, 2048, 2002, 21600}
	inputs := make([][]float64, len(lengths))
	want := make([][]float64, len(lengths))
	for i, n := range lengths {
		inputs[i] = make([]float64, n)
		for j := range inputs[i] {
			inputs[i][j] = rng.Float64()
		}
		want[i], _ = PowerSpectrum(inputs[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for i := range lengths {
					i = (i + g) % len(lengths)
					got, err := PowerSpectrum(inputs[i])
					if err != nil || !slices.Equal(got, want[i]) {
						t.Errorf("n=%d: concurrent spectrum differs from the serial one (err %v)", lengths[i], err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func monthSeries() []float64 {
	rng := rand.New(rand.NewSource(10))
	x := make([]float64, 21600)
	for i := range x {
		x[i] = 0.4 + 0.3*math.Sin(2*math.Pi*30*float64(i)/float64(len(x))) + 0.1*rng.Float64()
	}
	return x
}

// TestMonthSpectrumAllocations pins what a caller pays per tenant: the
// spectrum it gets back and nothing else.
func TestMonthSpectrumAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own, and empties sync.Pool at random")
	}
	x := monthSeries()
	if got := testing.AllocsPerRun(20, func() {
		if _, err := PowerSpectrum(x); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("PowerSpectrum: %v allocations per run, want 1", got)
	}
	cfg := DefaultClassifierConfig()
	if got := testing.AllocsPerRun(20, func() {
		if _, err := Classify(x, cfg); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("Classify: %v allocations per run, want at most 1", got)
	}
}

var spectrumSink []float64

func BenchmarkPowerSpectrumMonth(b *testing.B) {
	x := monthSeries()
	b.ReportAllocs()
	for b.Loop() {
		spectrumSink, _ = PowerSpectrum(x)
	}
}
