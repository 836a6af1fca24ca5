// Package signalproc implements the signal-processing pipeline the paper uses
// to understand primary tenant utilization: a Fast Fourier Transform, power
// spectra, and the classification of one-month utilization traces into
// periodic, constant, and unpredictable patterns (§3.2).
package signalproc

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"sync"
)

// ErrEmptyInput is returned when a transform is requested on an empty series.
var ErrEmptyInput = errors.New("signalproc: empty input")

// FFT computes the discrete Fourier transform of x. Power-of-two lengths use
// an iterative radix-2 Cooley-Tukey algorithm; other lengths use Bluestein's
// chirp-z transform so arbitrary trace lengths (e.g. 21600 two-minute slots in
// a month) are supported without padding artefacts.
func FFT(x []complex128) ([]complex128, error) {
	n := len(x)
	if n == 0 {
		return nil, ErrEmptyInput
	}
	if n == 1 {
		return []complex128{x[0]}, nil
	}
	if isPowerOfTwo(n) {
		out := make([]complex128, n)
		copy(out, x)
		radix2(out, false)
		return out, nil
	}
	return bluestein(x, false)
}

// IFFT computes the inverse discrete Fourier transform of x, normalized by
// 1/N so that IFFT(FFT(x)) == x.
func IFFT(x []complex128) ([]complex128, error) {
	n := len(x)
	if n == 0 {
		return nil, ErrEmptyInput
	}
	var out []complex128
	var err error
	if n == 1 {
		out = []complex128{x[0]}
	} else if isPowerOfTwo(n) {
		out = make([]complex128, n)
		copy(out, x)
		radix2(out, true)
	} else {
		out, err = bluestein(x, true)
		if err != nil {
			return nil, err
		}
	}
	scale := complex(1/float64(n), 0)
	for i := range out {
		out[i] *= scale
	}
	return out, nil
}

// FFTReal transforms a real-valued series and returns the complex spectrum.
func FFTReal(x []float64) ([]complex128, error) {
	if len(x) == 0 {
		return nil, ErrEmptyInput
	}
	cx := make([]complex128, len(x))
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	return FFT(cx)
}

func isPowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// nextPowerOfTwo returns the smallest power of two >= n.
func nextPowerOfTwo(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// radix2 performs an in-place iterative Cooley-Tukey FFT on a power-of-two
// length slice. When inverse is true the conjugate twiddles are used (the
// caller applies the 1/N normalization).
func radix2(a []complex128, inverse bool) {
	n := len(a)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		angle := 2 * math.Pi / float64(length)
		if !inverse {
			angle = -angle
		}
		wl := cmplx.Exp(complex(0, angle))
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			half := length / 2
			for k := 0; k < half; k++ {
				u := a[start+k]
				v := a[start+k+half] * w
				a[start+k] = u + v
				a[start+k+half] = u - v
				w *= wl
			}
		}
	}
}

// bluesteinPlan is everything Bluestein's transform computes from the length
// and direction alone: the chirp, and the spectrum of the chirp filter the
// input is convolved with. Immutable once built.
type bluesteinPlan struct {
	w []complex128 // chirp w[k] = exp(sign * i*pi*k^2/n), n long
	b []complex128 // radix-2 transform of the conjugate chirp laid out circularly, m long
}

type planKey struct {
	n       int
	inverse bool
}

// plans keeps the most recently built plans. A clustering pass transforms
// every tenant's window, and the windows are one length (the telemetry ring's
// capacity), so each pass builds one plan instead of one per tenant; the bound
// is for rings refilling after an eviction, whose length differs every pass.
var plans = struct {
	sync.Mutex
	byKey map[planKey]*bluesteinPlan
}{byKey: make(map[planKey]*bluesteinPlan)}

const maxPlans = 4

func planFor(n int, inverse bool) *bluesteinPlan {
	key := planKey{n, inverse}
	plans.Lock()
	p := plans.byKey[key]
	plans.Unlock()
	if p != nil {
		return p
	}
	m := nextPowerOfTwo(2*n + 1)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	p = &bluesteinPlan{w: make([]complex128, n), b: make([]complex128, m)}
	for k := 0; k < n; k++ {
		// k^2 mod 2n avoids precision loss for large k.
		kk := (int64(k) * int64(k)) % int64(2*n)
		angle := sign * math.Pi * float64(kk) / float64(n)
		p.w[k] = cmplx.Exp(complex(0, angle))
	}
	p.b[0] = cmplx.Conj(p.w[0])
	for k := 1; k < n; k++ {
		p.b[k] = cmplx.Conj(p.w[k])
		p.b[m-k] = cmplx.Conj(p.w[k])
	}
	radix2(p.b, false)
	plans.Lock()
	if len(plans.byKey) >= maxPlans {
		clear(plans.byKey)
	}
	plans.byKey[key] = p
	plans.Unlock()
	return p
}

// bluestein computes the DFT of an arbitrary-length sequence by re-expressing
// it as a convolution, which is evaluated with power-of-two FFTs.
func bluestein(x []complex128, inverse bool) ([]complex128, error) {
	n := len(x)
	plan := planFor(n, inverse)
	w, b := plan.w, plan.b
	m := len(b)
	a := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * w[k]
	}
	radix2(a, false)
	for i := range a {
		a[i] *= b[i]
	}
	radix2(a, true)
	invM := complex(1/float64(m), 0)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		out[k] = a[k] * invM * w[k]
	}
	return out, nil
}

// PowerSpectrum returns the magnitude of each frequency bin of the real
// series x, excluding the DC component (bin 0) and covering bins 1..N/2.
// Bin k corresponds to a signal that repeats k times over the series length —
// for a one-month trace, bin 31 is the daily cycle the paper highlights in
// Figure 1b.
func PowerSpectrum(x []float64) ([]float64, error) {
	spectrum, err := FFTReal(x)
	if err != nil {
		return nil, err
	}
	half := len(x) / 2
	if half < 1 {
		return nil, fmt.Errorf("signalproc: series of length %d has no non-DC bins", len(x))
	}
	out := make([]float64, half)
	for k := 1; k <= half; k++ {
		out[k-1] = cmplx.Abs(spectrum[k])
	}
	return out, nil
}
