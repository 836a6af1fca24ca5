// Package signalproc implements the signal-processing pipeline the paper uses
// to understand primary tenant utilization: a Fast Fourier Transform, power
// spectra, and the classification of one-month utilization traces into
// periodic, constant, and unpredictable patterns (§3.2).
//
// Every transform runs on one kernel: a forward, out-of-place, decimation-in-
// time mixed-radix FFT (radix 4, 2, 3 and 5 butterflies) driven by a plan built
// once per length. A month of two-minute slots is 21,600 = 2⁵·3³·5² samples, so
// the window the whole repo classifies needs no padding; real series are
// packed into a half-length complex transform. Lengths with a prime factor
// above 5 (a telemetry ring refilling after an eviction) go through
// Bluestein's chirp-z convolution, which runs on the same kernel.
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

// FFT computes the discrete Fourier transform of x, for any length.
func FFT(x []complex128) ([]complex128, error) {
	if len(x) == 0 {
		return nil, ErrEmptyInput
	}
	out := make([]complex128, len(x))
	planFor(len(x)).transform(out, x)
	return out, nil
}

// IFFT computes the inverse discrete Fourier transform of x, normalized by
// 1/N so that IFFT(FFT(x)) == x. It is the forward kernel between two
// conjugations.
func IFFT(x []complex128) ([]complex128, error) {
	n := len(x)
	if n == 0 {
		return nil, ErrEmptyInput
	}
	buf := borrow(n)
	defer scratch.Put(buf)
	in := *buf
	for i, v := range x {
		in[i] = cmplx.Conj(v)
	}
	out := make([]complex128, n)
	planFor(n).transform(out, in)
	scale := 1 / float64(n)
	for i, v := range out {
		out[i] = complex(real(v)*scale, -imag(v)*scale)
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

// PowerSpectrum returns the magnitude of each frequency bin of the real
// series x, excluding the DC component (bin 0) and covering bins 1..N/2.
// Bin k corresponds to a signal that repeats k times over the series length —
// for a one-month trace, bin 31 is the daily cycle the paper highlights in
// Figure 1b.
//
// An even-length series is transformed at half length, and the returned slice
// is then the only allocation: samples 2j and 2j+1
// become the real and imaginary part of point j, and the spectra of the even
// and the odd samples are separated again from the symmetry of the result.
func PowerSpectrum(x []float64) ([]float64, error) {
	n := len(x)
	if n == 0 {
		return nil, ErrEmptyInput
	}
	half := n / 2
	if half < 1 {
		return nil, fmt.Errorf("signalproc: series of length %d has no non-DC bins", n)
	}
	out := make([]float64, half)
	if n%2 != 0 {
		// Nothing to pair up (a ring caught refilling at an odd length): the
		// widened series goes through the complex transform.
		spec, err := FFTReal(x)
		for k := range out {
			out[k] = magnitude(spec[k+1])
		}
		return out, err
	}
	p := planFor(half)
	buf := borrow(n)
	defer scratch.Put(buf)
	z, spec := (*buf)[:half], (*buf)[half:]
	for j := range z {
		z[j] = complex(x[2*j], x[2*j+1])
	}
	p.transform(spec, z)
	// With E and O the half-length spectra of the even and the odd samples,
	// spec = E + iO, so E[k] = (spec[k] + conj(spec[half-k]))/2 and
	// O[k] = (spec[k] - conj(spec[half-k]))/2i; bin k of x is E[k] + w[k]·O[k]
	// with w[k] = exp(-2πik/n).
	w := p.unpackTwiddles()
	for k := 1; k < half; k++ {
		a, b := spec[k], spec[half-k]
		e := complex(real(a)+real(b), imag(a)-imag(b))
		o := complex(imag(a)+imag(b), real(b)-real(a))
		out[k-1] = magnitude(e+w[k]*o) / 2
	}
	out[half-1] = math.Abs(real(spec[0]) - imag(spec[0]))
	return out, nil
}

// magnitude is |v| without cmplx.Abs's overflow guard: spectra of
// utilization fractions stay far inside float64's range.
func magnitude(v complex128) float64 {
	return math.Sqrt(real(v)*real(v) + imag(v)*imag(v))
}

// scratch lends the transforms their working buffers (the packed input and
// raw spectrum of the real path, Bluestein's padded convolution operands), so
// a transform allocates nothing but its result.
var scratch sync.Pool // of *[]complex128

func borrow(n int) *[]complex128 {
	if b, _ := scratch.Get().(*[]complex128); b != nil && cap(*b) >= n {
		*b = (*b)[:n]
		return b
	}
	b := make([]complex128, n)
	return &b
}

// plan is everything a transform computes from its length alone. Immutable
// once built, except for the lazily added unpack table.
type plan struct {
	n int

	// A 5-smooth length runs on the kernel directly.
	radices []int        // stage radices, outermost first; their product is n
	tw      []complex128 // tw[k] = exp(-2πik/n)

	// Any other length is a convolution with a chirp (Bluestein), evaluated
	// with two transforms of the 5-smooth length conv.n >= 2n-1.
	chirp  []complex128 // chirp[k] = exp(-iπk²/n)
	filter []complex128 // transform of the conjugate chirp laid out circularly, over conv.n
	conv   *plan

	unpackOnce sync.Once
	unpack     []complex128 // unpack[k] = exp(-2πik/2n), k < n: the real path's recombination twiddles
}

// plans keeps the most recently built plans. A clustering pass transforms
// every tenant's window, and the windows are one length (the telemetry ring's
// capacity), so each pass builds one plan instead of one per tenant; the bound
// is for rings refilling after an eviction, whose length differs every pass.
var plans = struct {
	sync.Mutex
	byLen map[int]*plan
}{byLen: make(map[int]*plan)}

const maxPlans = 4

func planFor(n int) *plan {
	plans.Lock()
	p := plans.byLen[n]
	plans.Unlock()
	if p != nil {
		return p
	}
	p = newPlan(n)
	plans.Lock()
	if len(plans.byLen) >= maxPlans {
		clear(plans.byLen)
	}
	plans.byLen[n] = p
	plans.Unlock()
	return p
}

func newPlan(n int) *plan {
	p := &plan{n: n}
	if radices, smooth := factorize(n); smooth {
		p.radices, p.tw = radices, unitRoots(n, n)
		return p
	}
	p.conv = planFor(nextSmooth(2*n - 1))
	m := p.conv.n
	p.chirp = make([]complex128, n)
	b := make([]complex128, m)
	for k := range p.chirp {
		// k² mod 2n keeps the angle small, and with it exact, for large k.
		kk := (int64(k) * int64(k)) % int64(2*n)
		sin, cos := math.Sincos(math.Pi * float64(kk) / float64(n))
		p.chirp[k] = complex(cos, -sin)
		b[k] = complex(cos, sin)
		if k > 0 {
			b[m-k] = b[k]
		}
	}
	p.filter = make([]complex128, m)
	p.conv.transform(p.filter, b)
	return p
}

// unitRoots returns exp(-2πik/n) for k < count, each from its own Sincos: a
// table carries none of the error a w *= step recurrence accumulates.
func unitRoots(n, count int) []complex128 {
	w := make([]complex128, count)
	for k := range w {
		sin, cos := math.Sincos(2 * math.Pi * float64(k) / float64(n))
		w[k] = complex(cos, -sin)
	}
	return w
}

func (p *plan) unpackTwiddles() []complex128 {
	p.unpackOnce.Do(func() { p.unpack = unitRoots(2*p.n, p.n) })
	return p.unpack
}

// factorize splits n into the kernel's radices — fours first, so a power of
// two runs mostly on the cheapest butterfly — and reports whether that used n
// up, i.e. whether n is 5-smooth.
func factorize(n int) (radices []int, smooth bool) {
	for _, r := range [...]int{4, 2, 3, 5} {
		for n%r == 0 {
			radices = append(radices, r)
			n /= r
		}
	}
	return radices, n == 1
}

// nextSmooth returns the smallest 5-smooth number >= n.
func nextSmooth(n int) int {
	for {
		if _, smooth := factorize(n); smooth {
			return n
		}
		n++
	}
}

// transform writes the DFT of in to out; both are p.n long and must not
// overlap.
func (p *plan) transform(out, in []complex128) {
	if p.conv == nil {
		p.work(out, in, 1, p.radices)
		return
	}
	// Bluestein: nk = (n² + k² - (k-n)²)/2 turns the DFT into the chirp-
	// weighted input convolved with the conjugate chirp. The inverse
	// transform of the product is the forward kernel between two
	// conjugations, its 1/m folded into the last multiply.
	m := p.conv.n
	buf := borrow(2 * m)
	defer scratch.Put(buf)
	a, b := (*buf)[:m], (*buf)[m:]
	for k, v := range in {
		a[k] = v * p.chirp[k]
	}
	clear(a[p.n:])
	p.conv.transform(b, a)
	for i, v := range b {
		b[i] = cmplx.Conj(v * p.filter[i])
	}
	p.conv.transform(a, b)
	scale := complex(1/float64(m), 0)
	for k := range out {
		out[k] = cmplx.Conj(a[k]) * scale * p.chirp[k]
	}
}

const (
	sin60 = 0.86602540378443864676372317075293618347140262690519 // sin(2π/6)
	cos72 = 0.30901699437494742410229341718281905886015458990288 // cos(2π/5)
	sin72 = 0.95105651629515357211643933337938214340569863412575 // sin(2π/5)
	cos36 = 0.80901699437494742410229341718281905886015458990288 // -cos(4π/5)
	sin36 = 0.58778525229247312916870595463907276859765243764314 // sin(4π/5)
)

// work computes the len(out)-point DFT of in[0], in[stride], in[2·stride], …
// into out. With r = radices[0] and m = len(out)/r, the r decimated
// sub-sequences are transformed into the r consecutive m-long blocks of out
// (the recursion), and one pass of radix-r butterflies combines them in
// place. stride is also n/len(out), the step through the twiddle table that
// turns it into the table of this stage's length.
func (p *plan) work(out, in []complex128, stride int, radices []int) {
	if len(radices) == 0 { // n == 1
		out[0] = in[0]
		return
	}
	r := radices[0]
	m := len(out) / r
	if m == 1 { // the recursion's leaves, inlined: a call per sample costs a quarter more
		for q := range out {
			out[q] = in[q*stride]
		}
	} else {
		for q := 0; q < r; q++ {
			p.work(out[q*m:(q+1)*m], in[q*stride:], stride*r, radices[1:])
		}
	}
	tw := p.tw
	switch r {
	case 2:
		o0, o1 := out[:m], out[m:2*m]
		for k := range o0 {
			a0, a1 := o0[k], o1[k]*tw[k*stride]
			o0[k], o1[k] = a0+a1, a0-a1
		}
	case 3:
		o0, o1, o2 := out[:m], out[m:2*m], out[2*m:3*m]
		for k := range o0 {
			a0, a1, a2 := o0[k], o1[k]*tw[k*stride], o2[k]*tw[2*k*stride]
			s, d := a1+a2, a1-a2
			t := a0 - complex(real(s)/2, imag(s)/2)
			u := complex(imag(d)*sin60, -real(d)*sin60)
			o0[k], o1[k], o2[k] = a0+s, t+u, t-u
		}
	case 4:
		o0, o1, o2, o3 := out[:m], out[m:2*m], out[2*m:3*m], out[3*m:4*m]
		for k := range o0 {
			a0, a1, a2, a3 := o0[k], o1[k]*tw[k*stride], o2[k]*tw[2*k*stride], o3[k]*tw[3*k*stride]
			t0, t1, t2, d := a0+a2, a0-a2, a1+a3, a1-a3
			t3 := complex(imag(d), -real(d))
			o0[k], o1[k], o2[k], o3[k] = t0+t2, t1+t3, t0-t2, t1-t3
		}
	case 5:
		o0, o1, o2, o3, o4 := out[:m], out[m:2*m], out[2*m:3*m], out[3*m:4*m], out[4*m:5*m]
		for k := range o0 {
			a0, a1, a2, a3, a4 := o0[k], o1[k]*tw[k*stride], o2[k]*tw[2*k*stride], o3[k]*tw[3*k*stride], o4[k]*tw[4*k*stride]
			s14, d14, s23, d23 := a1+a4, a1-a4, a2+a3, a2-a3
			b1 := a0 + complex(cos72*real(s14)-cos36*real(s23), cos72*imag(s14)-cos36*imag(s23))
			b2 := a0 + complex(cos72*real(s23)-cos36*real(s14), cos72*imag(s23)-cos36*imag(s14))
			e1 := complex(sin72*imag(d14)+sin36*imag(d23), -sin72*real(d14)-sin36*real(d23))
			e2 := complex(sin36*imag(d14)-sin72*imag(d23), sin72*real(d23)-sin36*real(d14))
			o0[k], o1[k], o2[k], o3[k], o4[k] = a0+s14+s23, b1+e1, b2+e2, b2-e2, b1-e1
		}
	}
}
