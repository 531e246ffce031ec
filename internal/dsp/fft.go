// Package dsp provides the signal-processing substrate used by the
// aquago underwater modem: fast Fourier transforms, FIR filter design,
// fast convolution and correlation, tone detection, Toeplitz solvers,
// resampling and spectral statistics.
//
// Everything is implemented from scratch on the standard library. All
// transforms operate on complex128/float64 slices; none of the
// functions retain references to their arguments.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// planTables holds the immutable precomputed state for transforms of
// one size: factorization, twiddle factors (forward and conjugate),
// the bit-reversal permutation for power-of-two sizes and the
// Bluestein chirp kernel for sizes with large prime factors. Tables
// are shared by every Plan of the same size through a global cache
// (tablesFor), so building a Plan costs no trigonometry after the
// first one — only its private scratch buffers.
type planTables struct {
	n        int
	factors  []int        // prime factors of n in ascending order
	maxRadix int          // largest factor (caps the small-DFT scratch)
	pow2     bool         // n is a power of two: iterative radix-2 path
	tw       []complex128 // tw[j] = exp(-2*pi*i*j/n)
	twInv    []complex128 // conj(tw[j]), used by inverse transforms
	rev      []int32      // bit-reversal permutation (pow2 only)

	// Bluestein state, built only when n has a factor > 5.
	blu *bluTables
}

// bluTables is the immutable part of the Bluestein chirp-z transform.
type bluTables struct {
	n    int
	m    int         // power-of-two convolution size >= 2n-1
	sub  *planTables // tables for the size-m sub-transform
	w    []complex128
	bfft []complex128 // forward FFT of the chirp kernel
}

// planTableCache maps transform size -> *planTables. Tables are
// immutable after construction, so sharing them across goroutines is
// safe even though a Plan itself is not.
var planTableCache sync.Map

// tablesFor returns the shared tables for size n, building them on
// first use.
func tablesFor(n int) *planTables {
	if v, ok := planTableCache.Load(n); ok {
		return v.(*planTables)
	}
	t := buildTables(n)
	actual, _ := planTableCache.LoadOrStore(n, t)
	return actual.(*planTables)
}

func buildTables(n int) *planTables {
	t := &planTables{n: n}
	t.factors = factorize(n)
	t.maxRadix = 1
	for _, f := range t.factors {
		if f > t.maxRadix {
			t.maxRadix = f
		}
	}
	if t.maxRadix > 5 {
		t.blu = newBluTables(n)
		return t
	}
	t.tw = make([]complex128, n)
	t.twInv = make([]complex128, n)
	for j := 0; j < n; j++ {
		s, c := math.Sincos(-2 * math.Pi * float64(j) / float64(n))
		t.tw[j] = complex(c, s)
		t.twInv[j] = complex(c, -s)
	}
	if n&(n-1) == 0 {
		t.pow2 = true
		t.rev = bitReversal(n)
	}
	return t
}

// bitReversal returns the bit-reversal permutation for a power-of-two
// size (rev[rev[i]] == i, so it doubles as an in-place swap schedule).
func bitReversal(n int) []int32 {
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	rev := make([]int32, n)
	for i := range rev {
		rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	return rev
}

// Plan holds the per-instance state (shared tables plus private
// scratch space) for transforms of one fixed size. A Plan is cheap to
// build — the trigonometric tables are cached per size process-wide —
// and amortizes all scratch allocation across calls.
//
// A Plan is NOT safe for concurrent use; each goroutine should own its
// plan (see NewPlan). The zero value is not usable.
type Plan struct {
	t       *planTables
	n       int
	scratch []complex128 // mixed-radix combine scratch, length n
	dft     []complex128 // small-DFT scratch (max factor wide)
	alias   []complex128 // lazily built copy buffer for aliased calls

	// Bluestein scratch, allocated only when n has a factor > 5.
	blu *bluestein
}

// NewPlan returns a transform plan for size n. Power-of-two sizes use
// an iterative radix-2 kernel; other sizes whose prime factors are all
// in {2,3,5} (this covers the modem's 960, 1920 and 4800-point
// symbols) use a mixed-radix Cooley-Tukey decomposition; any other
// size transparently falls back to Bluestein's chirp-z algorithm.
// NewPlan panics if n < 1.
func NewPlan(n int) *Plan {
	if n < 1 {
		panic(fmt.Sprintf("dsp: invalid FFT size %d", n))
	}
	t := tablesFor(n)
	p := &Plan{t: t, n: n}
	switch {
	case t.blu != nil:
		p.blu = newBluestein(t.blu)
	case t.pow2:
		// The iterative kernel works in place after the bit-reversal
		// permutation; no scratch needed.
	default:
		p.scratch = make([]complex128, n)
		p.dft = make([]complex128, t.maxRadix)
	}
	return p
}

// Size returns the transform length the plan was built for.
func (p *Plan) Size() int { return p.n }

// Forward computes the unnormalized forward DFT of src into dst.
// dst and src must both have length Size(); they may alias.
func (p *Plan) Forward(dst, src []complex128) {
	p.checkLen(dst, src)
	p.transform(dst, src, false)
}

// Inverse computes the inverse DFT of src into dst, normalized by 1/n
// so that Inverse(Forward(x)) == x. dst and src may alias.
func (p *Plan) Inverse(dst, src []complex128) {
	p.checkLen(dst, src)
	p.transform(dst, src, true)
	scale := complex(1/float64(p.n), 0)
	for i := range dst {
		dst[i] *= scale
	}
}

func (p *Plan) transform(dst, src []complex128, inverse bool) {
	t := p.t
	switch {
	case t.blu != nil:
		p.blu.transform(dst, src, inverse)
	case t.pow2:
		p.pow2Transform(dst, src, inverse)
	default:
		if &dst[0] == &src[0] {
			if p.alias == nil {
				p.alias = make([]complex128, p.n)
			}
			copy(p.alias, src)
			src = p.alias
		}
		tw := t.tw
		if inverse {
			tw = t.twInv
		}
		p.recurse(dst, src, p.n, 1, 0, tw, inverse)
	}
}

func (p *Plan) checkLen(dst, src []complex128) {
	if len(dst) != p.n || len(src) != p.n {
		panic(fmt.Sprintf("dsp: plan size %d, got dst %d src %d", p.n, len(dst), len(src)))
	}
}

// pow2Transform is the iterative radix-2 decimation-in-time kernel:
// bit-reversal permutation followed by log2(n) butterfly passes, fully
// in place. It is the hot path of the overlap-add convolvers, whose
// FFT sizes are always powers of two.
func (p *Plan) pow2Transform(dst, src []complex128, inverse bool) {
	n := p.n
	rev := p.t.rev
	if &dst[0] == &src[0] {
		// rev is an involution: swapping each pair once permutes in
		// place without scratch.
		for i, j := range rev {
			if int32(i) < j {
				dst[i], dst[j] = dst[j], dst[i]
			}
		}
	} else {
		for i, j := range rev {
			dst[i] = src[j]
		}
	}
	tw := p.t.tw
	if inverse {
		tw = p.t.twInv
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for base := 0; base < n; base += size {
			ti := 0
			for k := base; k < base+half; k++ {
				a := dst[k]
				b := dst[k+half] * tw[ti]
				dst[k] = a + b
				dst[k+half] = a - b
				ti += step
			}
		}
	}
}

// recurse performs a decimation-in-time step: the length-n transform
// at the given stride of src is written contiguously into dst.
// factIdx indexes the next factor to peel off; tw is the (forward or
// conjugate) twiddle table.
func (p *Plan) recurse(dst, src []complex128, n, stride, factIdx int, tw []complex128, inverse bool) {
	if n == 1 {
		dst[0] = src[0]
		return
	}
	r := p.t.factors[factIdx] // radix for this stage
	m := n / r
	// Transform the r decimated subsequences.
	for q := 0; q < r; q++ {
		p.recurse(dst[q*m:(q+1)*m], src[q*stride:], m, stride*r, factIdx+1, tw, inverse)
	}
	// Combine: X[k1 + m*k2] = sum_q W_n^(k1*q) * W_r^(k2*q) * Y_q[k1].
	twStep := p.n / n
	out := p.scratch[:n]
	z := p.dft[:r]
	for k1 := 0; k1 < m; k1++ {
		// The twiddle index k1*q*twStep advances by wStep per q;
		// wStep < p.n, so a single conditional subtraction replaces
		// the modulo in the inner loop.
		wStep := k1 * twStep
		idx := 0
		for q := 0; q < r; q++ {
			z[q] = dst[q*m+k1] * tw[idx]
			idx += wStep
			if idx >= p.n {
				idx -= p.n
			}
		}
		switch r {
		case 2:
			out[k1] = z[0] + z[1]
			out[k1+m] = z[0] - z[1]
		case 3:
			dft3(out, z, k1, m, inverse)
		case 5:
			dft5(out, z, k1, m, inverse)
		default:
			p.dftGeneric(out, z, k1, m, r, tw)
		}
	}
	copy(dst[:n], out)
}

// dft3 writes the 3-point DFT of z into out[k1], out[k1+m], out[k1+2m].
func dft3(out, z []complex128, k1, m int, inverse bool) {
	const s3 = 0.8660254037844386 // sin(pi/3)
	t1 := z[1] + z[2]
	t2 := z[0] - t1*complex(0.5, 0)
	t3 := (z[1] - z[2]) * complex(0, -s3)
	if inverse {
		t3 = -t3
	}
	out[k1] = z[0] + t1
	out[k1+m] = t2 + t3
	out[k1+2*m] = t2 - t3
}

// dft5 writes the 5-point DFT of z into out[k1+q*m] for q=0..4 using
// the Winograd-style decomposition.
func dft5(out, z []complex128, k1, m int, inverse bool) {
	const (
		c1 = 0.30901699437494745 // cos(2pi/5)
		c2 = -0.8090169943749475 // cos(4pi/5)
		s1 = 0.9510565162951535  // sin(2pi/5)
		s2 = 0.5877852522924731  // sin(4pi/5)
	)
	sa, sb := s1, s2
	if inverse {
		sa, sb = -sa, -sb
	}
	t1 := z[1] + z[4]
	t2 := z[2] + z[3]
	t3 := z[1] - z[4]
	t4 := z[2] - z[3]
	out[k1] = z[0] + t1 + t2
	a1 := z[0] + t1*complex(c1, 0) + t2*complex(c2, 0)
	a2 := z[0] + t1*complex(c2, 0) + t2*complex(c1, 0)
	b1 := t3*complex(0, -sa) + t4*complex(0, -sb)
	b2 := t3*complex(0, -sb) - t4*complex(0, -sa)
	out[k1+m] = a1 + b1
	out[k1+2*m] = a2 + b2
	out[k1+3*m] = a2 - b2
	out[k1+4*m] = a1 - b1
}

// dftGeneric is the O(r^2) fallback for radices other than 2/3/5.
// It is only reachable when factorize admits larger primes, which the
// current implementation routes to Bluestein instead; it is kept so the
// combine step stays correct if the factor policy ever changes.
func (p *Plan) dftGeneric(out, z []complex128, k1, m, r int, tw []complex128) {
	twStep := p.n / r
	for k2 := 0; k2 < r; k2++ {
		var acc complex128
		idx := 0
		wStep := k2 * twStep % p.n
		for q := 0; q < r; q++ {
			acc += z[q] * tw[idx]
			idx += wStep
			if idx >= p.n {
				idx -= p.n
			}
		}
		out[k1+k2*m] = acc
	}
}

// factorize returns the prime factorization of n in ascending order.
func factorize(n int) []int {
	var f []int
	for _, p := range []int{2, 3, 5} {
		for n%p == 0 {
			f = append(f, p)
			n /= p
		}
	}
	for d := 7; d*d <= n; d += 2 {
		for n%d == 0 {
			f = append(f, d)
			n /= d
		}
	}
	if n > 1 {
		f = append(f, n)
	}
	return f
}

// newBluTables precomputes the chirp and its transformed kernel for
// Bluestein's algorithm: an arbitrary-length DFT expressed as a
// convolution, evaluated with a power-of-two FFT.
func newBluTables(n int) *bluTables {
	m := 1 << uint(bits.Len(uint(2*n-1)))
	bt := &bluTables{n: n, m: m, sub: tablesFor(m)}
	bt.w = make([]complex128, n)
	for k := 0; k < n; k++ {
		// k*k may overflow for large n; reduce mod 2n first.
		kk := (int64(k) * int64(k)) % int64(2*n)
		s, c := math.Sincos(-math.Pi * float64(kk) / float64(n))
		bt.w[k] = complex(c, s)
	}
	kernel := make([]complex128, m)
	kernel[0] = complex(1, 0)
	for k := 1; k < n; k++ {
		conj := complex(real(bt.w[k]), -imag(bt.w[k]))
		kernel[k] = conj
		kernel[m-k] = conj
	}
	bt.bfft = make([]complex128, m)
	NewPlan(m).Forward(bt.bfft, kernel)
	return bt
}

// bluestein carries the per-plan scratch for the chirp-z transform.
type bluestein struct {
	t   *bluTables
	sub *Plan
	a   []complex128
	b   []complex128
}

func newBluestein(t *bluTables) *bluestein {
	return &bluestein{
		t:   t,
		sub: NewPlan(t.m),
		a:   make([]complex128, t.m),
		b:   make([]complex128, t.m),
	}
}

func (bs *bluestein) transform(dst, src []complex128, inverse bool) {
	n, m := bs.t.n, bs.t.m
	w, bfft := bs.t.w, bs.t.bfft
	for i := range bs.a {
		bs.a[i] = 0
	}
	for k := 0; k < n; k++ {
		x := src[k]
		if inverse {
			// Inverse DFT of x == conj(forward DFT of conj(x)).
			x = complex(real(x), -imag(x))
		}
		bs.a[k] = x * w[k]
	}
	bs.sub.Forward(bs.b, bs.a)
	for i := 0; i < m; i++ {
		bs.b[i] *= bfft[i]
	}
	bs.sub.Inverse(bs.a, bs.b)
	for k := 0; k < n; k++ {
		v := bs.a[k] * w[k]
		if inverse {
			v = complex(real(v), -imag(v))
		}
		dst[k] = v
	}
}

// realTwiddleCache maps real-transform size n -> its split twiddles
// tw[k] = exp(-2*pi*i*k/n) for k = 0..n/4 (the split pass pairs bin k
// with bin n/2-k, so it never needs more). Like planTables they are
// immutable and shared by every RealPlan of the size.
var realTwiddleCache sync.Map

func realTwiddles(n int) []complex128 {
	if v, ok := realTwiddleCache.Load(n); ok {
		return v.([]complex128)
	}
	tw := make([]complex128, n/4+1)
	for k := range tw {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		tw[k] = complex(c, s)
	}
	actual, _ := realTwiddleCache.LoadOrStore(n, tw)
	return actual.([]complex128)
}

// RealPlan computes DFTs of real signals of one even size n with a
// single n/2-point complex Plan: the even and odd samples are packed
// as the real and imaginary parts of one half-size signal, and a split
// pass separates their spectra. A real signal's spectrum is Hermitian,
// so only bins 0..n/2 are produced and consumed.
//
// Like Plan, a RealPlan is NOT safe for concurrent use.
type RealPlan struct {
	n    int
	half *Plan
	tw   []complex128
}

// NewRealPlan returns a real-signal transform plan for size n. It
// panics unless n is even and positive.
func NewRealPlan(n int) *RealPlan {
	if n < 2 || n%2 != 0 {
		panic(fmt.Sprintf("dsp: invalid real FFT size %d (want even >= 2)", n))
	}
	return &RealPlan{n: n, half: NewPlan(n / 2), tw: realTwiddles(n)}
}

// Size returns the real signal length the plan was built for.
func (p *RealPlan) Size() int { return p.n }

// Bins returns the number of spectrum bins, n/2+1.
func (p *RealPlan) Bins() int { return p.n/2 + 1 }

// Forward writes bins 0..n/2 of the unnormalized DFT of the real
// signal src (length Size) into dst (length Bins).
func (p *RealPlan) Forward(dst []complex128, src []float64) {
	h := p.n / 2
	if len(src) != p.n || len(dst) != h+1 {
		panic(fmt.Sprintf("dsp: real plan size %d, got dst %d src %d", p.n, len(dst), len(src)))
	}
	z := dst[:h]
	for k := range z {
		z[k] = complex(src[2*k], src[2*k+1])
	}
	p.half.Forward(z, z)
	// With Z the half-size transform of z = even + i*odd, the even and
	// odd spectra are E[k] = (Z[k] + conj(Z[h-k]))/2 and
	// O[k] = (Z[k] - conj(Z[h-k]))/(2i), and X[k] = E[k] + W^k O[k].
	// Bins k and h-k share their inputs, so each pair is split in place.
	z0 := z[0]
	dst[0] = complex(real(z0)+imag(z0), 0)
	dst[h] = complex(real(z0)-imag(z0), 0)
	for k := 1; 2*k <= h; k++ {
		a, b := z[k], z[h-k]
		b = complex(real(b), -imag(b))
		e := complex((real(a)+real(b))*0.5, (imag(a)+imag(b))*0.5)
		o := complex((imag(a)-imag(b))*0.5, (real(b)-real(a))*0.5) // (a-b)/(2i)
		wo := p.tw[k] * o
		dst[k] = e + wo
		if k != h-k {
			v := e - wo
			dst[h-k] = complex(real(v), -imag(v))
		}
	}
}

// Inverse writes the n real samples whose spectrum has bins 0..n/2
// equal to src, normalized by 1/n like Plan.Inverse, so
// Inverse(Forward(x)) == x. The imaginary parts of bins 0 and n/2 are
// ignored, as they are zero for any real signal. src is used as
// scratch space and overwritten.
func (p *RealPlan) Inverse(dst []float64, src []complex128) {
	h := p.n / 2
	if len(dst) != p.n || len(src) != h+1 {
		panic(fmt.Sprintf("dsp: real plan size %d, got dst %d src %d", p.n, len(dst), len(src)))
	}
	// Undo the split: E[k] = (X[k] + conj(X[h-k]))/2 and
	// O[k] = (X[k] - conj(X[h-k])) conj(W^k)/2 rebuild Z = E + i*O,
	// whose half-size inverse is even + i*odd.
	x0, xh := real(src[0]), real(src[h])
	z := src[:h]
	z[0] = complex((x0+xh)*0.5, (x0-xh)*0.5)
	for k := 1; 2*k <= h; k++ {
		a, b := src[k], src[h-k]
		b = complex(real(b), -imag(b))
		e := complex((real(a)+real(b))*0.5, (imag(a)+imag(b))*0.5)
		w := p.tw[k]
		o := (a - b) * complex(real(w)*0.5, -imag(w)*0.5)
		z[k] = complex(real(e)-imag(o), imag(e)+real(o)) // e + i*o
		if k != h-k {
			// Z[h-k] = conj(e) + i*conj(o).
			z[h-k] = complex(real(e)+imag(o), real(o)-imag(e))
		}
	}
	p.half.Inverse(z, z)
	for k, v := range z {
		dst[2*k] = real(v)
		dst[2*k+1] = imag(v)
	}
}

// FFT returns the forward DFT of x as a new slice. For repeated
// transforms of the same size prefer NewPlan.
func FFT(x []complex128) []complex128 {
	p := NewPlan(len(x))
	out := make([]complex128, len(x))
	p.Forward(out, x)
	return out
}

// IFFT returns the normalized inverse DFT of x as a new slice.
func IFFT(x []complex128) []complex128 {
	p := NewPlan(len(x))
	out := make([]complex128, len(x))
	p.Inverse(out, x)
	return out
}

// FFTReal transforms a real signal, returning the full complex
// spectrum (length len(x)).
func FFTReal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	return FFT(c)
}

// NextPow2 returns the smallest power of two >= n (and 1 for n <= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << uint(bits.Len(uint(n-1)))
}
