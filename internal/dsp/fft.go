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
// one size n: the permutation the in-place kernels read their input
// in, the twiddle rows of the kernels' passes
// (forward and conjugate) and, for sizes with large prime factors, the
// Bluestein chirp kernel. Tables are shared by every Plan of the same
// size through a global cache (tablesFor), so building a Plan costs no
// trigonometry after the first one.
type planTables struct {
	pow2 bool // n is a power of two: radix-2² kernel

	// perm[i] is the input index the kernel expects at position i: bit
	// reversal for powers of two, digit reversal over factors for the
	// other 5-smooth sizes, the identity for Bluestein sizes. cycles
	// holds the smallest index of each cycle of perm longer than one,
	// so an aliased transform permutes in place.
	perm   []int32
	cycles []int32

	// tw holds one twiddle row per kernel pass, concatenated; twInv is
	// its conjugate, used by inverse transforms. For a power of two the
	// radix-2 stage of half-span h reads tw[h-1+j] = W_n^(j*n/2h),
	// j < h (n-1 entries in all). For a mixed-radix size each level has
	// a row at its off (see mixedLevel). W_n^k = exp(-2*pi*i*k/n).
	tw, twInv []complex128
	levels    []mixedLevel // mixed radix only, outermost first

	// Bluestein state, built only when n has a factor > 5.
	blu *bluTables
}

// mixedLevel is one level of the mixed-radix decomposition: it
// combines r length-m transforms, held contiguously, into one of
// length n_l = r*m. Its twiddle row has n_l entries,
// row[q*m+k1] = W_n^((k1*q*n/n_l) mod n) for q < r and k1 < m, the
// factor of the block's element q*m+k1.
type mixedLevel struct {
	r, m int
	off  int // start of the row in planTables.tw and twInv
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

// twiddle returns W_n^k and its conjugate.
func twiddle(k, n int) (w, wInv complex128) {
	s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
	return complex(c, s), complex(c, -s)
}

func buildTables(n int) *planTables {
	t := &planTables{}
	factors := factorize(n) // ascending
	if len(factors) > 0 && factors[len(factors)-1] > 5 {
		t.blu = newBluTables(n)
		t.perm = make([]int32, n)
		for i := range t.perm {
			t.perm[i] = int32(i)
		}
		return t
	}
	t.pow2 = n&(n-1) == 0
	t.perm = digitReversal(n, factors)
	for i, j := range t.perm {
		// Walk the cycle from i; i leads it if no index on it is smaller.
		for j > int32(i) {
			j = t.perm[j]
		}
		if j == int32(i) && t.perm[i] != j {
			t.cycles = append(t.cycles, j)
		}
	}
	if t.pow2 {
		t.tw = make([]complex128, n-1)
		t.twInv = make([]complex128, n-1)
		for h := 1; h < n; h <<= 1 {
			step := n / (2 * h)
			for j := 0; j < h; j++ {
				t.tw[h-1+j], t.twInv[h-1+j] = twiddle(j*step, n)
			}
		}
		return t
	}
	nl := n
	for _, r := range factors {
		t.levels = append(t.levels, mixedLevel{r: r, m: nl / r, off: len(t.tw)})
		step := n / nl
		for q := 0; q < r; q++ {
			for k1 := 0; k1 < nl/r; k1++ {
				w, wInv := twiddle(k1*q*step%n, n)
				t.tw = append(t.tw, w)
				t.twInv = append(t.twInv, wInv)
			}
		}
		nl /= r
	}
	return t
}

// digitReversal returns the input order of the in-place kernel: the
// decimation-in-time split peels factors[0] off first, so position
// p = q0*(n/f0) + q1*(n/(f0*f1)) + ... holds input q0 + q1*f0 + ...
// For a power of two this is the bit-reversal permutation.
func digitReversal(n int, factors []int) []int32 {
	perm := make([]int32, n)
	for p := range perm {
		span, stride, rem, src := n, 1, p, 0
		for _, r := range factors {
			span /= r
			src += rem / span * stride
			rem %= span
			stride *= r
		}
		perm[p] = int32(src)
	}
	return perm
}

// Plan holds the per-instance state (shared tables plus, for Bluestein
// sizes, private scratch space) for transforms of one fixed size. A
// Plan is cheap to build — the trigonometric tables are cached per
// size process-wide — and the kernels of 5-smooth sizes need no
// scratch at all.
//
// A Plan is NOT safe for concurrent use; each goroutine should own its
// plan (see NewPlan). The zero value is not usable.
type Plan struct {
	t *planTables
	n int

	// Bluestein scratch, allocated only when n has a factor > 5.
	blu *bluestein
}

// NewPlan returns a transform plan for size n. Every size whose prime
// factors are all in {2,3,5} runs in place, after a permutation of its
// input, with no recursion: powers of two on a radix-2² kernel (two
// radix-2 stages per pass over the data), the others (this covers the
// modem's 960, 1920 and 4800-point symbols) on mixed-radix
// Cooley-Tukey level passes. Any other size transparently falls back
// to Bluestein's chirp-z algorithm. NewPlan panics if n < 1.
func NewPlan(n int) *Plan {
	if n < 1 {
		panic(fmt.Sprintf("dsp: invalid FFT size %d", n))
	}
	t := tablesFor(n)
	p := &Plan{t: t, n: n}
	if t.blu != nil {
		p.blu = newBluestein(t.blu)
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

// transform is the unnormalized DFT of src into dst (which may alias).
func (p *Plan) transform(dst, src []complex128, inverse bool) {
	p.t.permute(dst, src)
	p.kernel(dst, inverse)
}

// permute writes src into dst in kernel input order, dst[i] =
// src[perm[i]]. When they alias it follows each cycle of perm in place.
func (t *planTables) permute(dst, src []complex128) {
	perm := t.perm
	if &dst[0] != &src[0] {
		for i, j := range perm {
			dst[i] = src[j]
		}
		return
	}
	for _, c := range t.cycles {
		i := c
		v := dst[i]
		for j := perm[i]; j != c; j = perm[j] {
			dst[i] = dst[j]
			i = j
		}
		dst[i] = v
	}
}

// kernel transforms x in place; x must be in kernel input order (see
// planTables.perm).
func (p *Plan) kernel(x []complex128, inverse bool) {
	t := p.t
	tw := t.tw
	if inverse {
		tw = t.twInv
	}
	switch {
	case t.blu != nil:
		p.blu.transform(x, x, inverse)
	case t.pow2:
		pow2Transform(x, tw)
	default:
		mixedTransform(x, t.levels, tw, inverse)
	}
}

func (p *Plan) checkLen(dst, src []complex128) {
	if len(dst) != p.n || len(src) != p.n {
		panic(fmt.Sprintf("dsp: plan size %d, got dst %d src %d", p.n, len(dst), len(src)))
	}
}

// pow2Transform is the decimation-in-time kernel for power-of-two
// sizes, in place on bit-reversed input. It performs exactly the
// radix-2 butterflies a = x[k], b = x[k+h]*w, x[k] = a+b,
// x[k+h] = a-b of the stages h = 1, 2, 4, ..., n/2, twiddles read
// from the stage rows of tw, but takes two stages per pass over the
// data (a radix-2² pass; the first, stages 1 and 2, on blocks of
// four), so a transform reads and writes its data about half as often.
// An odd stage count ends with one radix-2 pass. Each butterfly still
// sees the same inputs, so every output bit is the radix-2 kernel's.
// The multiply by the unit twiddle W^0 stays in: skipping it would
// change the sign of some zero outputs. It is the hot path of the
// overlap-add convolvers, whose FFT sizes are always powers of two.
func pow2Transform(x, tw []complex128) {
	n := len(x)
	h := 1
	if n >= 4 {
		// Stages h = 1 and 2 on blocks of four.
		w1, w2a, w2b := tw[0], tw[1], tw[2]
		for k := 0; k+3 < n; k += 4 {
			b := x[k : k+4 : k+4]
			t := b[1] * w1
			y0, y1 := b[0]+t, b[0]-t
			t = b[3] * w1
			y2, y3 := b[2]+t, b[2]-t
			t = y2 * w2a
			b[0], b[2] = y0+t, y0-t
			t = y3 * w2b
			b[1], b[3] = y1+t, y1-t
		}
		h = 4
	}
	for ; 4*h <= n; h *= 4 {
		radix22Pass(x, tw, h)
	}
	if 2*h == n {
		// An odd stage count ends with one radix-2 pass, h = n/2.
		h = n / 2
		a, b, w := x[:h], x[h:], tw[h-1:]
		b, w = b[:len(a)], w[:len(a)]
		for k := range a {
			t := b[k] * w[k]
			a[k], b[k] = a[k]+t, a[k]-t
		}
	}
}

// radix22Pass runs the radix-2 stages of half-spans h and 2h in one
// pass: each block of 4h holds four quarters whose j-th elements the
// two stages combine among themselves.
func radix22Pass(x, tw []complex128, h int) {
	w1 := tw[h-1 : 2*h-1]
	w2a := tw[2*h-1 : 3*h-1]
	w2b := tw[3*h-1 : 4*h-1]
	for base := 0; base+4*h <= len(x); base += 4 * h {
		x0 := x[base : base+h]
		x1 := x[base+h : base+2*h]
		x2 := x[base+2*h : base+3*h]
		x3 := x[base+3*h : base+4*h]
		x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
		w1, w2a, w2b := w1[:len(x0)], w2a[:len(x0)], w2b[:len(x0)]
		for j := range x0 {
			t := x1[j] * w1[j]
			y0, y1 := x0[j]+t, x0[j]-t
			t = x3[j] * w1[j]
			y2, y3 := x2[j]+t, x2[j]-t
			t = y2 * w2a[j]
			x0[j], x2[j] = y0+t, y0-t
			t = y3 * w2b[j]
			x1[j], x3[j] = y1+t, y1-t
		}
	}
}

// mixedTransform is the decimation-in-time kernel for 5-smooth sizes
// that are not powers of two, in place on digit-reversed input. It
// runs one pass per level from the innermost factor outward; a level
// combines, in each of its blocks of n_l = r*m, the r length-m
// transforms held at q*m (q < r) into
//
//	X[k1 + m*k2] = sum_q W_n_l^(k1*q) * W_r^(k2*q) * Y_q[k1],
//
// each output set k1+m*k2 (k2 < r) being exactly the input set
// q*m+k1, so the combine needs no scratch. Every input, W^0 terms
// included, is multiplied by its twiddle before the small DFT.
func mixedTransform(x []complex128, levels []mixedLevel, tw []complex128, inverse bool) {
	for l := len(levels) - 1; l >= 0; l-- {
		r, m := levels[l].r, levels[l].m
		row := tw[levels[l].off : levels[l].off+r*m]
		switch r {
		case 2:
			radix2Level(x, row, m)
		case 3:
			radix3Level(x, row, m, inverse)
		default:
			radix5Level(x, row, m, inverse)
		}
	}
}

// radix2Level, radix3Level and radix5Level run one level pass. Its
// twiddle row lines up with each block, so input b[q*m+k1] is
// multiplied by row[q*m+k1] before the small DFT across q.
func radix2Level(x, row []complex128, m int) {
	w0, w1 := row[:m], row[m:2*m]
	for base := 0; base+2*m <= len(x); base += 2 * m {
		b0 := x[base : base+m]
		b1 := x[base+m : base+2*m]
		b1, w0, w1 := b1[:len(b0)], w0[:len(b0)], w1[:len(b0)]
		for k1 := range b0 {
			z0, z1 := b0[k1]*w0[k1], b1[k1]*w1[k1]
			b0[k1], b1[k1] = z0+z1, z0-z1
		}
	}
}

func radix3Level(x, row []complex128, m int, inverse bool) {
	w0, w1, w2 := row[:m], row[m:2*m], row[2*m:3*m]
	for base := 0; base+3*m <= len(x); base += 3 * m {
		b0 := x[base : base+m]
		b1 := x[base+m : base+2*m]
		b2 := x[base+2*m : base+3*m]
		b1, b2 = b1[:len(b0)], b2[:len(b0)]
		w0, w1, w2 := w0[:len(b0)], w1[:len(b0)], w2[:len(b0)]
		for k1 := range b0 {
			b0[k1], b1[k1], b2[k1] = dft3(b0[k1]*w0[k1], b1[k1]*w1[k1], b2[k1]*w2[k1], inverse)
		}
	}
}

func radix5Level(x, row []complex128, m int, inverse bool) {
	w0, w1, w2, w3, w4 := row[:m], row[m:2*m], row[2*m:3*m], row[3*m:4*m], row[4*m:5*m]
	for base := 0; base+5*m <= len(x); base += 5 * m {
		b0 := x[base : base+m]
		b1 := x[base+m : base+2*m]
		b2 := x[base+2*m : base+3*m]
		b3 := x[base+3*m : base+4*m]
		b4 := x[base+4*m : base+5*m]
		b1, b2, b3, b4 = b1[:len(b0)], b2[:len(b0)], b3[:len(b0)], b4[:len(b0)]
		w0, w1, w2, w3, w4 := w0[:len(b0)], w1[:len(b0)], w2[:len(b0)], w3[:len(b0)], w4[:len(b0)]
		for k1 := range b0 {
			b0[k1], b1[k1], b2[k1], b3[k1], b4[k1] = dft5(
				b0[k1]*w0[k1], b1[k1]*w1[k1], b2[k1]*w2[k1], b3[k1]*w3[k1], b4[k1]*w4[k1], inverse)
		}
	}
}

// dft3 returns the 3-point DFT of z0, z1, z2.
func dft3(z0, z1, z2 complex128, inverse bool) (x0, x1, x2 complex128) {
	const s3 = 0.8660254037844386 // sin(pi/3)
	t1 := z1 + z2
	t2 := z0 - t1*complex(0.5, 0)
	t3 := (z1 - z2) * complex(0, -s3)
	if inverse {
		t3 = -t3
	}
	return z0 + t1, t2 + t3, t2 - t3
}

// dft5 returns the 5-point DFT of z0..z4 using the Winograd-style
// decomposition.
func dft5(z0, z1, z2, z3, z4 complex128, inverse bool) (x0, x1, x2, x3, x4 complex128) {
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
	t1 := z1 + z4
	t2 := z2 + z3
	t3 := z1 - z4
	t4 := z2 - z3
	a1 := z0 + t1*complex(c1, 0) + t2*complex(c2, 0)
	a2 := z0 + t1*complex(c2, 0) + t2*complex(c1, 0)
	b1 := t3*complex(0, -sa) + t4*complex(0, -sb)
	b2 := t3*complex(0, -sb) - t4*complex(0, -sa)
	return z0 + t1 + t2, a1 + b1, a2 + b2, a2 - b2, a1 - b1
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
// so only bins 0..n/2 are produced and consumed. Forward packs the
// samples straight into the half plan's kernel input order, and
// Inverse applies the 1/n scale while unpacking, so neither spends a
// pass of its own on the permutation or the scaling.
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
	// Pack straight into the half plan's kernel input order.
	z := dst[:h]
	for k, j := range p.half.t.perm {
		z[k] = complex(src[2*j], src[2*j+1])
	}
	p.half.kernel(z, false)
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
	// The half-size inverse, normalized by 1/h while unpacking.
	p.half.transform(z, z, true)
	scale := complex(1/float64(h), 0)
	for k, v := range z {
		v *= scale
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
