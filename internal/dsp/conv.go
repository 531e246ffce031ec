package dsp

import "math/bits"

// Convolve returns the full linear convolution of a and b
// (length len(a)+len(b)-1). Small workloads use the direct O(n*m)
// algorithm; larger ones switch to FFT overlap-free convolution.
// Empty inputs yield an empty result.
func Convolve(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	// Heuristic crossover: direct wins below ~64 taps on either side.
	if len(a) < 64 || len(b) < 64 {
		return convolveDirect(a, b)
	}
	return convolveFFT(a, b)
}

func convolveDirect(a, b []float64) []float64 {
	out := make([]float64, len(a)+len(b)-1)
	for i, av := range a {
		if av == 0 {
			continue
		}
		for j, bv := range b {
			out[i+j] += av * bv
		}
	}
	return out
}

func convolveFFT(a, b []float64) []float64 {
	n := len(a) + len(b) - 1
	p := NewRealPlan(NextPow2(n))
	buf := make([]float64, p.Size())
	fa, fb := halfSpectra(p, buf, a, b)
	for i, v := range fb {
		fa[i] *= v
	}
	p.Inverse(buf, fa)
	// Copy out rather than return buf[:n]: link construction keeps
	// its impulse responses, which should not pin the padding.
	return append([]float64(nil), buf[:n]...)
}

// halfSpectra returns the half spectra of a and b, each zero-padded to
// p.Size() in the scratch buf, from one allocation.
func halfSpectra(p *RealPlan, buf, a, b []float64) (fa, fb []complex128) {
	nb := p.Bins()
	s := make([]complex128, 2*nb)
	fa, fb = s[:nb], s[nb:]
	copy(buf, a)
	clear(buf[len(a):])
	p.Forward(fa, buf)
	copy(buf, b)
	clear(buf[len(b):])
	p.Forward(fb, buf)
	return fa, fb
}

// OverlapAdd is a reusable fast convolver for one fixed FIR kernel
// applied to arbitrarily long signals, using the overlap-add method.
// It exists because the channel simulator convolves hundreds of long
// waveforms with the same few-hundred-tap impulse response.
//
// The transform size is chosen per call. An input that fits one block
// is convolved in one segment at the smallest power of two (at least
// 256) that holds its whole output; longer inputs run the block loop at
// the full size, about 8x the kernel. The kernel's half-spectrum is
// stored once, at the full size: the spectrum at a smaller size m is
// every (full/m)-th bin of it, exactly, because the kernel fits in m
// samples and so does not alias.
type OverlapAdd struct {
	kernel []float64
	block  int          // input block length per full-size segment
	plans  []*RealPlan  // plans[log2(m)] for transform size m, built on first use
	kfft   []complex128 // kernel half-spectrum at the full size
	spec   []complex128 // segment half-spectrum scratch
	seg    []float64    // segment scratch, full size
}

// NewOverlapAdd prepares an overlap-add convolver for the kernel.
func NewOverlapAdd(kernel []float64) *OverlapAdd {
	nk := len(kernel)
	if nk == 0 {
		panic("dsp: empty overlap-add kernel")
	}
	// Pick an FFT size ~8x the kernel for good efficiency.
	fftSize := NextPow2(8 * nk)
	if fftSize < 256 {
		fftSize = 256
	}
	full := NewRealPlan(fftSize)
	oa := &OverlapAdd{
		kernel: append([]float64(nil), kernel...),
		block:  fftSize - nk + 1,
		plans:  make([]*RealPlan, bits.Len(uint(fftSize))),
		kfft:   make([]complex128, full.Bins()),
		spec:   make([]complex128, full.Bins()),
		seg:    make([]float64, fftSize),
	}
	oa.plans[len(oa.plans)-1] = full
	copy(oa.seg, kernel)
	full.Forward(oa.kfft, oa.seg)
	return oa
}

// Clone returns a convolver over the same kernel that shares the
// stored kernel spectrum but owns its scratch and plans, so that
// concurrent callers can each hold one without transforming the kernel
// again. Its output is bit-identical to oa's.
func (oa *OverlapAdd) Clone() *OverlapAdd {
	return &OverlapAdd{
		kernel: oa.kernel,
		block:  oa.block,
		plans:  make([]*RealPlan, len(oa.plans)),
		kfft:   oa.kfft,
		spec:   make([]complex128, len(oa.spec)),
		seg:    make([]float64, len(oa.seg)),
	}
}

// KernelLen returns the kernel length.
func (oa *OverlapAdd) KernelLen() int { return len(oa.kernel) }

// OutLen returns the length of the convolution of an n-sample input
// with the kernel.
func (oa *OverlapAdd) OutLen(n int) int {
	if n == 0 {
		return 0
	}
	return n + len(oa.kernel) - 1
}

// Apply returns the full convolution of x with the kernel
// (length len(x)+len(kernel)-1) as a freshly allocated slice.
func (oa *OverlapAdd) Apply(x []float64) []float64 {
	if len(x) == 0 {
		return nil
	}
	return oa.ApplyTo(make([]float64, oa.OutLen(len(x))), x)
}

// ApplyTo convolves x with the kernel into dst, growing dst only when
// its capacity is short, and returns the (possibly reallocated) result
// slice of length OutLen(len(x)). Callers running many convolutions
// can pass the previous result back in to stay allocation-free; the
// returned slice is always safe to retain until the next ApplyTo.
func (oa *OverlapAdd) ApplyTo(dst []float64, x []float64) []float64 {
	if len(x) == 0 {
		return dst[:0]
	}
	dst = oa.zeroed(dst, len(x))
	p := oa.planFor(len(x))
	for start := 0; start < len(x); start += oa.block {
		chunk := x[start:min(start+oa.block, len(x))]
		oa.forward(p, chunk)
		oa.inverseAdd(p, dst[start:], len(chunk))
	}
	return dst
}

// ApplyPairTo convolves x with a's kernel into dstA and with b's into
// dstB, exactly as a.ApplyTo(dstA, x) and b.ApplyTo(dstB, x) would.
// When both convolve x in one segment of the same size, the segment's
// forward transform is computed once and shared, so the pair costs
// three transforms instead of four. Otherwise it makes the two calls.
func ApplyPairTo(a, b *OverlapAdd, dstA, dstB, x []float64) ([]float64, []float64) {
	if len(x) == 0 || len(x) > a.block || len(x) > b.block {
		return a.ApplyTo(dstA, x), b.ApplyTo(dstB, x)
	}
	pa, pb := a.planFor(len(x)), b.planFor(len(x))
	if pa.Size() != pb.Size() {
		return a.ApplyTo(dstA, x), b.ApplyTo(dstB, x)
	}
	dstA, dstB = a.zeroed(dstA, len(x)), b.zeroed(dstB, len(x))
	a.forward(pa, x)
	copy(b.spec, a.spec[:pa.Bins()])
	a.inverseAdd(pa, dstA, len(x))
	b.inverseAdd(pb, dstB, len(x))
	return dstA, dstB
}

// zeroed returns dst resized to OutLen(n) and cleared, reallocating
// only when its capacity is short.
func (oa *OverlapAdd) zeroed(dst []float64, n int) []float64 {
	n = oa.OutLen(n)
	if cap(dst) < n {
		return make([]float64, n)
	}
	dst = dst[:n]
	clear(dst)
	return dst
}

// planFor returns the plan that convolves an n-sample input: the
// smallest power of two of at least 256 that holds the whole output
// when the input fits one block, the full size otherwise.
func (oa *OverlapAdd) planFor(n int) *RealPlan {
	i := len(oa.plans) - 1
	if n <= oa.block {
		i = bits.Len(uint(max(256, NextPow2(oa.OutLen(n))))) - 1
	}
	if oa.plans[i] == nil {
		oa.plans[i] = NewRealPlan(1 << i)
	}
	return oa.plans[i]
}

// forward writes the half-spectrum of chunk, zero-padded to p.Size(),
// into the spectrum scratch.
func (oa *OverlapAdd) forward(p *RealPlan, chunk []float64) {
	seg := oa.seg[:p.Size()]
	copy(seg, chunk)
	// Only the tail beyond the chunk needs clearing: the chunk copy
	// above just overwrote the head.
	clear(seg[len(chunk):])
	p.Forward(oa.spec[:p.Bins()], seg)
}

// inverseAdd multiplies the spectrum scratch by the kernel's spectrum
// at size p.Size(), transforms it back and adds the segment's output,
// the convolution of an n-sample chunk, onto dst.
func (oa *OverlapAdd) inverseAdd(p *RealPlan, dst []float64, n int) {
	spec, seg := oa.spec[:p.Bins()], oa.seg[:p.Size()]
	stride := (len(oa.kfft) - 1) / (len(spec) - 1)
	for i := range spec {
		spec[i] *= oa.kfft[i*stride]
	}
	p.Inverse(seg, spec)
	for i, v := range seg[:min(n+len(oa.kernel)-1, len(dst))] {
		dst[i] += v
	}
}
