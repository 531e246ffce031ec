package dsp

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
type OverlapAdd struct {
	kernel []float64
	block  int // input block length per segment
	plan   *RealPlan
	kfft   []complex128 // kernel half-spectrum
	spec   []complex128 // segment half-spectrum scratch
	seg    []float64    // segment scratch, fftSize samples
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
	block := fftSize - nk + 1
	oa := &OverlapAdd{
		kernel: append([]float64(nil), kernel...),
		block:  block,
		plan:   NewRealPlan(fftSize),
		seg:    make([]float64, fftSize),
	}
	oa.kfft = make([]complex128, oa.plan.Bins())
	oa.spec = make([]complex128, oa.plan.Bins())
	copy(oa.seg, kernel)
	oa.plan.Forward(oa.kfft, oa.seg)
	return oa
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
	n := oa.OutLen(len(x))
	if cap(dst) < n {
		dst = make([]float64, n)
	} else {
		dst = dst[:n]
		for i := range dst {
			dst[i] = 0
		}
	}
	for start := 0; start < len(x); start += oa.block {
		end := min(start+oa.block, len(x))
		chunk := x[start:end]
		copy(oa.seg, chunk)
		// Only the tail beyond the chunk needs clearing: the chunk
		// copy above just overwrote the head.
		clear(oa.seg[len(chunk):])
		oa.plan.Forward(oa.spec, oa.seg)
		for i, k := range oa.kfft {
			oa.spec[i] *= k
		}
		oa.plan.Inverse(oa.seg, oa.spec)
		limit := len(chunk) + len(oa.kernel) - 1
		for i, v := range oa.seg[:min(limit, len(dst)-start)] {
			dst[start+i] += v
		}
	}
	return dst
}
