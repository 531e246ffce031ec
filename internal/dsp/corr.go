package dsp

import "math"

// CrossCorrelate returns the sliding cross-correlation of signal x
// with template t:
//
//	out[k] = sum_j x[k+j] * t[j],  k = 0 .. len(x)-len(t)
//
// i.e. "valid" lags only. It switches to an FFT implementation for
// large products. The modem's coarse preamble detector is built on
// this.
func CrossCorrelate(x, t []float64) []float64 {
	if len(t) == 0 || len(x) < len(t) {
		return nil
	}
	nOut := len(x) - len(t) + 1
	out := make([]float64, nOut)
	if len(t) < 128 || len(x) < 512 {
		for k := range out {
			out[k] = Dot(x[k:], t)
		}
		return out
	}
	// Overlap-save over m = NextPow2(len(x)) points: the inverse of
	// X*conj(T) is the circular correlation, whose lag k sums
	// x[(k+j) mod m]*t[j] over j < len(t). On the valid lags
	// k+j <= len(x)-1 < m never wraps; only the lags past nOut do, and
	// those are discarded.
	p := NewRealPlan(NextPow2(len(x)))
	buf := make([]float64, p.Size())
	fx, ft := halfSpectra(p, buf, x, t)
	for i, v := range ft {
		fx[i] *= complex(real(v), -imag(v))
	}
	p.Inverse(buf, fx)
	copy(out, buf)
	return out
}

// NormalizedCrossCorrelate returns the cross-correlation of x with t
// where each lag is normalized by sqrt(E_window * E_template), yielding
// values in [-1, 1]. Windows with zero energy produce 0.
func NormalizedCrossCorrelate(x, t []float64) []float64 {
	raw := CrossCorrelate(x, t)
	if raw == nil {
		return nil
	}
	et := Energy(t)
	if et == 0 {
		return make([]float64, len(raw))
	}
	// Running window energy of x. The float update leaves a rounding
	// residue after a loud stretch, so an exact count of the window's
	// nonzero samples decides which windows are silent.
	var we float64
	nonzero := 0
	for _, v := range x[:len(t)] {
		we += v * v
		if v != 0 {
			nonzero++
		}
	}
	out := make([]float64, len(raw))
	for k := range raw {
		if nonzero > 0 && we > 0 {
			out[k] = raw[k] / math.Sqrt(we*et)
		}
		if k+len(t) < len(x) {
			in, gone := x[k+len(t)], x[k]
			we += in*in - gone*gone
			if we < 0 {
				we = 0 // numeric drift guard
			}
			if in != 0 {
				nonzero++
			}
			if gone != 0 {
				nonzero--
			}
		}
	}
	return out
}

// AutoCorrelation returns the biased autocorrelation r[0..maxLag] of x:
// r[k] = (1/N) sum_n x[n] x[n+k]. The MMSE equalizer builds its
// Toeplitz system from this.
func AutoCorrelation(x []float64, maxLag int) []float64 {
	if maxLag >= len(x) {
		maxLag = len(x) - 1
	}
	if maxLag < 0 {
		return nil
	}
	out := make([]float64, maxLag+1)
	n := float64(len(x))
	// Four lags per sweep: x[i] is loaded once for all four, and the
	// window x[i+k..i+k+3] slides along in registers. Each lag keeps
	// its own accumulator and adds its terms in increasing i, as a
	// one-lag loop would, then finishes its own short tail.
	k := 0
	for ; k+3 <= maxLag; k += 4 {
		var s0, s1, s2, s3 float64
		a := x[:len(x)-k-3]
		b := x[k+3:]
		b = b[:len(a)]
		v0, v1, v2 := x[k], x[k+1], x[k+2]
		for i, xi := range a {
			v3 := b[i]
			s0 += xi * v0
			s1 += xi * v1
			s2 += xi * v2
			s3 += xi * v3
			v0, v1, v2 = v1, v2, v3
		}
		for i := len(a); i < len(x)-k; i++ {
			s0 += x[i] * x[i+k]
		}
		for i := len(a); i < len(x)-k-1; i++ {
			s1 += x[i] * x[i+k+1]
		}
		for i := len(a); i < len(x)-k-2; i++ {
			s2 += x[i] * x[i+k+2]
		}
		out[k], out[k+1], out[k+2], out[k+3] = s0/n, s1/n, s2/n, s3/n
	}
	for ; k <= maxLag; k++ {
		var s float64
		for i := 0; i+k < len(x); i++ {
			s += x[i] * x[i+k]
		}
		out[k] = s / n
	}
	return out
}

// SegmentCorrelation computes the normalized correlation between two
// equal-length real segments: <a,b> / sqrt(<a,a><b,b>). Returns 0 if
// either segment has no energy. The paper's sliding-correlation
// preamble metric correlates adjacent PN-designed OFDM segments with
// this primitive.
func SegmentCorrelation(a, b []float64) float64 {
	ea, eb := Energy(a), Energy(b)
	if ea == 0 || eb == 0 {
		return 0
	}
	return Dot(a, b) / math.Sqrt(ea*eb)
}
