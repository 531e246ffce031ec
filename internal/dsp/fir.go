package dsp

import (
	"fmt"
	"math"
)

// FIR is a finite-impulse-response filter described by its tap
// coefficients. Filtering is stateless (Filter) or streaming
// (NewFIRState).
type FIR struct {
	Taps []float64
}

// sinc returns sin(pi x)/(pi x) with the removable singularity filled.
func sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	px := math.Pi * x
	return math.Sin(px) / px
}

// DesignLowpass designs a windowed-sinc lowpass FIR with the given
// cutoff frequency (Hz), sample rate (Hz) and order (number of taps is
// order+1). The paper's receiver uses order 128.
func DesignLowpass(cutoffHz, sampleRate float64, order int, w Window) *FIR {
	if cutoffHz <= 0 || cutoffHz >= sampleRate/2 {
		panic(fmt.Sprintf("dsp: lowpass cutoff %g out of (0, %g)", cutoffHz, sampleRate/2))
	}
	n := order + 1
	fc := cutoffHz / sampleRate
	taps := make([]float64, n)
	mid := float64(order) / 2
	for i := 0; i < n; i++ {
		taps[i] = 2 * fc * sinc(2*fc*(float64(i)-mid))
	}
	win := w.Coefficients(n)
	var sum float64
	for i := range taps {
		taps[i] *= win[i]
		sum += taps[i]
	}
	// Normalize for unit DC gain.
	if sum != 0 {
		Scale(taps, 1/sum)
	}
	return &FIR{Taps: taps}
}

// DesignBandpass designs a windowed-sinc bandpass FIR passing
// [lowHz, highHz]. The gain is normalized to 1 at the band center.
// AquaApp's receiver front end is DesignBandpass(1000, 4000, 48000,
// 128, Hamming).
func DesignBandpass(lowHz, highHz, sampleRate float64, order int, w Window) *FIR {
	if !(0 < lowHz && lowHz < highHz && highHz < sampleRate/2) {
		panic(fmt.Sprintf("dsp: bandpass band [%g,%g] invalid for fs=%g", lowHz, highHz, sampleRate))
	}
	n := order + 1
	f1 := lowHz / sampleRate
	f2 := highHz / sampleRate
	taps := make([]float64, n)
	mid := float64(order) / 2
	for i := 0; i < n; i++ {
		t := float64(i) - mid
		taps[i] = 2*f2*sinc(2*f2*t) - 2*f1*sinc(2*f1*t)
	}
	win := w.Coefficients(n)
	for i := range taps {
		taps[i] *= win[i]
	}
	// Normalize to unit gain at the geometric band center.
	fc := math.Sqrt(lowHz * highHz)
	g := gainAt(taps, fc, sampleRate)
	if g > 0 {
		Scale(taps, 1/g)
	}
	return &FIR{Taps: taps}
}

// gainAt evaluates |H(f)| of the tap vector at frequency f.
func gainAt(taps []float64, f, sampleRate float64) float64 {
	var re, im float64
	w := 2 * math.Pi * f / sampleRate
	for i, t := range taps {
		s, c := math.Sincos(w * float64(i))
		re += t * c
		im -= t * s
	}
	return math.Hypot(re, im)
}

// Gain returns the filter's amplitude response |H(f)| at frequency f
// (Hz) for the given sample rate.
func (f *FIR) Gain(freqHz, sampleRate float64) float64 {
	return gainAt(f.Taps, freqHz, sampleRate)
}

// Filter convolves x with the filter taps and returns the "same"-mode
// result: output k aligns with input k after compensating the filter's
// group delay of len(Taps)/2 samples, so a symmetric filter does not
// shift the signal.
func (f *FIR) Filter(x []float64) []float64 {
	full := Convolve(x, f.Taps)
	delay := len(f.Taps) / 2
	out := make([]float64, len(x))
	copy(out, full[delay:])
	return out
}

// FIRState is a streaming FIR filter with retained history so that a
// long signal can be filtered in chunks with no boundary artifacts.
type FIRState struct {
	taps []float64
	hist []float64 // last len(taps)-1 input samples
}

// NewFIRState returns a streaming filter over the given FIR.
func NewFIRState(f *FIR) *FIRState {
	return &FIRState{taps: append([]float64(nil), f.Taps...), hist: make([]float64, len(f.Taps)-1)}
}

// Process filters one chunk and returns the corresponding output
// samples (causal, i.e. including the filter's group delay).
func (s *FIRState) Process(x []float64) []float64 {
	nt := len(s.taps)
	ext := make([]float64, len(s.hist)+len(x))
	copy(ext, s.hist)
	copy(ext[len(s.hist):], x)
	out := make([]float64, len(x))
	// Output i is sum_j taps[j]*ext[i+nt-1-j], accumulated in tap order.
	// Four outputs per pass share each tap load; each still adds its
	// products in the same order, so the result is bit-identical to
	// one output at a time.
	i := 0
	for ; i+4 <= len(x); i += 4 {
		var a0, a1, a2, a3 float64
		w := ext[i : i+nt+3]
		for j, t := range s.taps {
			v := w[nt-1-j : nt+3-j : nt+3-j]
			a0 += t * v[0]
			a1 += t * v[1]
			a2 += t * v[2]
			a3 += t * v[3]
		}
		out[i], out[i+1], out[i+2], out[i+3] = a0, a1, a2, a3
	}
	for ; i < len(x); i++ {
		var acc float64
		w := ext[i : i+nt]
		for j, t := range s.taps {
			acc += t * w[nt-1-j]
		}
		out[i] = acc
	}
	// Retain the last nt-1 inputs.
	if len(ext) >= nt-1 {
		copy(s.hist, ext[len(ext)-(nt-1):])
	}
	return out
}

// Reset clears the streaming history.
func (s *FIRState) Reset() {
	for i := range s.hist {
		s.hist[i] = 0
	}
}
