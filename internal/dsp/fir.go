package dsp

import (
	"fmt"
	"math"
)

// FIR is a finite-impulse-response filter described by its tap
// coefficients. Filter is stateless; a streaming filter over a long
// signal is an OverlapAdd fed the last len(Taps)-1 inputs of the
// previous chunk ahead of the next one (channel.NoiseGen does this).
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
