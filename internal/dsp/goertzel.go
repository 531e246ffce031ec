package dsp

import "math"

// Goertzel evaluates the DFT of x at a single frequency (Hz) using the
// Goertzel recurrence — O(n) per tone with no FFT. The SoS beacon
// demodulator compares tone energies with this.
func Goertzel(x []float64, freqHz, sampleRate float64) complex128 {
	n := len(x)
	if n == 0 {
		return 0
	}
	// Exact-frequency Goertzel (not bin-quantized).
	w := 2 * math.Pi * freqHz / sampleRate
	cw := math.Cos(w)
	sw := math.Sin(w)
	coeff := 2 * cw
	var s0, s1, s2 float64
	for _, v := range x {
		s0 = v + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	re := s1*cw - s2
	im := s1 * sw
	return complex(re, im)
}

// GoertzelPower returns |X(f)|^2 at the given frequency.
func GoertzelPower(x []float64, freqHz, sampleRate float64) float64 {
	return CAbs2(Goertzel(x, freqHz, sampleRate))
}
