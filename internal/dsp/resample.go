package dsp

// ResampleLinear time-scales x by the given factor using linear
// interpolation: output sample i is x evaluated at position i/factor.
// factor > 1 stretches (slows down / Doppler away), factor < 1
// compresses (Doppler toward). Output length is
// floor(float64(len(x)-1)*factor)+1.
//
// Linear interpolation is accurate to well under -40 dB error for the
// sub-0.5 % rate offsets underwater motion produces (2 m/s relative
// speed over 1500 m/s sound speed), which is the modem's use case.
func ResampleLinear(x []float64, factor float64) []float64 {
	if len(x) == 0 || factor <= 0 {
		return nil
	}
	n := int(float64(len(x)-1)*factor) + 1
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		pos := float64(i) / factor
		j := int(pos)
		if j >= len(x)-1 {
			out[i] = x[len(x)-1]
			continue
		}
		frac := pos - float64(j)
		out[i] = x[j]*(1-frac) + x[j+1]*frac
	}
	return out
}
