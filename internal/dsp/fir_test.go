package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func TestBandpassResponse(t *testing.T) {
	// The paper's receiver filter: order-128 bandpass, 1-4 kHz passband
	// at 48 kHz.
	f := DesignBandpass(1000, 4000, 48000, 128, Hamming)
	if len(f.Taps) != 129 {
		t.Fatalf("tap count %d, want 129", len(f.Taps))
	}
	// Passband ripple within 3 dB.
	for _, freq := range []float64{1500, 2000, 2500, 3000, 3500} {
		g := f.Gain(freq, 48000)
		if g < AmpFromDB(-3) || g > AmpFromDB(3) {
			t.Errorf("passband gain at %g Hz = %.3f (%.1f dB)", freq, g, AmpDB(g))
		}
	}
	// Stopband rejection at least 20 dB well outside the band.
	for _, freq := range []float64{100, 200, 8000, 12000, 20000} {
		g := f.Gain(freq, 48000)
		if g > AmpFromDB(-20) {
			t.Errorf("stopband gain at %g Hz = %.1f dB, want < -20", freq, AmpDB(g))
		}
	}
}

func TestLowpassResponse(t *testing.T) {
	f := DesignLowpass(2000, 48000, 96, Hamming)
	if g := f.Gain(0, 48000); math.Abs(g-1) > 0.01 {
		t.Fatalf("DC gain %g, want 1", g)
	}
	if g := f.Gain(500, 48000); g < 0.9 {
		t.Errorf("passband gain at 500 Hz %g", g)
	}
	if g := f.Gain(6000, 48000); g > 0.05 {
		t.Errorf("stopband gain at 6 kHz %g", g)
	}
}

func TestFilterRemovesOutOfBandTone(t *testing.T) {
	fs := 48000.0
	f := DesignBandpass(1000, 4000, fs, 128, Hamming)
	in := Tone(2500, 0.1, fs) // in-band
	out := f.Filter(in)
	inPow := Power(in[200 : len(in)-200])
	outPow := Power(out[200 : len(out)-200])
	if outPow < 0.5*inPow {
		t.Fatalf("in-band tone attenuated: in %g out %g", inPow, outPow)
	}
	noise := Tone(200, 0.1, fs) // out of band (low-frequency flow noise)
	out = f.Filter(noise)
	if p := Power(out[200 : len(out)-200]); p > 0.01*Power(noise) {
		t.Fatalf("out-of-band tone leaked: %g", p)
	}
}

func TestFilterSameLength(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	f := DesignBandpass(1000, 4000, 48000, 64, Hamming)
	x := randReal(1234, rng)
	y := f.Filter(x)
	if len(y) != len(x) {
		t.Fatalf("filtered length %d, want %d", len(y), len(x))
	}
}

func TestFIRStateMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := DesignBandpass(1000, 4000, 48000, 64, Hamming)
	x := randReal(4096, rng)
	// Batch causal output = full convolution truncated to len(x).
	full := Convolve(x, f.Taps)
	want := full[:len(x)]
	// Streaming in uneven chunks.
	s := NewFIRState(f)
	var got []float64
	for start := 0; start < len(x); {
		end := start + 100 + int(rng.Int31n(300))
		if end > len(x) {
			end = len(x)
		}
		got = append(got, s.Process(x[start:end])...)
		start = end
	}
	if len(got) != len(want) {
		t.Fatalf("streaming output length %d, want %d", len(got), len(want))
	}
	if e := maxAbsDiff(got, want); e > 1e-9 {
		t.Fatalf("streaming differs from batch: %g", e)
	}
}

// scalarFIR is the one-output-at-a-time streaming loop FIRState used
// before it blocked four outputs per pass, kept verbatim as the
// bit-exact reference.
type scalarFIR struct {
	taps []float64
	hist []float64
}

func (s *scalarFIR) Process(x []float64) []float64 {
	nt := len(s.taps)
	ext := make([]float64, len(s.hist)+len(x))
	copy(ext, s.hist)
	copy(ext[len(s.hist):], x)
	out := make([]float64, len(x))
	for i := range x {
		// ext index of current sample: i + nt - 1
		var acc float64
		base := i + nt - 1
		for j := 0; j < nt; j++ {
			acc += s.taps[j] * ext[base-j]
		}
		out[i] = acc
	}
	// Retain the last nt-1 inputs.
	if len(ext) >= nt-1 {
		copy(s.hist, ext[len(ext)-(nt-1):])
	}
	return out
}

// TestFIRStateBitIdenticalToScalar pins the blocked loop to the scalar
// one bit for bit, over every tap count from 1 to 140 and chunk lengths
// that leave every remainder of the four-wide block, with history
// carried across calls.
func TestFIRStateBitIdenticalToScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	chunks := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1000, 3, 0, 7}
	for nt := 1; nt <= 140; nt++ {
		taps := randReal(nt, rng)
		got := NewFIRState(&FIR{Taps: taps})
		want := &scalarFIR{taps: append([]float64(nil), taps...), hist: make([]float64, nt-1)}
		for _, n := range chunks {
			x := randReal(n, rng)
			g, w := got.Process(x), want.Process(x)
			if len(g) != len(w) {
				t.Fatalf("taps %d chunk %d: %d outputs, want %d", nt, n, len(g), len(w))
			}
			for i := range w {
				if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
					t.Fatalf("taps %d chunk %d: output %d is %v, scalar loop gives %v", nt, n, i, g[i], w[i])
				}
			}
		}
	}
}

func TestFIRStateReset(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	f := DesignLowpass(4000, 48000, 32, Hann)
	s := NewFIRState(f)
	x := randReal(500, rng)
	first := s.Process(x)
	s.Reset()
	second := s.Process(x)
	if maxAbsDiff(first, second) > 1e-12 {
		t.Fatal("Reset did not clear history")
	}
}

func TestDesignValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("lowpass cutoff 0", func() { DesignLowpass(0, 48000, 64, Hamming) })
	mustPanic("lowpass above nyquist", func() { DesignLowpass(30000, 48000, 64, Hamming) })
	mustPanic("bandpass inverted", func() { DesignBandpass(4000, 1000, 48000, 64, Hamming) })
}

func BenchmarkBandpassFilter1s(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	f := DesignBandpass(1000, 4000, 48000, 128, Hamming)
	x := randReal(48000, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Filter(x)
	}
}
