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
