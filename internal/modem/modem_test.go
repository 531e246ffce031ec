package modem

import (
	"math"
	"math/rand"
	"testing"

	"aquago/internal/dsp"
)

func mustModem(t testing.TB, cfg Config) *Modem {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigDerivedParameters(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.N() != 960 {
		t.Errorf("N = %d, want 960", cfg.N())
	}
	if cfg.CPLen != 67 {
		t.Errorf("CPLen = %d, want 67", cfg.CPLen)
	}
	if cfg.SymbolLen() != 1027 {
		t.Errorf("SymbolLen = %d, want 1027", cfg.SymbolLen())
	}
	if cfg.BinLow() != 20 || cfg.BinHigh() != 80 {
		t.Errorf("bins [%d,%d), want [20,80)", cfg.BinLow(), cfg.BinHigh())
	}
	if cfg.NumBins() != 60 {
		t.Errorf("NumBins = %d, want 60 (the paper's N0)", cfg.NumBins())
	}
	if d := cfg.SymbolDuration(); math.Abs(d-0.020) > 1e-12 {
		t.Errorf("symbol duration %g, want 20 ms", d)
	}
	if f := cfg.BinFreq(0); f != 1000 {
		t.Errorf("BinFreq(0) = %g, want 1000", f)
	}
	if f := cfg.BinFreq(59); f != 3950 {
		t.Errorf("BinFreq(59) = %g, want 3950", f)
	}
}

func TestConfigSpacingVariants(t *testing.T) {
	// Fig 17's numerologies.
	for _, tc := range []struct {
		spacing, n, bins int
	}{
		{50, 960, 60},
		{25, 1920, 120},
		{10, 4800, 300},
	} {
		cfg := DefaultConfig().WithSpacing(tc.spacing)
		m := mustModem(t, cfg)
		got := m.Config()
		if got.N() != tc.n {
			t.Errorf("spacing %d: N = %d, want %d", tc.spacing, got.N(), tc.n)
		}
		if got.NumBins() != tc.bins {
			t.Errorf("spacing %d: bins = %d, want %d", tc.spacing, got.NumBins(), tc.bins)
		}
		// CP stays at the paper's fraction.
		frac := float64(got.CPLen) / float64(got.N())
		if math.Abs(frac-67.0/960) > 0.01 {
			t.Errorf("spacing %d: CP fraction %g", tc.spacing, frac)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SampleRate: 0, SpacingHz: 50, BandLowHz: 1000, BandHighHz: 4000},
		{SampleRate: 48000, SpacingHz: 7, BandLowHz: 1000, BandHighHz: 4000},   // not divisible
		{SampleRate: 48000, SpacingHz: 50, BandLowHz: 4000, BandHighHz: 1000},  // inverted
		{SampleRate: 48000, SpacingHz: 50, BandLowHz: 1000, BandHighHz: 25000}, // beyond Nyquist
		{SampleRate: 48000, SpacingHz: 50, BandLowHz: 1025, BandHighHz: 4000},  // misaligned
		{SampleRate: 44100, SpacingHz: 100, BandLowHz: 1000, BandHighHz: 4000}, // odd symbol length
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestBandBasics(t *testing.T) {
	cfg := DefaultConfig()
	full := FullBand(cfg)
	if full.Lo != 0 || full.Hi != 59 || full.Width() != 60 {
		t.Fatalf("FullBand = %+v", full)
	}
	if !full.Valid(60) {
		t.Fatal("full band should be valid")
	}
	if (Band{-1, 5}).Valid(60) || (Band{5, 60}).Valid(60) || (Band{7, 6}).Valid(60) {
		t.Fatal("invalid bands accepted")
	}
	if (Band{3, 3}).Width() != 1 {
		t.Fatal("single-bin band width")
	}
}

func TestSymbolRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	m := mustModem(t, DefaultConfig())
	bins := make([]complex128, 60)
	for i := range bins {
		// Random BPSK-ish unit phasors.
		ang := 2 * math.Pi * rng.Float64()
		bins[i] = complex(math.Cos(ang), math.Sin(ang))
	}
	sym, err := m.ModulateSymbol(bins)
	if err != nil {
		t.Fatal(err)
	}
	if len(sym) != 1027 {
		t.Fatalf("symbol length %d", len(sym))
	}
	// Cyclic prefix must equal the body's tail.
	cp := m.cfg.CPLen
	n := m.cfg.N()
	for i := 0; i < cp; i++ {
		if math.Abs(sym[i]-sym[n+i]) > 1e-12 {
			t.Fatal("cyclic prefix mismatch")
		}
	}
	got, err := m.DemodSymbol(sym[cp:])
	if err != nil {
		t.Fatal(err)
	}
	for i := range bins {
		if e := dsp.CAbs2(got[i] - bins[i]); e > 1e-18 {
			if e > 1e-12 {
				t.Fatalf("bin %d: got %v want %v", i, got[i], bins[i])
			}
		}
	}
}

// TestSynthesizeAnalyzeBandEdges checks analyze(synthesize(v)) == v on
// the half-spectrum transforms for every band edge: each bin is the
// first data bin of one band and the last data bin of another, and
// bins outside the band must come back silent. It runs Fig 17's three
// numerologies.
func TestSynthesizeAnalyzeBandEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, spacing := range []int{50, 25, 10} {
		m := mustModem(t, DefaultConfig().WithSpacing(spacing))
		nb, n := m.cfg.NumBins(), m.cfg.N()
		bins := make([]complex128, nb)
		got := make([]complex128, nb)
		body := make([]float64, n)
		for e := 0; e < nb; e++ {
			for _, b := range []Band{{Lo: e, Hi: nb - 1}, {Lo: 0, Hi: e}} {
				clear(bins)
				for i := b.Lo; i <= b.Hi; i++ {
					ang := 2 * math.Pi * rng.Float64()
					bins[i] = complex(math.Cos(ang), math.Sin(ang))
				}
				m.fft().synthesize(bins, m.cfg.BinLow(), body)
				m.fft().analyze(body, m.cfg.BinLow(), nb, got)
				for i := range bins {
					if d := dsp.CAbs2(got[i] - bins[i]); d > 1e-20 {
						t.Fatalf("spacing %d band %+v: bin %d came back %v, want %v", spacing, b, i, got[i], bins[i])
					}
				}
			}
		}
	}
}

func TestModulateSymbolValidation(t *testing.T) {
	m := mustModem(t, DefaultConfig())
	if _, err := m.ModulateSymbol(make([]complex128, 59)); err == nil {
		t.Fatal("expected bin-count error")
	}
	if _, err := m.DemodSymbol(make([]float64, 100)); err == nil {
		t.Fatal("expected body-length error")
	}
}

func TestSymbolBandLimited(t *testing.T) {
	m := mustModem(t, DefaultConfig())
	bins := make([]complex128, 60)
	for i := range bins {
		bins[i] = 1
	}
	sym, _ := m.ModulateSymbol(bins)
	body := sym[m.cfg.CPLen:]
	sp := dsp.WelchPSD(body, 960, 48000, Rectangular())
	inBand := sp.BandPower(1000, 4000)
	outLow := sp.BandPower(0, 900)
	outHigh := sp.BandPower(4100, 20000)
	if inBand < 100*(outLow+outHigh+1e-30) {
		t.Fatalf("symbol not band limited: in %g, out %g", inBand, outLow+outHigh)
	}
}

func TestPreambleStructure(t *testing.T) {
	m := mustModem(t, DefaultConfig())
	pre := m.Preamble()
	if len(pre) != 8*960 {
		t.Fatalf("preamble length %d, want %d", len(pre), 8*960)
	}
	// PN signs: segment s equals segment 1 times pn[s]*pn[1] (segments
	// 1..5 share sign +1, segments 0 and 6 are negated).
	seg := func(s int) []float64 { return pre[s*960 : (s+1)*960] }
	if dsp.SegmentCorrelation(seg(1), seg(2)) < 0.999 {
		t.Error("segments 1,2 should be identical")
	}
	if dsp.SegmentCorrelation(seg(0), seg(1)) > -0.999 {
		t.Error("segment 0 should be negated")
	}
	if dsp.SegmentCorrelation(seg(6), seg(5)) > -0.999 {
		t.Error("segment 6 should be negated")
	}
	// Unit RMS per symbol.
	if r := dsp.RMS(seg(0)); math.Abs(r-1) > 1e-9 {
		t.Errorf("preamble symbol RMS %g", r)
	}
}

func TestDetectCleanPreamble(t *testing.T) {
	m := mustModem(t, DefaultConfig())
	d := NewDetector(m)
	// Preamble embedded in silence at a known offset.
	x := make([]float64, 30000)
	const at = 12345
	copy(x[at:], m.Preamble())
	det, ok := d.Detect(x)
	if !ok {
		t.Fatal("clean preamble not detected")
	}
	if det.Metric < 0.95 {
		t.Errorf("clean metric %g, want ~1", det.Metric)
	}
	if off := det.Offset - at; off < -8 || off > 8 {
		t.Errorf("sync offset %d samples (detected %d, true %d)", off, det.Offset, at)
	}
}

func TestDetectNoisyPreamble(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	m := mustModem(t, DefaultConfig())
	d := NewDetector(m)
	x := make([]float64, 30000)
	for i := range x {
		x[i] = 0.5 * rng.NormFloat64() // SNR ~ 3 dB vs unit-RMS preamble
	}
	const at = 4321
	dsp.AddAt(x, m.Preamble(), at)
	det, ok := d.Detect(x)
	if !ok {
		t.Fatal("noisy preamble not detected")
	}
	if off := det.Offset - at; off < -16 || off > 16 {
		t.Errorf("sync offset %d samples under noise", off)
	}
}

func TestNoFalseDetectionInNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	m := mustModem(t, DefaultConfig())
	d := NewDetector(m)
	x := make([]float64, 40000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	if det, ok := d.Detect(x); ok {
		t.Fatalf("false detection in pure noise: %+v", det)
	}
}

func TestNoFalseDetectionOnImpulse(t *testing.T) {
	// Spiky noise (bubbles) can fool plain cross-correlation; the
	// sliding correlation must reject it (paper: < 0.2).
	m := mustModem(t, DefaultConfig())
	d := NewDetector(m)
	x := make([]float64, 20000)
	x[9000] = 100 // huge impulse
	x[9001] = -80
	if _, ok := d.Detect(x); ok {
		t.Fatal("impulse caused false detection")
	}
}

func TestDetectAllMultiplePreambles(t *testing.T) {
	m := mustModem(t, DefaultConfig())
	d := NewDetector(m)
	x := make([]float64, 60000)
	offsets := []int{2000, 30000, 50000}
	for _, at := range offsets {
		dsp.AddAt(x, m.Preamble(), at)
	}
	dets := d.DetectAll(x)
	if len(dets) != len(offsets) {
		t.Fatalf("detected %d preambles, want %d", len(dets), len(offsets))
	}
	for i, det := range dets {
		if off := det.Offset - offsets[i]; off < -8 || off > 8 {
			t.Errorf("detection %d at %d, want %d", i, det.Offset, offsets[i])
		}
	}
}

func TestSlidingCorrelationBounds(t *testing.T) {
	m := mustModem(t, DefaultConfig())
	d := NewDetector(m)
	x := make([]float64, 1000) // shorter than a preamble window
	if v := d.SlidingCorrelation(x, 0); v != 0 {
		t.Fatal("out-of-bounds sliding correlation should be 0")
	}
	if v := d.SlidingCorrelation(x, -5); v != 0 {
		t.Fatal("negative offset should be 0")
	}
}

// Rectangular returns the dsp rectangular window (test convenience
// bridging the package boundary).
func Rectangular() dsp.Window { return dsp.Rectangular }
