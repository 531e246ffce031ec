package modem

import (
	"fmt"

	"aquago/internal/dsp"
	"aquago/internal/seq"
)

// fftPlan wraps the dsp real-signal plan with the passband OFDM
// conventions: data rides on positive-frequency bins, and the
// transform's implied Hermitian mirror keeps the waveform real.
type fftPlan struct {
	n    int
	plan *dsp.RealPlan
	spec []complex128 // bins 0..n/2
}

func newFFTPlan(n int) *fftPlan {
	p := &fftPlan{n: n, plan: dsp.NewRealPlan(n)}
	p.spec = make([]complex128, p.plan.Bins())
	return p
}

// synthesize converts data-bin values (length numBins, mapped to FFT
// bins [binLow, binLow+numBins)) into a real time-domain symbol body
// of n samples. Bins outside the data band are zero. The output is
// scaled so that each active subcarrier contributes unit RMS.
func (p *fftPlan) synthesize(bins []complex128, binLow int, out []float64) {
	clear(p.spec)
	copy(p.spec[binLow:], bins)
	p.plan.Inverse(out[:p.n], p.spec)
	// The normalized inverse turns a unit bin into a 2/n-amplitude
	// cosine; rescale by n/2 so each unit-magnitude subcarrier is a
	// unit-amplitude cosine in time.
	dsp.Scale(out[:p.n], float64(p.n)/2)
}

// analyze converts a real symbol body (n samples) into data-bin values
// with the inverse scaling of synthesize.
func (p *fftPlan) analyze(body []float64, binLow, numBins int, out []complex128) {
	p.plan.Forward(p.spec, body[:p.n])
	// A unit-amplitude cosine at bin k transforms to (n/2) at that
	// bin, so 2/n makes analyze(synthesize(v)) == v.
	scale := complex(2/float64(p.n), 0)
	for i := 0; i < numBins; i++ {
		out[i] = p.spec[binLow+i] * scale
	}
}

// ModulateSymbol builds one OFDM symbol (cyclic prefix + body) from
// data-bin values. bins must have length NumBins; entries set to 0
// leave the corresponding subcarrier silent.
func (m *Modem) ModulateSymbol(bins []complex128) ([]float64, error) {
	out := make([]float64, m.cfg.SymbolLen())
	if err := m.modulateSymbolInto(bins, out); err != nil {
		return nil, err
	}
	return out, nil
}

// modulateSymbolInto is ModulateSymbol writing into a caller-provided
// buffer of exactly SymbolLen samples, so the per-symbol hot path can
// reuse packet-sized buffers instead of allocating every symbol.
func (m *Modem) modulateSymbolInto(bins []complex128, out []float64) error {
	if len(bins) != m.cfg.NumBins() {
		return fmt.Errorf("modem: %d bin values, want %d", len(bins), m.cfg.NumBins())
	}
	n := m.cfg.N()
	cp := m.cfg.CPLen
	if len(out) != cp+n {
		return fmt.Errorf("modem: symbol buffer %d samples, want %d", len(out), cp+n)
	}
	m.fft().synthesize(bins, m.cfg.BinLow(), out[cp:])
	copy(out[:cp], out[cp+n-cp:]) // cyclic prefix = tail of the body
	return nil
}

// DemodSymbol recovers data-bin values from a received symbol body
// (exactly N samples, cyclic prefix already stripped).
func (m *Modem) DemodSymbol(body []float64) ([]complex128, error) {
	out := make([]complex128, m.cfg.NumBins())
	if err := m.demodSymbolInto(body, out); err != nil {
		return nil, err
	}
	return out, nil
}

// demodSymbolInto is DemodSymbol writing into a caller-provided buffer
// of exactly NumBins values (the allocation-free per-symbol path).
func (m *Modem) demodSymbolInto(body []float64, out []complex128) error {
	if len(body) != m.cfg.N() {
		return fmt.Errorf("modem: symbol body %d samples, want %d", len(body), m.cfg.N())
	}
	if len(out) != m.cfg.NumBins() {
		return fmt.Errorf("modem: bin buffer %d values, want %d", len(out), m.cfg.NumBins())
	}
	m.fft().analyze(body, m.cfg.BinLow(), m.cfg.NumBins(), out)
	return nil
}

// buildPreamble constructs the 8-symbol preamble: one CAZAC-filled
// OFDM body repeated with the PN sign pattern. Following the paper the
// preamble symbols carry no cyclic prefix (detection uses sliding
// segment correlation, not FFT windows). It synthesizes with a
// throwaway plan, since the tables outlive any one Modem.
func (t *tables) buildPreamble(cfg Config) {
	n := cfg.N()
	body := make([]float64, n)
	newFFTPlan(n).synthesize(t.zcBins, cfg.BinLow(), body)
	// Normalize the symbol to unit RMS so transmit power is defined
	// by the caller's amplitude scaling.
	rms := dsp.RMS(body)
	t.preScale = 1
	if rms > 0 {
		dsp.Scale(body, 1/rms)
		t.preScale = 1 / rms
	}
	t.preamble = make([]float64, 0, PreambleSymbols*n)
	for s := 0; s < PreambleSymbols; s++ {
		sign := float64(seq.PreamblePN[s%len(seq.PreamblePN)])
		for _, v := range body {
			t.preamble = append(t.preamble, sign*v)
		}
	}
}

// TrainingSymbol builds the known training OFDM symbol restricted to
// the given band (bins outside the band are zero), with cyclic prefix.
// The same waveform is used by the receiver to estimate the MMSE
// equalizer and as the differential-coding phase reference.
func (m *Modem) TrainingSymbol(b Band) ([]float64, error) {
	out := make([]float64, m.cfg.SymbolLen())
	if err := m.trainingSymbolInto(b, out); err != nil {
		return nil, err
	}
	return out, nil
}

// trainingSymbolInto writes the training symbol for band b into a
// caller-provided SymbolLen buffer, using the modem's scratch bins.
func (m *Modem) trainingSymbolInto(b Band, out []float64) error {
	if !b.Valid(m.cfg.NumBins()) {
		return fmt.Errorf("modem: invalid band %+v for %d bins", b, m.cfg.NumBins())
	}
	bins := m.scratchBins()
	for i := range bins {
		bins[i] = 0
	}
	for i := b.Lo; i <= b.Hi; i++ {
		bins[i] = m.tab.trBins[i]
	}
	return m.modulateSymbolInto(bins, out)
}

// TrainingBins returns the known training constellation restricted to
// band b (zero outside). The slice is freshly allocated.
func (m *Modem) TrainingBins(b Band) []complex128 {
	bins := make([]complex128, m.cfg.NumBins())
	for i := b.Lo; i <= b.Hi && i < len(m.tab.trBins); i++ {
		if i >= 0 {
			bins[i] = m.tab.trBins[i]
		}
	}
	return bins
}

// PreambleBins returns the CAZAC constellation used by the preamble
// across all data bins. The slice is freshly allocated.
func (m *Modem) PreambleBins() []complex128 {
	return append([]complex128(nil), m.tab.zcBins...)
}
