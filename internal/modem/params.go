// Package modem implements the AquaApp OFDM physical layer: symbol
// modulation and demodulation in the 1-4 kHz acoustic band, the
// CAZAC/PN preamble with two-stage detection, per-subcarrier MMSE
// channel and SNR estimation, the time-domain MMSE equalizer, and
// differential BPSK coding across symbols.
//
// The packet protocol (preamble -> feedback -> data) that composes
// these pieces lives in package phy; the frequency band adaptation
// algorithm in package adapt.
package modem

import (
	"fmt"

	"aquago/internal/seq"
)

// Default parameters from the paper (§2.3.1): 48 kHz audio sampling,
// 50 Hz subcarrier spacing (960-sample / 20 ms symbols), a 67-sample
// cyclic prefix (6.9 % overhead), and the 1-4 kHz usable band, giving
// 60 data subcarriers.
const (
	DefaultSampleRate = 48000
	DefaultSpacingHz  = 50
	DefaultBandLowHz  = 1000
	DefaultBandHighHz = 4000
	DefaultCPLen960   = 67
	// PreambleSymbols is the number of identical CAZAC OFDM symbols
	// concatenated (with PN signs) to form the preamble.
	PreambleSymbols = 8
)

// Config selects the OFDM numerology. The zero value is not valid;
// use DefaultConfig or fill all fields. SampleRate must be divisible
// by SpacingHz.
type Config struct {
	SampleRate int // samples per second (48000)
	SpacingHz  int // subcarrier spacing in Hz (50, 25 or 10)
	BandLowHz  int // lowest data subcarrier frequency (1000)
	BandHighHz int // highest data subcarrier frequency (4000)
	CPLen      int // cyclic prefix samples; 0 picks the paper's 6.98 %
	ZCRoot     int // Zadoff-Chu root for the preamble (default 1)
	TrainRoot  int // Zadoff-Chu root for the training symbol (default 7)
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		SampleRate: DefaultSampleRate,
		SpacingHz:  DefaultSpacingHz,
		BandLowHz:  DefaultBandLowHz,
		BandHighHz: DefaultBandHighHz,
	}
}

// WithSpacing returns a copy of the config at a different subcarrier
// spacing (the Fig 17 experiments use 50, 25 and 10 Hz).
func (c Config) WithSpacing(hz int) Config {
	c.SpacingHz = hz
	c.CPLen = 0 // re-derive proportionally
	return c
}

// validate normalizes defaults and checks invariants.
func (c *Config) validate() error {
	if c.SampleRate <= 0 || c.SpacingHz <= 0 {
		return fmt.Errorf("modem: sample rate %d and spacing %d must be positive", c.SampleRate, c.SpacingHz)
	}
	if c.SampleRate%c.SpacingHz != 0 {
		return fmt.Errorf("modem: sample rate %d not divisible by spacing %d", c.SampleRate, c.SpacingHz)
	}
	if c.BandLowHz <= 0 || c.BandHighHz <= c.BandLowHz {
		return fmt.Errorf("modem: invalid band [%d, %d]", c.BandLowHz, c.BandHighHz)
	}
	if c.BandHighHz >= c.SampleRate/2 {
		return fmt.Errorf("modem: band edge %d beyond Nyquist %d", c.BandHighHz, c.SampleRate/2)
	}
	if c.BandLowHz%c.SpacingHz != 0 || c.BandHighHz%c.SpacingHz != 0 {
		return fmt.Errorf("modem: band edges must align to subcarrier spacing %d", c.SpacingHz)
	}
	n := c.SampleRate / c.SpacingHz
	if n%2 != 0 {
		// The symbol transforms are real-signal FFTs of even size.
		return fmt.Errorf("modem: symbol length %d (sample rate / spacing) must be even", n)
	}
	if c.CPLen == 0 {
		// The paper's 67/960 ratio, scaled to the symbol length.
		c.CPLen = n * DefaultCPLen960 / 960
	}
	if c.CPLen < 0 || c.CPLen >= n {
		return fmt.Errorf("modem: cyclic prefix %d out of range for symbol %d", c.CPLen, n)
	}
	if c.ZCRoot == 0 {
		c.ZCRoot = 1
	}
	if c.TrainRoot == 0 {
		c.TrainRoot = 7
	}
	return nil
}

// N returns the OFDM symbol body length in samples (FFT size).
func (c Config) N() int { return c.SampleRate / c.SpacingHz }

// SymbolLen returns the full symbol length including cyclic prefix.
func (c Config) SymbolLen() int { return c.N() + c.CPLen }

// SymbolDuration returns the symbol body duration in seconds.
func (c Config) SymbolDuration() float64 {
	return float64(c.N()) / float64(c.SampleRate)
}

// BinLow returns the FFT bin index of the lowest data subcarrier.
func (c Config) BinLow() int { return c.BandLowHz / c.SpacingHz }

// BinHigh returns the FFT bin index one past the highest data
// subcarrier: usable bins are [BinLow, BinHigh).
func (c Config) BinHigh() int { return c.BandHighHz / c.SpacingHz }

// NumBins returns the number of usable data subcarriers. With the
// default configuration this is 60, the paper's N0.
func (c Config) NumBins() int { return c.BinHigh() - c.BinLow() }

// BinFreq returns the center frequency in Hz of the i-th data
// subcarrier (i in [0, NumBins)).
func (c Config) BinFreq(i int) float64 {
	return float64((c.BinLow() + i) * c.SpacingHz)
}

// Band is a contiguous range of data subcarriers, indexed relative to
// BinLow: [Lo, Hi] inclusive. It is the unit of the paper's frequency
// band adaptation — the feedback symbol carries exactly one Band.
type Band struct {
	Lo, Hi int
}

// Width returns the number of subcarriers in the band.
func (b Band) Width() int { return b.Hi - b.Lo + 1 }

// Valid reports whether the band is non-empty and inside [0, numBins).
func (b Band) Valid(numBins int) bool {
	return b.Lo >= 0 && b.Lo <= b.Hi && b.Hi < numBins
}

// FullBand returns the band covering every data subcarrier of cfg.
func FullBand(cfg Config) Band { return Band{0, cfg.NumBins() - 1} }

// Modem precomputes the transform plan, preamble waveform and training
// symbols for one Config. Safe for concurrent use only through
// separate instances (the FFT plan carries scratch buffers).
type Modem struct {
	cfg      Config
	plan     *fftPlan
	zcBins   []complex128 // CAZAC values on the data bins (preamble)
	trBins   []complex128 // CAZAC values on the data bins (training)
	preamble []float64    // full preamble waveform (8 symbols, no CP)
	preSym   []float64    // one preamble symbol (body only)
	preScale float64      // per-bin amplitude after unit-RMS normalization

	// Reusable hot-path buffers. The Modem is single-goroutine by
	// contract (each worker of the parallel experiment engine owns its
	// own instance), so the per-symbol modulate/demodulate loops can
	// recycle these instead of allocating per symbol. Each buffer has
	// exactly one owner path so they never alias:
	//   symBins   — trainingSymbolInto's transient constellation
	//   dataBins  — ModulateData/DemodulateData current-symbol bins
	//   prevBins  — the differential phase reference
	//   refSym    — DemodulateData's scaled training reference
	//   padded    — ModulateData's padded bit grid
	symBins  []complex128
	dataBins []complex128
	prevBins []complex128
	refSym   []float64
	padded   []int
}

// scratchBins returns the transient constellation buffer used by
// trainingSymbolInto, sized on first use.
func (m *Modem) scratchBins() []complex128 {
	if m.symBins == nil {
		m.symBins = make([]complex128, m.cfg.NumBins())
	}
	return m.symBins
}

// dataScratch returns the (current, previous) bin buffers for the
// per-symbol data loops, sized on first use.
func (m *Modem) dataScratch() (cur, prev []complex128) {
	if m.dataBins == nil {
		m.dataBins = make([]complex128, m.cfg.NumBins())
		m.prevBins = make([]complex128, m.cfg.NumBins())
	}
	return m.dataBins, m.prevBins
}

// refScratch returns a SymbolLen buffer for the training reference.
func (m *Modem) refScratch() []float64 {
	if m.refSym == nil {
		m.refSym = make([]float64, m.cfg.SymbolLen())
	}
	return m.refSym
}

// paddedScratch returns an int grid of at least n entries, zeroed.
func (m *Modem) paddedScratch(n int) []int {
	if cap(m.padded) < n {
		m.padded = make([]int, n)
	}
	m.padded = m.padded[:n]
	for i := range m.padded {
		m.padded[i] = 0
	}
	return m.padded
}

// New builds a modem for the configuration. It returns an error if
// the configuration is invalid.
func New(cfg Config) (*Modem, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Modem{cfg: cfg, plan: newFFTPlan(cfg.N())}
	nb := cfg.NumBins()
	m.zcBins = zcForBins(cfg.ZCRoot, nb)
	m.trBins = zcForBins(cfg.TrainRoot, nb)
	m.buildPreamble()
	return m, nil
}

// zcForBins returns a length-nb CAZAC sequence with the given root,
// choosing the nearest coprime root if needed.
func zcForBins(root, nb int) []complex128 {
	u := root % nb
	if u < 1 {
		u = 1
	}
	for gcdInt(u, nb) != 1 {
		u++
		if u >= nb {
			u = 1
		}
	}
	return seq.ZadoffChu(u, nb)
}

func gcdInt(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Config returns the modem's configuration (with defaults resolved).
func (m *Modem) Config() Config { return m.cfg }

// PreambleLen returns the preamble length in samples
// (PreambleSymbols * N, no cyclic prefixes).
func (m *Modem) PreambleLen() int { return len(m.preamble) }

// Preamble returns the transmit preamble waveform. The slice is
// shared; callers must not modify it.
func (m *Modem) Preamble() []float64 { return m.preamble }
