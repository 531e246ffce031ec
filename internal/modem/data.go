package modem

import (
	"fmt"
	"math"

	"aquago/internal/dsp"
)

// DataOptions tunes the data-path encode/decode chain. The zero value
// is the paper's configuration (differential coding and equalization
// both enabled).
type DataOptions struct {
	// NoDifferential disables differential coding across symbols
	// (coherent BPSK against the training-symbol channel estimate).
	// Fig 14c ablates exactly this switch.
	NoDifferential bool
	// NoEqualizer skips time-domain MMSE equalization.
	NoEqualizer bool
	// EqualizerTaps overrides the equalizer length (0 = default).
	EqualizerTaps int
}

// DataSymbols returns how many OFDM data symbols carry nBits over
// band b (excluding the training symbol).
func DataSymbols(nBits int, b Band) int {
	l := b.Width()
	return (nBits + l - 1) / l
}

// DataLen returns the sample count of the data section ModulateData
// produces for nBits over band b: one training symbol plus
// DataSymbols data symbols, each with cyclic prefix.
func (m *Modem) DataLen(nBits int, b Band) int {
	return (1 + DataSymbols(nBits, b)) * m.cfg.SymbolLen()
}

// ModulateData builds the data section of a packet: the known
// band-limited training symbol followed by the differentially-coded
// BPSK data symbols. bits must already be FEC-encoded and interleaved
// (grid order: bit i rides on symbol i/L, subcarrier b.Lo + i%L).
//
// The waveform is normalized to unit RMS regardless of band width, so
// narrowing the band concentrates the fixed transmit power into fewer
// subcarriers — the 10*log10(N0/L) SNR gain the adaptation algorithm
// (Algorithm 1) accounts for.
func (m *Modem) ModulateData(bits []int, b Band, opts DataOptions) ([]float64, error) {
	if !b.Valid(m.cfg.NumBins()) {
		return nil, fmt.Errorf("modem: invalid band %+v", b)
	}
	l := b.Width()
	nSym := DataSymbols(len(bits), b)
	if nSym == 0 {
		return nil, fmt.Errorf("modem: no data bits")
	}
	// Pad to fill the final symbol.
	padded := m.paddedScratch(nSym * l)
	copy(padded, bits)

	symLen := m.cfg.SymbolLen()
	out := make([]float64, (1+nSym)*symLen)
	if err := m.trainingSymbolInto(b, out[:symLen]); err != nil {
		return nil, err
	}

	bins, prev := m.dataScratch()
	for i := range prev {
		prev[i] = 0
	}
	for i := b.Lo; i <= b.Hi; i++ {
		prev[i] = m.tab.trBins[i] // differential reference
	}
	for s := 0; s < nSym; s++ {
		for i := range bins {
			bins[i] = 0
		}
		for j := 0; j < l; j++ {
			k := b.Lo + j
			sign := complex(1-2*float64(padded[s*l+j]), 0)
			if opts.NoDifferential {
				bins[k] = m.tab.trBins[k] * sign
			} else {
				bins[k] = prev[k] * sign
			}
		}
		if err := m.modulateSymbolInto(bins, out[(1+s)*symLen:(2+s)*symLen]); err != nil {
			return nil, err
		}
		if !opts.NoDifferential {
			copy(prev, bins)
		}
	}
	// Unit-RMS normalization: a symbol with L unit-magnitude bins has
	// body power exactly L/2 (orthogonal unit cosines).
	dsp.Scale(out, math.Sqrt(2/float64(l)))
	return out, nil
}

// DemodulateData decodes soft bit values from a received data section.
// rx must be aligned to the start of the training symbol and contain
// at least DataLen(nBits, b) samples. Returned soft values follow the
// fec convention: positive = bit 0, negative = bit 1, magnitude =
// confidence; grid order matches ModulateData.
func (m *Modem) DemodulateData(rx []float64, b Band, nBits int, opts DataOptions) ([]float64, error) {
	if !b.Valid(m.cfg.NumBins()) {
		return nil, fmt.Errorf("modem: invalid band %+v", b)
	}
	l := b.Width()
	nSym := DataSymbols(nBits, b)
	need := (1 + nSym) * m.cfg.SymbolLen()
	if len(rx) < need {
		return nil, fmt.Errorf("modem: data section needs %d samples, got %d", need, len(rx))
	}
	rx = rx[:need]
	symLen := m.cfg.SymbolLen()
	cp := m.cfg.CPLen
	n := m.cfg.N()

	// Equalize using the training symbol.
	work := rx
	if !opts.NoEqualizer {
		ref := m.refScratch()
		if err := m.trainingSymbolInto(b, ref); err != nil {
			return nil, err
		}
		dsp.Scale(ref, math.Sqrt(2/float64(l)))
		taps := opts.EqualizerTaps
		if taps <= 0 {
			taps = m.EqualizerTaps()
		}
		if taps > symLen {
			taps = symLen
		}
		// Autocorrelation benefits from the whole received section;
		// cross-correlation uses only the known training prefix.
		eq, err := m.TrainEqualizer(rx, ref, taps, -1)
		if err == nil {
			work = eq.Apply(rx)
		}
		// On singular training fall back to unequalized samples.
	}

	// Demodulate all symbols (training first).
	cur, prev := m.dataScratch()
	if err := m.demodSymbolInto(work[cp:cp+n], prev); err != nil {
		return nil, err
	}
	// Channel estimate for the coherent (non-differential) path.
	var hRef []complex128
	if opts.NoDifferential {
		hRef = make([]complex128, m.cfg.NumBins())
		tb := m.TrainingBins(b)
		for k := b.Lo; k <= b.Hi; k++ {
			if dsp.CAbs2(tb[k]) > 0 {
				hRef[k] = prev[k] / tb[k]
			}
		}
	}

	// Soft values keep their amplitude: a bin in a deep fade produces
	// a small product |cur||prev| and therefore a weak soft value the
	// Viterbi decoder can discount, while a clean bin votes strongly.
	// Only a single per-packet scale (the mean magnitude) normalizes
	// the range.
	soft := make([]float64, nSym*l)
	var magSum float64
	for s := 0; s < nSym; s++ {
		start := (1+s)*symLen + cp
		if err := m.demodSymbolInto(work[start:start+n], cur); err != nil {
			return nil, err
		}
		for j := 0; j < l; j++ {
			k := b.Lo + j
			var v, mag float64
			if opts.NoDifferential {
				expect := hRef[k] * m.tab.trBins[k]
				v = real(cur[k] * dsp.Conj(expect))
				mag = math.Sqrt(dsp.CAbs2(cur[k]) * dsp.CAbs2(expect))
			} else {
				v = real(cur[k] * dsp.Conj(prev[k]))
				mag = math.Sqrt(dsp.CAbs2(cur[k]) * dsp.CAbs2(prev[k]))
			}
			soft[s*l+j] = v
			magSum += mag
		}
		if !opts.NoDifferential {
			copy(prev, cur)
		}
	}
	if magSum > 0 {
		scale := float64(len(soft)) / magSum
		for i := range soft {
			soft[i] *= scale
		}
	}
	return soft[:nBits], nil
}

// HardBits converts soft values to hard bit decisions.
func HardBits(soft []float64) []int {
	out := make([]int, len(soft))
	for i, v := range soft {
		if v < 0 {
			out[i] = 1
		}
	}
	return out
}
