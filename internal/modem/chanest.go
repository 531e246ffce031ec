package modem

import (
	"fmt"
	"math"

	"aquago/internal/dsp"
	"aquago/internal/seq"
)

// ChannelEstimate holds the per-subcarrier channel and SNR estimated
// from a received preamble. Indexing is relative to the modem's data
// bins (0 .. NumBins-1).
type ChannelEstimate struct {
	// H is the complex channel response per data subcarrier.
	H []complex128
	// SNRdB is the estimated signal-to-noise ratio per subcarrier in
	// dB, computed as the paper's 20*log10(||H x|| / ||y - H x||).
	SNRdB []float64
	// NoisePower is the mean residual power across bins (diagnostic).
	NoisePower float64
}

// EstimateChannel performs frequency-domain MMSE channel estimation
// over the 8 preamble symbols. rx must be the synchronized preamble
// samples (exactly PreambleSymbols*N, starting at the detected
// offset).
//
// For each subcarrier k with known transmitted values x_j(k)
// (CAZAC value times the PN sign of symbol j) and received values
// y_j(k), the estimator is
//
//	H(k) = sum_j conj(x_j) y_j / (sum_j |x_j|^2 + eps)
//
// and the SNR follows the paper's definition
// 20*log10(||H(k) x(k)|| / ||y(k) - H(k) x(k)||).
func (m *Modem) EstimateChannel(rx []float64) (*ChannelEstimate, error) {
	n := m.cfg.N()
	if len(rx) != PreambleSymbols*n {
		return nil, fmt.Errorf("modem: preamble estimate needs %d samples, got %d", PreambleSymbols*n, len(rx))
	}
	nb := m.cfg.NumBins()
	est := &ChannelEstimate{
		H:     make([]complex128, nb),
		SNRdB: make([]float64, nb),
	}
	// Demodulate each preamble segment. The preamble was normalized
	// to unit RMS at build time; recover the per-bin scale factor so
	// H reflects the physical channel gain.
	ys := make([][]complex128, PreambleSymbols)
	for j := 0; j < PreambleSymbols; j++ {
		body := rx[j*n : (j+1)*n]
		bins, err := m.DemodSymbol(body)
		if err != nil {
			return nil, err
		}
		ys[j] = bins
	}
	// Known transmitted bin values, including the preamble's RMS
	// normalization: recompute the scale applied in buildPreamble.
	txScale := m.preambleBinScale()
	var residTotal float64
	for k := 0; k < nb; k++ {
		var num complex128
		var den float64
		for j := 0; j < PreambleSymbols; j++ {
			xj := m.tab.zcBins[k] * complex(float64(seq.PreamblePN[j])*txScale, 0)
			num += dsp.Conj(xj) * ys[j][k]
			den += dsp.CAbs2(xj)
		}
		const eps = 1e-12
		h := num / complex(den+eps, 0)
		est.H[k] = h
		// Residual-based SNR.
		var sig, resid float64
		for j := 0; j < PreambleSymbols; j++ {
			xj := m.tab.zcBins[k] * complex(float64(seq.PreamblePN[j])*txScale, 0)
			hx := h * xj
			sig += dsp.CAbs2(hx)
			d := ys[j][k] - hx
			resid += dsp.CAbs2(d)
		}
		residTotal += resid
		if resid <= 0 {
			est.SNRdB[k] = 60 // effectively noiseless
			continue
		}
		snr := 20 * math.Log10(math.Sqrt(sig)/math.Sqrt(resid))
		// Clamp to a sane range for downstream algorithms.
		if snr > 60 {
			snr = 60
		}
		if snr < -30 {
			snr = -30
		}
		est.SNRdB[k] = snr
	}
	est.NoisePower = residTotal / float64(nb*PreambleSymbols)
	return est, nil
}

// preambleBinScale returns the amplitude applied to each data bin by
// the preamble's unit-RMS normalization (cached at build time).
func (m *Modem) preambleBinScale() float64 { return m.tab.preScale }

// MinSNRInBand returns the minimum estimated SNR over band b — the
// metric the paper's channel-stability experiment (Fig 16) tracks.
func (e *ChannelEstimate) MinSNRInBand(b Band) float64 {
	minSNR := math.Inf(1)
	for k := b.Lo; k <= b.Hi && k < len(e.SNRdB); k++ {
		if k < 0 {
			continue
		}
		if e.SNRdB[k] < minSNR {
			minSNR = e.SNRdB[k]
		}
	}
	return minSNR
}
