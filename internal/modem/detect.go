package modem

import (
	"aquago/internal/dsp"
	"aquago/internal/seq"
)

// Detection thresholds from the paper (§2.2.1): a true preamble's
// normalized sliding correlation exceeds 0.6 while spiky noise stays
// below 0.2; the sliding-correlation step is 8 samples to balance
// compute against synchronization resolution.
const (
	DefaultDetectThreshold = 0.6
	DefaultSlideStep       = 8
)

// Detection describes one detected preamble.
type Detection struct {
	// Offset is the sample index in the searched buffer where the
	// preamble begins.
	Offset int
	// Metric is the normalized sliding-correlation peak in [0, 1].
	Metric float64
	// Coarse is the normalized cross-correlation value that triggered
	// the fine stage.
	Coarse float64
}

// Detector finds preambles in received audio using the paper's
// two-stage scheme: cheap normalized cross-correlation against the
// known preamble waveform proposes candidates; the PN-segment sliding
// correlation (robust to SNR changes and spiky noise) confirms and
// refines timing.
type Detector struct {
	m *Modem
	// Threshold for the sliding-correlation metric (default 0.6).
	Threshold float64
	// CoarseThreshold gates the first stage (normalized xcorr).
	CoarseThreshold float64
	// Step is the sliding-correlation stride in samples (default 8).
	Step int
}

// NewDetector returns a detector with the paper's thresholds.
func NewDetector(m *Modem) *Detector {
	return &Detector{m: m, Threshold: DefaultDetectThreshold, CoarseThreshold: 0.25, Step: DefaultSlideStep}
}

// SlidingCorrelation evaluates the paper's detection metric at offset
// t of x: the window of 8 OFDM-symbol segments starting at t is
// sign-corrected by the PN pattern, adjacent segments are correlated,
// and the sum is normalized by the window energy. The true preamble
// yields ~7/8 at high SNR; noise stays near zero.
func (d *Detector) SlidingCorrelation(x []float64, t int) float64 {
	n := d.m.cfg.N()
	win := PreambleSymbols * n
	if t < 0 || t+win > len(x) {
		return 0
	}
	var sum float64
	var energy float64
	for s := 0; s < PreambleSymbols-1; s++ {
		// One pass over the segment pair: segA's energy and its dot
		// product with segB, each in its own accumulator.
		segA := x[t+s*n : t+(s+1)*n]
		segB := x[t+(s+1)*n : t+(s+2)*n]
		segB = segB[:len(segA)]
		var e, dot float64
		for i, a := range segA {
			e += a * a
			dot += a * segB[i]
		}
		energy += e
		signA := float64(seq.PreamblePN[s])
		signB := float64(seq.PreamblePN[s+1])
		sum += signA * signB * dot
	}
	energy += dsp.Energy(x[t+(PreambleSymbols-1)*n : t+win])
	if energy <= 0 {
		return 0
	}
	// Scale by 8/7 so a perfect noiseless preamble scores 1.0.
	return sum / energy * float64(PreambleSymbols) / float64(PreambleSymbols-1)
}

// Detect searches x for the first preamble. It returns ok=false if no
// candidate passes both stages.
func (d *Detector) Detect(x []float64) (Detection, bool) {
	dets := d.detect(x, true)
	if len(dets) == 0 {
		return Detection{}, false
	}
	return dets[0], true
}

// DetectAll returns every non-overlapping preamble detection in x in
// time order.
func (d *Detector) DetectAll(x []float64) []Detection {
	return d.detect(x, false)
}

func (d *Detector) detect(x []float64, firstOnly bool) []Detection {
	pre := d.m.tab.preamble
	if len(x) < len(pre) {
		return nil
	}
	coarse := dsp.NormalizedCrossCorrelate(x, pre)
	win := len(pre)
	var out []Detection
	i := 0
	for i < len(coarse) {
		if coarse[i] < d.CoarseThreshold {
			i++
			continue
		}
		// Find the local coarse maximum over one symbol span.
		peak := i
		end := min(i+d.m.cfg.N(), len(coarse))
		for j := i; j < end; j++ {
			if coarse[j] > coarse[peak] {
				peak = j
			}
		}
		// Fine stage: sliding correlation around the coarse peak.
		lo := max(0, peak-d.m.cfg.N()/2)
		hi := min(len(x)-win, peak+d.m.cfg.N()/2)
		bestT, bestM := -1, 0.0
		for t := lo; t <= hi; t += d.Step {
			if m := d.SlidingCorrelation(x, t); m > bestM {
				bestM, bestT = m, t
			}
		}
		if bestT >= 0 && bestM >= d.Threshold {
			out = append(out, Detection{Offset: bestT, Metric: bestM, Coarse: coarse[peak]})
			if firstOnly {
				return out
			}
			// Skip past this preamble to find the next one.
			i = bestT + win
			continue
		}
		i = end
	}
	return out
}
