package channel

import (
	"math"
	"math/rand"
	"sync"

	"aquago/internal/dsp"
)

// NoiseGen produces the ambient underwater noise of one environment as
// heard by one device: colored Gaussian background (flow noise heavy
// below 1 kHz, per the paper's Fig 4), optional narrowband tonal
// interferers, and impulsive bubble/splash bursts.
type NoiseGen struct {
	env        Environment
	sampleRate int
	levelRMS   float64 // target in-band (1-4 kHz) RMS
	shape      *dsp.FIRState
	rng        *rand.Rand
	calib      float64 // shaping-filter gain compensation
	tonePhases []float64
	toneAmp    float64
}

// NoiseRefRMS is the in-band (1-4 kHz) noise RMS of the quietest
// environment (Bridge). Environment NoiseDB offsets stack on top.
// The constant is calibrated so that at 5 m in the lake the link SNR
// supports the paper's observed ~19-subcarrier bands (median
// ~633 bps), 30 m forces the narrow ~4-bin bands (~133 bps), and
// 100 m is reachable only by single-tone beacons.
const NoiseRefRMS = 0.0056

// NewNoiseGen builds a generator for env at the given sample rate.
// The seed controls the realization; the same seed replays the same
// noise.
func NewNoiseGen(env Environment, sampleRate int, seed int64) *NoiseGen {
	g := &NoiseGen{
		env:        env,
		sampleRate: sampleRate,
		levelRMS:   NoiseRefRMS * dsp.AmpFromDB(env.NoiseDB),
		rng:        rand.New(rand.NewSource(seed)),
	}
	shape := noiseShapeFor(sampleRate)
	g.shape = dsp.NewFIRState(&dsp.FIR{Taps: shape.taps})
	g.calib = shape.calib
	g.tonePhases = make([]float64, len(env.TonalHz))
	for i := range g.tonePhases {
		g.tonePhases[i] = 2 * math.Pi * g.rng.Float64()
	}
	g.toneAmp = 0.3
	return g
}

// noiseShape is the coloring filter of one sample rate: its taps and
// the in-band RMS they produce for unit-variance white input, which
// Generate divides out to hit the environment's target level exactly.
type noiseShape struct {
	taps  []float64 // shared; NewFIRState copies them
	calib float64
}

var (
	noiseShapeMu    sync.Mutex
	noiseShapeCache = map[int]noiseShape{}
)

// noiseShapeFor designs and calibrates the coloring filter once per
// sample rate: every receive window builds a NoiseGen.
func noiseShapeFor(sampleRate int) noiseShape {
	noiseShapeMu.Lock()
	defer noiseShapeMu.Unlock()
	if v, ok := noiseShapeCache[sampleRate]; ok {
		return v
	}
	v := noiseShape{taps: noiseShapeTaps(sampleRate)}
	probe := make([]float64, 8192)
	r := rand.New(rand.NewSource(1))
	for i := range probe {
		probe[i] = r.NormFloat64()
	}
	out := dsp.NewFIRState(&dsp.FIR{Taps: v.taps}).Process(probe)
	bp := dsp.DesignBandpass(1000, 4000, float64(sampleRate), 128, dsp.Hamming)
	band := bp.Filter(out)
	v.calib = dsp.RMS(band[256:])
	if v.calib <= 0 {
		v.calib = 1
	}
	noiseShapeCache[sampleRate] = v
	return v
}

// noiseShapeTaps designs the ambient-noise coloring filter: strong
// below 1 kHz (water flow, bubbles), gently sloping through the
// 1-4.5 kHz band, rolling off above (Fig 4's measured shape).
func noiseShapeTaps(sampleRate int) []float64 {
	const gridN = 1024
	amp := make([]float64, gridN/2+1)
	for k := range amp {
		f := float64(k) * float64(sampleRate) / gridN
		var db float64
		switch {
		case f < 50:
			db = 14
		case f < 1000:
			// +12 dB at low frequency sloping to 0 dB at 1 kHz.
			db = 12 * (1000 - f) / 950
		case f < 4500:
			// Mild decline through the communication band.
			db = -3 * (f - 1000) / 3500
		default:
			// Rolloff above 4.5 kHz.
			db = -3 - 10*(f-4500)/3000
		}
		if db < -40 {
			db = -40
		}
		amp[k] = dsp.AmpFromDB(db)
	}
	return firFromAmplitude(amp, 129)
}

// Generate returns n samples of ambient noise.
func (g *NoiseGen) Generate(n int) []float64 {
	white := make([]float64, n)
	for i := range white {
		white[i] = g.rng.NormFloat64()
	}
	out := g.shape.Process(white)
	// Scale so the in-band RMS hits the environment target.
	dsp.Scale(out, g.levelRMS/g.calib)
	// Tonal interferers.
	for ti, f := range g.env.TonalHz {
		w := 2 * math.Pi * f / float64(g.sampleRate)
		a := g.toneAmp * g.levelRMS
		ph := g.tonePhases[ti]
		for i := range out {
			out[i] += a * math.Sin(w*float64(i)+ph)
		}
		g.tonePhases[ti] = math.Mod(ph+w*float64(n), 2*math.Pi)
	}
	// Impulsive bursts: Poisson arrivals, ~2-5 ms decaying transients.
	if g.env.Impulsive > 0 {
		ratePerSec := 4 * g.env.Impulsive
		expected := ratePerSec * float64(n) / float64(g.sampleRate)
		bursts := poisson(g.rng, expected)
		for b := 0; b < bursts; b++ {
			at := g.rng.Intn(n)
			dur := g.sampleRate * (2 + g.rng.Intn(4)) / 1000
			amp := g.levelRMS * (8 + 12*g.rng.Float64())
			tau := float64(dur) / 3
			for i := 0; i < dur && at+i < n; i++ {
				out[at+i] += amp * math.Exp(-float64(i)/tau) * g.rng.NormFloat64()
			}
		}
	}
	return out
}

// InBandRMS returns the generator's target 1-4 kHz noise RMS.
func (g *NoiseGen) InBandRMS() float64 { return g.levelRMS }

// poisson draws a Poisson-distributed count with the given mean using
// Knuth's method (means here are tiny).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}
