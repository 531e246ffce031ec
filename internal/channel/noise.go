package channel

import (
	"math"
	"math/rand"
	"slices"
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
	shape      *noiseShape
	hist       [noiseTaps - 1]float64 // last white inputs, carried across calls
	rng        *rand.Rand
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
		shape:      noiseShapeFor(sampleRate),
	}
	g.tonePhases = make([]float64, len(env.TonalHz))
	for i := range g.tonePhases {
		g.tonePhases[i] = 2 * math.Pi * g.rng.Float64()
	}
	g.toneAmp = 0.3
	return g
}

// noiseTaps is the length of the ambient-noise coloring filter.
const noiseTaps = 129

// noiseShape is the coloring filter of one sample rate: its convolver,
// the in-band RMS it produces for unit-variance white input (which
// AddTo divides out to hit the environment's target level exactly),
// and a pool of per-call scratch, so that no generator keeps a
// window-sized buffer and none transforms the kernel.
type noiseShape struct {
	conv    *dsp.OverlapAdd
	calib   float64
	scratch sync.Pool // of *noiseScratch
}

// noiseScratch is one shaping call's working set: a clone of the rate's
// convolver and the white input and shaped output buffers.
type noiseScratch struct {
	conv    *dsp.OverlapAdd
	in, out []float64
}

var (
	noiseShapeMu    sync.Mutex
	noiseShapeCache = map[int]*noiseShape{}
)

// noiseShapeFor designs and calibrates the coloring filter once per
// sample rate: every receive window builds a NoiseGen.
func noiseShapeFor(sampleRate int) *noiseShape {
	noiseShapeMu.Lock()
	defer noiseShapeMu.Unlock()
	if v, ok := noiseShapeCache[sampleRate]; ok {
		return v
	}
	v := &noiseShape{conv: dsp.NewOverlapAdd(noiseShapeTaps(sampleRate))}
	v.scratch.New = func() any { return &noiseScratch{conv: v.conv.Clone()} }
	const probeN = 8192
	sc := v.scratch.Get().(*noiseScratch)
	in := sc.input(probeN)
	clear(in[:noiseTaps-1])
	probe := in[noiseTaps-1:]
	r := rand.New(rand.NewSource(1))
	for i := range probe {
		probe[i] = r.NormFloat64()
	}
	bp := dsp.DesignBandpass(1000, 4000, float64(sampleRate), 128, dsp.Hamming)
	band := bp.Filter(sc.shape(probeN))
	v.scratch.Put(sc)
	v.calib = dsp.RMS(band[256:])
	if v.calib <= 0 {
		v.calib = 1
	}
	noiseShapeCache[sampleRate] = v
	return v
}

// input returns the scratch input for n new white samples: the
// filter's noiseTaps-1 history samples followed by the n new ones, for
// the caller to fill.
func (sc *noiseScratch) input(n int) []float64 {
	sc.in = slices.Grow(sc.in[:0], noiseTaps-1+n)[:noiseTaps-1+n]
	return sc.in
}

// shape filters the scratch input and returns the coloring filter's
// output for its n new samples, a slice of the scratch.
func (sc *noiseScratch) shape(n int) []float64 {
	sc.out = sc.conv.ApplyTo(sc.out, sc.in)
	return sc.out[noiseTaps-1 : noiseTaps-1+n]
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
	return firFromAmplitude(amp, noiseTaps)
}

// Generate returns n samples of ambient noise.
func (g *NoiseGen) Generate(n int) []float64 {
	out := make([]float64, n)
	g.AddTo(out)
	return out
}

// AddTo adds the next len(dst) samples of ambient noise onto dst. A
// stream cut into calls of any lengths is shaped as one linear
// convolution, since the filter's history carries across calls; only
// the low-order bits depend on where the cuts fall.
func (g *NoiseGen) AddTo(dst []float64) {
	n := len(dst)
	if n == 0 {
		return
	}
	sc := g.shape.scratch.Get().(*noiseScratch)
	defer g.shape.scratch.Put(sc)
	in := sc.input(n)
	copy(in, g.hist[:])
	white := in[len(g.hist):]
	for i := range white {
		white[i] = g.rng.NormFloat64()
	}
	copy(g.hist[:], in[n:])
	out := sc.shape(n)
	// Scale so the in-band RMS hits the environment target.
	dsp.Scale(out, g.levelRMS/g.shape.calib)
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
	dsp.Add(dst, out)
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
