package channel

import (
	"fmt"
	"math"
	"math/rand"

	"aquago/internal/dsp"
)

// Motion describes device movement during a transmission, matching
// the paper's mobility experiments (§3 "Effect of mobility"):
// accelerometer magnitudes of 2.5 and 5.1 m/s^2 for slow and fast.
type Motion struct {
	// AccelMS2 is the gravity-compensated accelerometer magnitude.
	// 0 = static (residual water motion still applies per the
	// environment's Current).
	AccelMS2 float64
	// SpeedMS is the peak relative radial speed in m/s for Doppler.
	// Zero derives a speed from AccelMS2.
	SpeedMS float64
}

// Preset motions from the paper.
var (
	Static     = Motion{}
	SlowMotion = Motion{AccelMS2: 2.5}
	FastMotion = Motion{AccelMS2: 5.1}
)

// speed returns the Doppler speed: derived from acceleration assuming
// ~0.25 s strokes when unset. The paper bounds safe diver motion at
// 1-2 m/s; its "fast" 5.1 m/s^2 maps to ~1 m/s here.
func (mo Motion) speed() float64 {
	if mo.SpeedMS > 0 {
		return mo.SpeedMS
	}
	return mo.AccelMS2 * 0.2 // 2.5 m/s^2 -> 0.5 m/s, 5.1 -> ~1 m/s
}

// coherenceS returns the approximate channel coherence time.
func (mo Motion) coherenceS(current float64) float64 {
	base := 3.0 / (1 + 15*current) // static water: seconds
	if mo.AccelMS2 > 0 {
		m := 0.9 / mo.AccelMS2 // 2.5 -> 0.36 s, 5.1 -> 0.18 s
		if m < base {
			base = m
		}
	}
	return base
}

// LinkParams configures one directed transmitter->receiver link.
type LinkParams struct {
	Env       Environment
	DistanceM float64
	// TxDepthM/RxDepthM default to 1 m (the paper's standard rig).
	TxDepthM, RxDepthM float64
	TxDevice, RxDevice Device
	// OrientationDeg is the azimuth offset between the devices'
	// speaker/mic axes: 0 = facing, 180 = opposed (Fig 15).
	OrientationDeg float64
	Casing         Casing
	Motion         Motion
	SampleRate     int
	// Seed controls the multipath realization and noise. Forward and
	// reverse links with different seeds model the paper's observed
	// non-reciprocity (Fig 3d).
	Seed int64
	// NoiseOff disables ambient noise (characterization runs).
	NoiseOff bool
}

// withDefaults fills zero fields.
func (p LinkParams) withDefaults() LinkParams {
	if p.TxDepthM == 0 {
		p.TxDepthM = 1
	}
	if p.RxDepthM == 0 {
		p.RxDepthM = 1
	}
	if p.SampleRate == 0 {
		p.SampleRate = 48000
	}
	if p.TxDevice.Name == "" {
		p.TxDevice = GalaxyS9
	}
	if p.RxDevice.Name == "" {
		p.RxDevice = GalaxyS9
	}
	if p.Env.Name == "" {
		p.Env = Lake
	}
	if p.DistanceM <= 0 {
		p.DistanceM = 5
	}
	if p.Casing == CasingNone {
		p.Casing = CasingSoftPouch
	}
	return p
}

// Link is a directed acoustic channel. It is not safe for concurrent
// use (it owns streaming filter state and an RNG).
type Link struct {
	p       LinkParams
	rng     *rand.Rand
	h       []float64 // composite static impulse response
	hAlt    []float64 // alternate realization for time variation
	conv    *dsp.OverlapAdd
	convAlt *dsp.OverlapAdd
	noise   *NoiseGen
	// orientGain scales the whole response per Fig 15's directivity.
	orientGain float64
	elapsedS   float64 // virtual time, advances with each transmit call
	// scratch buffers for the time-varying path's two realization
	// convolutions (their crossfade is consumed immediately, so the
	// intermediates never escape the link).
	scratchA, scratchB []float64
}

// NewLink builds the composite channel: device TX response -> casing
// -> water multipath -> casing -> device RX response, plus ambient
// noise injection at the receiver.
func NewLink(p LinkParams) (*Link, error) {
	p = p.withDefaults()
	if p.DistanceM <= 0 || p.SampleRate <= 0 {
		return nil, fmt.Errorf("channel: invalid link params %+v", p)
	}
	if p.TxDepthM <= 0 || p.TxDepthM >= p.Env.DepthM || p.RxDepthM <= 0 || p.RxDepthM >= p.Env.DepthM {
		return nil, fmt.Errorf("channel: depths (%g, %g) outside water column (0, %g)",
			p.TxDepthM, p.RxDepthM, p.Env.DepthM)
	}
	l := &Link{p: p, rng: rand.New(rand.NewSource(p.Seed))}
	geo := Geometry{Env: p.Env, DistanceM: p.DistanceM, TxDepthM: p.TxDepthM, RxDepthM: p.RxDepthM}
	irp := ImpulseResponseParams{
		SampleRate: p.SampleRate,
		Scatter:    p.Env.Scatter,
	}
	water := geo.ImpulseResponse(irp, l.rng)
	// The alternate realization models how far the channel wanders
	// over one coherence interval: motion perturbs the path geometry
	// by roughly the stroke amplitude, which shifts the multipath
	// notches rather than re-randomizing the channel. Static water
	// wanders centimeters; fast hand motion tens of centimeters.
	geoAlt := geo
	geoAlt.DistanceM += 0.03 + 0.35*p.Motion.speed()
	geoAlt.TxDepthM += 0.01 + 0.1*p.Motion.speed()
	waterAlt := geoAlt.ImpulseResponse(irp, l.rng)
	// Compose with device, casing and placement responses. The
	// placement filter is seeded per link, so forward and backward
	// directions (different seeds) see different composite channels
	// even with identical device models — the paper's Fig 3d.
	chain := func(w []float64) []float64 {
		h := dsp.Convolve(w, p.TxDevice.TxFilter(p.SampleRate).Taps)
		h = dsp.Convolve(h, p.Casing.Filter(p.SampleRate).Taps)
		h = dsp.Convolve(h, p.Casing.Filter(p.SampleRate).Taps) // both ends
		h = dsp.Convolve(h, p.RxDevice.RxFilter(p.SampleRate).Taps)
		h = dsp.Convolve(h, PlacementFilter(p.SampleRate, p.Seed^0x9e3779b9).Taps)
		return trimIR(h)
	}
	l.h = chain(water)
	l.hAlt = chain(waterAlt)
	// The linear-phase filter cascade contributes ~450 samples of pure
	// bulk delay; strip it so tap 0 is the first significant arrival
	// (receivers treat bulk delay as absolute timing, handled by the
	// medium simulator). Both realizations are trimmed by the same
	// amount to preserve their relative alignment for crossfading.
	lead := leadingDead(l.h)
	if la := leadingDead(l.hAlt); la < lead {
		lead = la
	}
	l.h = l.h[lead:]
	l.hAlt = l.hAlt[lead:]
	// TX level applies flat; orientation applies as a frequency-
	// dependent filter (speaker directivity grows with frequency, so
	// facing away costs the top of the band most — Fig 15).
	gain := dsp.AmpFromDB(p.TxDevice.TxLevelDB)
	dsp.Scale(l.h, gain)
	dsp.Scale(l.hAlt, gain)
	if p.OrientationDeg != 0 {
		of := orientationFilter(p.OrientationDeg, p.SampleRate)
		l.h = trimIR(dsp.Convolve(l.h, of.Taps))
		l.hAlt = trimIR(dsp.Convolve(l.hAlt, of.Taps))
	}
	l.conv = dsp.NewOverlapAdd(l.h)
	l.convAlt = dsp.NewOverlapAdd(l.hAlt)
	if !p.NoiseOff {
		l.noise = NewNoiseGen(p.Env, p.SampleRate, p.Seed^0x5eed)
	}
	l.orientGain = orientationGain(p.OrientationDeg)
	return l, nil
}

// orientationLossDB returns the directivity loss at frequency f for
// an azimuth offset: zero when facing, growing with angle, and
// stronger at higher frequencies where the small speaker aperture is
// more directional. At 180° this is 4 dB at 1 kHz and ~12 dB at
// 4 kHz — enough to halve the paper's median bitrate (Fig 15).
func orientationLossDB(deg, fHz float64) float64 {
	rad := deg * math.Pi / 180
	angleFactor := (1 - math.Cos(rad)) / 2 // 0 at 0°, 1 at 180°
	base := 5.0
	slope := 10.0 * (fHz - 1000) / 3000
	if slope < 0 {
		slope = 0
	}
	return (base + slope) * angleFactor
}

// orientationFilter materializes the directivity loss as an FIR.
func orientationFilter(deg float64, sampleRate int) *dsp.FIR {
	const gridN = 1024
	amp := make([]float64, gridN/2+1)
	for k := range amp {
		f := float64(k) * float64(sampleRate) / gridN
		amp[k] = dsp.AmpFromDB(-orientationLossDB(deg, f))
	}
	return &dsp.FIR{Taps: firFromAmplitude(amp, 129)}
}

// orientationGain keeps the scalar view of the directivity model at
// the band center (diagnostics and tests).
func orientationGain(deg float64) float64 {
	return dsp.AmpFromDB(-orientationLossDB(deg, 2500))
}

// trimIR drops negligible trailing response samples.
func trimIR(h []float64) []float64 {
	peak := dsp.MaxAbs(h)
	if peak == 0 {
		return []float64{0}
	}
	last := len(h) - 1
	for last > 0 && math.Abs(h[last]) < 1e-4*peak {
		last--
	}
	return h[:last+1]
}

// leadingDead counts negligible leading samples (pure bulk delay).
func leadingDead(h []float64) int {
	peak := dsp.MaxAbs(h)
	if peak == 0 {
		return 0
	}
	lead := 0
	for lead < len(h)-1 && math.Abs(h[lead]) < 1e-3*peak {
		lead++
	}
	return lead
}

// ImpulseResponse returns a copy of the link's (initial) composite
// impulse response.
func (l *Link) ImpulseResponse() []float64 {
	return append([]float64(nil), l.h...)
}

// Params returns the link parameters (defaults resolved).
func (l *Link) Params() LinkParams { return l.p }

// DelaySamples returns the bulk propagation delay of the direct path
// in samples (removed from the impulse response; the medium simulator
// re-applies it for absolute timing).
func (l *Link) DelaySamples() int {
	geo := Geometry{Env: l.p.Env, DistanceM: l.p.DistanceM, TxDepthM: l.p.TxDepthM, RxDepthM: l.p.RxDepthM}
	return int(geo.DirectDelayS() * float64(l.p.SampleRate))
}

// Transmit passes tx through the channel and returns the received
// waveform (length len(tx) + len(h) - 1), including ambient noise.
// Successive calls advance the link's virtual clock, so a moving
// channel keeps drifting from call to call.
func (l *Link) Transmit(tx []float64) []float64 {
	dur := float64(len(tx)) / float64(l.p.SampleRate)
	var rx []float64
	if l.timeVarying() {
		rx = l.transmitTimeVarying(tx)
	} else {
		rx = l.conv.Apply(tx)
	}
	l.elapsedS += dur
	if l.noise != nil {
		l.noise.AddTo(rx)
	}
	return rx
}

// TransmitAt is Transmit preceded by explicit virtual-clock control:
// it sets the link's elapsed time before transmitting (used by the
// medium simulator to keep multiple links on one timeline).
func (l *Link) TransmitAt(tx []float64, atS float64) []float64 {
	l.elapsedS = atS
	return l.Transmit(tx)
}

// timeVarying reports whether the channel changes within a packet.
func (l *Link) timeVarying() bool {
	return l.p.Motion.AccelMS2 > 0 || l.p.Env.Current > 0.05
}

// transmitTimeVarying models motion as (a) global Doppler resampling
// from the oscillating radial velocity and (b) a slow crossfade
// between two multipath realizations with period set by the coherence
// time. The crossfade phase advances with the link's virtual clock so
// consecutive packets see different channels (Fig 16).
func (l *Link) transmitTimeVarying(tx []float64) []float64 {
	fs := float64(l.p.SampleRate)
	coh := l.p.Motion.coherenceS(l.p.Env.Current)
	// Doppler: sinusoidal radial velocity, phase tied to virtual time.
	v := l.p.Motion.speed()
	if v > 0 {
		phase := 2 * math.Pi * l.elapsedS / (4 * coh)
		inst := v * math.Sin(phase)
		factor := 1 / (1 + inst/SoundSpeed)
		tx = dsp.ResampleLinear(tx, factor)
	}
	l.scratchA, l.scratchB = dsp.ApplyPairTo(l.conv, l.convAlt, l.scratchA, l.scratchB, tx)
	a, b := l.scratchA, l.scratchB
	// The two realizations may have slightly different lengths.
	n := max(len(a), len(b))
	out := make([]float64, n)
	at := func(x []float64, i int) float64 {
		if i < len(x) {
			return x[i]
		}
		return 0
	}
	// Crossfade between realizations with period ~2*coherence time.
	w := 2 * math.Pi / (2 * coh)
	for i := range out {
		t := l.elapsedS + float64(i)/fs
		alpha := 0.5 + 0.5*math.Sin(w*t)
		out[i] = (1-alpha)*at(a, i) + alpha*at(b, i)
	}
	return out
}

// Reverse builds the opposite-direction link. Underwater the forward
// and backward channels differ (paper Fig 3d): the reverse link swaps
// devices and depths and draws an independent multipath realization.
func (l *Link) Reverse() (*Link, error) {
	p := l.p
	p.TxDevice, p.RxDevice = p.RxDevice, p.TxDevice
	p.TxDepthM, p.RxDepthM = p.RxDepthM, p.TxDepthM
	p.Seed = p.Seed*31 + 17
	return NewLink(p)
}

// NoiseOnly returns n samples of the link's ambient noise without any
// signal (carrier-sense calibration, Fig 4 measurements).
func (l *Link) NoiseOnly(n int) []float64 {
	if l.noise == nil {
		return make([]float64, n)
	}
	return l.noise.Generate(n)
}

// InBandNoiseRMS returns the receiver's ambient in-band noise RMS.
func (l *Link) InBandNoiseRMS() float64 {
	if l.noise == nil {
		return 0
	}
	return l.noise.InBandRMS()
}
