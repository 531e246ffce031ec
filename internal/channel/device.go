package channel

import (
	"hash/fnv"
	"math"
	"math/rand"

	"aquago/internal/dsp"
)

// Device models a mobile device's acoustic front end: the composite
// speaker (transmit) and microphone (receive) frequency responses.
// The responses are synthetic stand-ins for the hardware diversity the
// paper measures in Fig 3a: band-limited with device-specific ripple
// and notches, rolling off sharply above 4 kHz.
type Device struct {
	// Name identifies the device and seeds its response curve, so a
	// given model always sounds the same.
	Name string
	// TxLevelDB is the speaker output level relative to the Galaxy S9
	// at maximum volume (watches are quieter).
	TxLevelDB float64
	// PlateauLowHz..PlateauHighHz is the flat-ish passband.
	PlateauLowHz, PlateauHighHz float64
	// RippleDB is the in-band ripple amplitude.
	RippleDB float64
	// Notches is the number of device-specific response notches.
	Notches int
}

// The paper's four evaluation devices (§2.1).
var (
	GalaxyS9 = Device{
		Name: "galaxy-s9", TxLevelDB: 0,
		PlateauLowHz: 500, PlateauHighHz: 4000, RippleDB: 3, Notches: 2,
	}
	Pixel4 = Device{
		Name: "pixel-4", TxLevelDB: -1,
		PlateauLowHz: 600, PlateauHighHz: 3900, RippleDB: 4, Notches: 3,
	}
	OnePlus8Pro = Device{
		Name: "oneplus-8-pro", TxLevelDB: -0.5,
		PlateauLowHz: 450, PlateauHighHz: 4100, RippleDB: 3.5, Notches: 2,
	}
	GalaxyWatch4 = Device{
		Name: "galaxy-watch-4", TxLevelDB: -6,
		PlateauLowHz: 800, PlateauHighHz: 3500, RippleDB: 5, Notches: 3,
	}
)

// Devices lists the four evaluation devices.
func Devices() []Device {
	return []Device{GalaxyS9, Pixel4, OnePlus8Pro, GalaxyWatch4}
}

// DeviceByName returns the preset device with the given name.
func DeviceByName(name string) (Device, bool) {
	for _, d := range Devices() {
		if d.Name == name {
			return d, true
		}
	}
	return Device{}, false
}

// responseTaps designs the device's FIR response (speaker or mic) by
// frequency sampling. kind distinguishes the speaker ("tx") from the
// slightly broader microphone ("rx") so the two directions differ.
func (d Device) responseTaps(sampleRate int, kind string, nTaps int) []float64 {
	if nTaps%2 == 0 {
		nTaps++
	}
	seed := fnv.New64a()
	seed.Write([]byte(d.Name))
	seed.Write([]byte(kind))
	rng := rand.New(rand.NewSource(int64(seed.Sum64() & 0x7fffffffffffffff)))

	// Amplitude response on a dense grid.
	const gridN = 1024
	amp := make([]float64, gridN/2+1)
	lo, hi := d.PlateauLowHz, d.PlateauHighHz
	if kind == "rx" {
		lo *= 0.8
		hi *= 1.1
	}
	// Random ripple phases and notch placements, fixed per device.
	type ripple struct{ freq, phase, amp float64 }
	ripples := make([]ripple, 4)
	for i := range ripples {
		ripples[i] = ripple{
			freq:  0.8 + 2.5*rng.Float64(), // cycles per decade-ish
			phase: 2 * math.Pi * rng.Float64(),
			amp:   d.RippleDB * (0.4 + 0.6*rng.Float64()) / 2,
		}
	}
	type notch struct{ freq, width, depth float64 }
	notches := make([]notch, d.Notches)
	for i := range notches {
		notches[i] = notch{
			freq:  lo + (hi-lo)*(0.15+0.7*rng.Float64()),
			width: 120 + 250*rng.Float64(),
			depth: 8 + 10*rng.Float64(),
		}
	}
	for k := range amp {
		f := float64(k) * float64(sampleRate) / gridN
		db := 0.0
		// Band edges: 2nd-order-ish rolloffs; very steep above 4 kHz
		// (paper: response diminishes above 4 kHz).
		switch {
		case f < lo:
			db -= 24 * (lo - f) / lo * 2
		case f > hi:
			db -= 30 * (f - hi) / 1000 // ~30 dB/kHz rolloff
		}
		// In-band ripple (log-frequency sinusoids).
		if f > 100 {
			lf := math.Log10(f)
			for _, r := range ripples {
				db += r.amp * math.Sin(2*math.Pi*r.freq*lf+r.phase)
			}
		}
		// Notches.
		for _, n := range notches {
			d2 := (f - n.freq) / n.width
			db -= n.depth * math.Exp(-d2*d2)
		}
		if db < -60 {
			db = -60
		}
		amp[k] = dsp.AmpFromDB(db)
	}
	return firFromAmplitude(amp, nTaps)
}

// firFromAmplitude converts a one-sided amplitude grid (gridN/2+1
// points spanning 0..Nyquist) into a linear-phase FIR of nTaps taps
// via IFFT and windowing.
func firFromAmplitude(amp []float64, nTaps int) []float64 {
	gridN := (len(amp) - 1) * 2
	spec := make([]complex128, gridN)
	for k, a := range amp {
		spec[k] = complex(a, 0)
		if k > 0 && k < gridN/2 {
			spec[gridN-k] = complex(a, 0)
		}
	}
	impulse := dsp.IFFT(spec)
	// Center the (even-symmetric) impulse response and window it.
	taps := make([]float64, nTaps)
	half := nTaps / 2
	for i := -half; i <= half; i++ {
		idx := ((i % gridN) + gridN) % gridN
		taps[i+half] = real(impulse[idx])
	}
	win := dsp.Hamming.Coefficients(nTaps)
	for i := range taps {
		taps[i] *= win[i]
	}
	return taps
}

// TxFilter returns the speaker response FIR at the given sample rate.
func (d Device) TxFilter(sampleRate int) *dsp.FIR {
	return &dsp.FIR{Taps: d.responseTaps(sampleRate, "tx", 257)}
}

// RxFilter returns the microphone response FIR.
func (d Device) RxFilter(sampleRate int) *dsp.FIR {
	return &dsp.FIR{Taps: d.responseTaps(sampleRate, "rx", 257)}
}

// PlacementFilter models everything that differs between two
// nominally-identical deployments of the same hardware: unit-to-unit
// transducer spread, how the phone sits in its pouch, the holder's
// grip, and near-field obstructions. It is the physical reason the
// paper's forward and backward channels differ even with two phones
// of the same model (Fig 3d). The response is a mild ripple (±2 dB)
// with one or two shallow notches, deterministic in the seed.
func PlacementFilter(sampleRate int, seed int64) *dsp.FIR {
	rng := rand.New(rand.NewSource(seed))
	const gridN = 1024
	amp := make([]float64, gridN/2+1)
	type ripple struct{ freq, phase, amp float64 }
	ripples := make([]ripple, 3)
	for i := range ripples {
		ripples[i] = ripple{
			freq:  1 + 3*rng.Float64(),
			phase: 2 * math.Pi * rng.Float64(),
			amp:   0.8 + 1.2*rng.Float64(),
		}
	}
	nNotch := 1 + rng.Intn(2)
	type notch struct{ freq, width, depth float64 }
	notches := make([]notch, nNotch)
	for i := range notches {
		notches[i] = notch{
			freq:  1100 + 2800*rng.Float64(),
			width: 150 + 250*rng.Float64(),
			depth: 2 + 4*rng.Float64(),
		}
	}
	for k := range amp {
		f := float64(k) * float64(sampleRate) / gridN
		db := 0.0
		if f > 100 {
			lf := math.Log10(f)
			for _, r := range ripples {
				db += r.amp * math.Sin(2*math.Pi*r.freq*lf+r.phase)
			}
		}
		for _, n := range notches {
			d2 := (f - n.freq) / n.width
			db -= n.depth * math.Exp(-d2*d2)
		}
		amp[k] = dsp.AmpFromDB(db)
	}
	return &dsp.FIR{Taps: firFromAmplitude(amp, 129)}
}

// Casing models the waterproof enclosure between the device and the
// water (§3 "Testing in deeper waters" and Fig 18).
type Casing int

const (
	// CasingNone: bare device (characterization only).
	CasingNone Casing = iota
	// CasingSoftPouch: the thin PVC pouch used in most experiments;
	// mild flat attenuation.
	CasingSoftPouch
	// CasingHardCase: the polycarbonate 15 m-rated case of Fig 11;
	// stronger attenuation, tilted against high frequencies.
	CasingHardCase
	// CasingSoftPouchAir: soft pouch with trapped air (Fig 18);
	// slightly different ripple but similar mean power in 1-4 kHz.
	CasingSoftPouchAir
)

// String names the casing.
func (c Casing) String() string {
	switch c {
	case CasingNone:
		return "none"
	case CasingSoftPouch:
		return "soft-pouch"
	case CasingHardCase:
		return "hard-case"
	case CasingSoftPouchAir:
		return "soft-pouch-air"
	default:
		return "unknown"
	}
}

// GainDB returns the casing's insertion loss in dB at frequency f.
func (c Casing) GainDB(fHz float64) float64 {
	switch c {
	case CasingSoftPouch:
		return -1.5
	case CasingHardCase:
		// 6 dB base loss plus ~2 dB/kHz tilt above 1 kHz.
		loss := -6.0
		if fHz > 1000 {
			loss -= 2 * (fHz - 1000) / 1000
		}
		return loss
	case CasingSoftPouchAir:
		// Air gap: comparable mean power with extra ripple.
		return -2 + 1.5*math.Sin(2*math.Pi*fHz/900)
	default:
		return 0
	}
}

// Filter returns the casing response as an FIR at the sample rate.
func (c Casing) Filter(sampleRate int) *dsp.FIR {
	const gridN = 1024
	amp := make([]float64, gridN/2+1)
	for k := range amp {
		f := float64(k) * float64(sampleRate) / gridN
		amp[k] = dsp.AmpFromDB(c.GainDB(f))
	}
	return &dsp.FIR{Taps: firFromAmplitude(amp, 129)}
}
