// Package aquago is a from-scratch Go implementation of AquaApp, the
// software-only underwater acoustic messaging system for commodity
// mobile devices from "Underwater Messaging Using Mobile Devices"
// (SIGCOMM 2022). It provides:
//
//   - the 1-4 kHz OFDM modem with CAZAC/PN preambles, per-subcarrier
//     SNR estimation, time-domain MMSE equalization and differential
//     BPSK (internal/modem),
//   - the frequency band adaptation algorithm and its two-tone
//     feedback symbol (internal/adapt),
//   - the packet protocol with post-preamble feedback, ID/ACK tones
//     and retransmission (internal/phy, internal/app),
//   - the long-range FSK SoS beacon (5/10/20 bps),
//   - a carrier-sense MAC and multi-node acoustic medium
//     (internal/mac, internal/sim),
//   - and the underwater channel simulator standing in for the
//     paper's six field sites (internal/channel).
//
// Three usage styles are supported. The signal-level API (Modem)
// turns packets into audio sample buffers and back — suitable for
// feeding a real speaker/microphone pair or WAV files. The session
// API (Dial) runs the full adaptive protocol, including the feedback
// round, between two endpoints over any Medium (most commonly the
// simulated water of SimulatedWater). The network API (NewNetwork,
// Network.Join, Node.Send) scales that to N devices contending for
// one shared body of water through the carrier-sense MAC, with
// per-pair channels derived from node geometry; the two-endpoint
// session is its 2-node special case. Collisions either count against
// envelope statistics (the default fast path) or corrupt the actual
// received samples (WithContentionMode(WaveformContention)), and
// non-interfering exchanges run in parallel, dispatched by the
// transmit queue's conflict gate (WithNetworkWorkers). Above the MAC, the network routes
// and relays: Network.Route picks multi-hop paths over the
// carrier-sense audibility graph (WithRouting: min-hop or ETX-style
// channel-quality weighting), Network.SendVia walks an explicit path
// store-and-forward, and Node.SendBulk streams arbitrary payloads
// down the routed path with per-packet band re-adaptation.
//
// Failures across the surface wrap the typed taxonomy in errors.go
// (ErrNoACK, ErrChannelBusy, ErrDecodeFailed, ...) for errors.Is, and
// per-stage protocol visibility is available through the Trace
// interface (SetTrace, WithNodeTrace, WithNetworkTrace).
package aquago

import (
	"fmt"

	"aquago/internal/adapt"
	"aquago/internal/app"
	"aquago/internal/audio"
	"aquago/internal/channel"
	"aquago/internal/dsp"
	"aquago/internal/modem"
	"aquago/internal/phy"
)

// Re-exported core types. Aliases keep the public surface in one
// import while the implementation stays in focused internal packages.
type (
	// Message is one of the 240 canned hand-signal messages.
	Message = app.Message
	// Category is a message category (8 in total).
	Category = app.Category
	// Band is a contiguous range of OFDM subcarriers.
	Band = modem.Band
	// DeviceID addresses one of up to 60 devices in a local network.
	DeviceID = phy.DeviceID
	// Packet is a 16-bit-payload protocol packet.
	Packet = phy.Packet
	// Result reports the outcome of one adaptive packet exchange.
	Result = phy.Result
	// Environment describes a deployment site for simulation.
	Environment = channel.Environment
	// Device models a phone/watch acoustic front end.
	Device = channel.Device
	// Motion describes device movement for simulation.
	Motion = channel.Motion
	// Medium carries waveforms between two protocol endpoints.
	Medium = phy.Medium
)

// Simulation presets, re-exported from the channel package.
var (
	// The paper's six field sites.
	Bridge, Park, Lake, Beach, Museum, Bay = channel.Bridge, channel.Park,
		channel.Lake, channel.Beach, channel.Museum, channel.Bay
	// The paper's four evaluation devices.
	GalaxyS9, Pixel4, OnePlus8Pro, GalaxyWatch4 = channel.GalaxyS9,
		channel.Pixel4, channel.OnePlus8Pro, channel.GalaxyWatch4
	// Motion presets (static / 2.5 m/s^2 / 5.1 m/s^2).
	Static, SlowMotion, FastMotion = channel.Static, channel.SlowMotion,
		channel.FastMotion
)

// Codebook returns the 240-message codebook in ID order.
func Codebook() []Message { return app.Messages() }

// CommonMessages returns the 20 most common hand signals.
func CommonMessages() []Message { return app.Common() }

// LookupMessage finds a message by exact text.
func LookupMessage(text string) (Message, bool) { return app.ByText(text) }

// SearchMessages finds messages containing the query.
func SearchMessages(query string) []Message { return app.Search(query) }

// Modem is the signal-level API: packets to audio samples and back,
// on a fixed pre-agreed band (no feedback round). Use Dial for the
// adaptive protocol.
type Modem struct {
	m    *modem.Modem
	shot *phy.OneShot
}

// ModemOption customizes NewModem.
type ModemOption func(*modemConfig)

type modemConfig struct {
	spacing int
	band    *Band
}

// WithSpacing selects the OFDM subcarrier spacing in Hz (50, 25 or
// 10; default 50).
func WithSpacing(hz int) ModemOption {
	return func(c *modemConfig) { c.spacing = hz }
}

// WithBand fixes the transmission band (subcarrier indices, inclusive;
// default: all 60 subcarriers).
func WithBand(lo, hi int) ModemOption {
	return func(c *modemConfig) { c.band = &Band{Lo: lo, Hi: hi} }
}

// NewModem builds a signal-level modem with the paper's default
// numerology (48 kHz sampling, 1-4 kHz band).
func NewModem(opts ...ModemOption) (*Modem, error) {
	mc := modemConfig{spacing: modem.DefaultSpacingHz}
	for _, o := range opts {
		o(&mc)
	}
	cfg := modem.DefaultConfig().WithSpacing(mc.spacing)
	m, err := modem.New(cfg)
	if err != nil {
		return nil, err
	}
	band := modem.FullBand(cfg)
	if mc.band != nil {
		band = *mc.band
	}
	shot, err := phy.NewOneShot(m, band)
	if err != nil {
		return nil, err
	}
	return &Modem{m: m, shot: shot}, nil
}

// SampleRate returns the audio sample rate (48 kHz).
func (mo *Modem) SampleRate() int { return mo.m.Config().SampleRate }

// Band returns the modem's fixed transmission band.
func (mo *Modem) Band() Band { return mo.shot.Band }

// BitrateBPS returns the information bit rate of the fixed band.
func (mo *Modem) BitrateBPS() float64 {
	return adapt.BitrateBPS(mo.shot.Band, mo.m.Config(), 2.0/3.0)
}

// EncodeMessages builds the transmit waveform carrying one or two
// codebook messages for dst. Pass app.NoMessage (0xFF) as second for
// a single message.
func (mo *Modem) EncodeMessages(dst DeviceID, first, second uint8) ([]float64, error) {
	payload, err := app.PackPair(first, second)
	if err != nil {
		return nil, err
	}
	return mo.shot.Encode(phy.Packet{Dst: dst, Payload: payload})
}

// DecodeMessages searches rx for a packet addressed to self (or any
// packet when self < 0) and returns the carried messages.
func (mo *Modem) DecodeMessages(rx []float64, self DeviceID) ([]Message, bool) {
	dec, ok := mo.shot.Decode(rx, self)
	if !ok {
		return nil, false
	}
	msgs, err := app.DecodePayload(dec.Packet.Payload)
	if err != nil {
		return nil, false
	}
	return msgs, true
}

// EncodeToWAV renders an encoded waveform into a WAV file at path,
// normalized to 0.9 peak amplitude.
func (mo *Modem) EncodeToWAV(path string, dst DeviceID, first, second uint8) error {
	wave, err := mo.EncodeMessages(dst, first, second)
	if err != nil {
		return err
	}
	// Normalize for playback headroom.
	return audio.WriteWAVFile(path, dsp.Normalize(wave, 0.9), mo.SampleRate())
}

// DecodeFromWAV reads a WAV file and decodes the first packet in it.
func (mo *Modem) DecodeFromWAV(path string, self DeviceID) ([]Message, error) {
	samples, rate, err := audio.ReadWAVFile(path)
	if err != nil {
		return nil, err
	}
	if rate != mo.SampleRate() {
		return nil, fmt.Errorf("aquago: WAV sample rate %d, need %d", rate, mo.SampleRate())
	}
	msgs, ok := mo.DecodeMessages(samples, self)
	if !ok {
		return nil, fmt.Errorf("%w in %s", ErrDecodeFailed, path)
	}
	return msgs, nil
}
