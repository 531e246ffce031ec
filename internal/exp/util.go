package exp

import (
	"math/rand"

	"aquago/internal/adapt"
	"aquago/internal/channel"
	"aquago/internal/modem"
	"aquago/internal/phy"
)

// linkSpec describes one measurement configuration.
type linkSpec struct {
	env          channel.Environment
	distanceM    float64
	depthM       float64 // both devices; 0 -> 1 m (the paper's rig)
	motion       channel.Motion
	orientDeg    float64
	casing       channel.Casing
	spacingHz    int // 0 -> 50
	fixedBand    *modem.Band
	dataOpts     modem.DataOptions
	hardDecision bool
	txDevice     channel.Device
	rxDevice     channel.Device
}

// trialStats aggregates protocol results over many packets.
type trialStats struct {
	Results []phy.Result
	// BitratesBPS collects the selected bitrate of each successful
	// band selection.
	BitratesBPS []float64
	// Delivered counts packets decoded without error.
	Delivered int
	// Sent counts attempted packets.
	Sent int
	// CodedErrors/CodedBits accumulate pre-Viterbi statistics.
	CodedErrors, CodedBits int
	// BandLos/BandHis collect selected band edges (subcarrier index).
	BandLos, BandHis []float64
}

// PER returns the packet error rate.
func (s trialStats) PER() float64 {
	if s.Sent == 0 {
		return 0
	}
	return float64(s.Sent-s.Delivered) / float64(s.Sent)
}

// CodedBER returns the pre-Viterbi bit error rate.
func (s trialStats) CodedBER() float64 {
	if s.CodedBits == 0 {
		return 0
	}
	return float64(s.CodedErrors) / float64(s.CodedBits)
}

// runTrials executes `packets` full protocol exchanges over a link
// described by spec and aggregates the outcomes. Each packet sees the
// channel at a later virtual time; every `rePlacePeriod` packets the
// link is rebuilt with a fresh seed, mirroring the paper's procedure
// of re-submerging the phones every 25 packets.
//
// runTrials is the executor behind the parallel engine's measurement
// points (pool.go): it builds its own modem and protocol, derives all
// randomness from the seed argument, and therefore produces the same
// stats no matter which worker runs it. Harnesses should submit
// points through runPoints rather than calling it directly.
func runTrials(spec linkSpec, packets int, seed int64) (trialStats, error) {
	const rePlacePeriod = 25
	var stats trialStats
	rng := rand.New(rand.NewSource(seed))
	var proto *phy.Protocol
	{
		cfg := modem.DefaultConfig()
		if spec.spacingHz != 0 {
			cfg = cfg.WithSpacing(spec.spacingHz)
		}
		m, err := modem.New(cfg)
		if err != nil {
			return stats, err
		}
		proto = phy.New(m, phy.Options{FixedBand: spec.fixedBand, SkipACK: true,
			DataOpts: spec.dataOpts, HardDecision: spec.hardDecision})
	}
	var med *phy.ChannelMedium
	at := 0.0
	for i := 0; i < packets; i++ {
		if med == nil || i%rePlacePeriod == 0 {
			p := channel.LinkParams{
				Env:            spec.env,
				DistanceM:      spec.distanceM,
				TxDepthM:       spec.depthM,
				RxDepthM:       spec.depthM,
				Motion:         spec.motion,
				OrientationDeg: spec.orientDeg,
				Casing:         spec.casing,
				TxDevice:       spec.txDevice,
				RxDevice:       spec.rxDevice,
				Seed:           seed + int64(i/rePlacePeriod)*104729,
			}
			var err error
			med, err = phy.NewChannelMedium(p)
			if err != nil {
				return stats, err
			}
			at = 0
		}
		// Rotate the destination ID: real networks address different
		// users, so PER statistics average over ID-bin luck (a fixed
		// ID whose subcarrier sits in a channel notch would bias the
		// whole run).
		pkt := phy.Packet{
			Dst:     phy.DeviceID(1 + i%(phy.MaxDeviceID-1)),
			Payload: [2]byte{byte(rng.Intn(256)), byte(rng.Intn(256))},
		}
		res, err := proto.Exchange(med, pkt, at)
		if err != nil {
			return stats, err
		}
		at += proto.PacketAirtimeS(res.Band) + 1.0
		stats.Sent++
		stats.Results = append(stats.Results, res)
		if res.Delivered {
			stats.Delivered++
		}
		if res.BandOK {
			stats.BitratesBPS = append(stats.BitratesBPS, res.BitrateBPS)
			stats.BandLos = append(stats.BandLos, float64(res.Band.Lo))
			stats.BandHis = append(stats.BandHis, float64(res.Band.Hi))
		}
		stats.CodedErrors += res.CodedErrors
		stats.CodedBits += res.CodedBits
	}
	return stats, nil
}

// newProtocol builds a default protocol instance over a modem.
func newProtocol(m *modem.Modem) *phy.Protocol {
	return phy.New(m, phy.Options{SkipACK: true})
}

// newSelector returns the paper-parameter band selector.
func newSelector() *adapt.Selector { return adapt.NewSelector() }

// defaultModemConfig returns the paper numerology (test convenience).
func defaultModemConfig() modem.Config {
	cfg := modem.DefaultConfig()
	return cfg
}

// newRng seeds a deterministic random source.
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// newMedium builds a forward/backward medium from a link spec.
func newMedium(spec linkSpec, seed int64) (*phy.ChannelMedium, error) {
	return phy.NewChannelMedium(channel.LinkParams{
		Env:            spec.env,
		DistanceM:      spec.distanceM,
		TxDepthM:       spec.depthM,
		RxDepthM:       spec.depthM,
		Motion:         spec.motion,
		OrientationDeg: spec.orientDeg,
		Casing:         spec.casing,
		TxDevice:       spec.txDevice,
		RxDevice:       spec.rxDevice,
		Seed:           seed,
	})
}

// fixedBands returns the paper's three baseline bands for a config:
// 1-4 kHz (all bins), 1-2.5 kHz, and 1-1.5 kHz.
func fixedBands(cfg modem.Config) []modem.Band {
	nb := cfg.NumBins()
	return []modem.Band{
		{Lo: 0, Hi: nb - 1},   // 3 kHz wide
		{Lo: 0, Hi: nb/2 - 1}, // 1.5 kHz wide
		{Lo: 0, Hi: nb/6 - 1}, // 0.5 kHz wide
	}
}

// fixedBandNames labels the baselines as the paper does.
var fixedBandNames = []string{"fixed 3 kHz (1-4 kHz)", "fixed 1.5 kHz (1-2.5 kHz)", "fixed 0.5 kHz (1-1.5 kHz)"}
