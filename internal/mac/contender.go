package mac

import (
	"math/rand"

	"aquago/internal/sim"
)

// Contender is the incremental form of the carrier-sense MAC for one
// live transmitter. Where RunNetwork steps a whole batch of scripted
// nodes through a simulated schedule, a Contender is driven from
// outside (the public Network's Node.Send) one packet at a time on a
// virtual clock: the caller asks when it may transmit, the contender
// applies the paper's rules — sense every 80 ms, back off a random
// whole number of packet durations when busy, extend the backoff by a
// packet duration whenever the channel is heard busy during it.
//
// All randomness comes from the contender's own seeded source, so a
// node's backoff draws are deterministic regardless of what the rest
// of the network does between its transmissions. The source is seeded
// on the first draw: a contender that never backs off (a node that
// never transmits, or one that always hears an idle channel) carries
// no generator state, and the stream is the same either way.
type Contender struct {
	cfg Config
	rng *rand.Rand
}

// NewContender builds a contender; cfg zero-values take the paper
// defaults (see Config.withDefaults). Acquire consults CarrierSense,
// PacketDurS and Seed; Transmission additionally consults the quiet
// window and PreambleAware.
func NewContender(cfg Config) *Contender {
	cfg = cfg.withDefaults()
	return &Contender{cfg: cfg}
}

// source returns the contender's random source, seeding it from
// cfg.Seed on first use.
func (c *Contender) source() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.cfg.Seed))
	}
	return c.rng
}

// Transmission builds the envelope transmission for a granted
// attempt under this contender's sensing model (the batch engine's
// transmit() applies the identical rules).
func (c *Contender) Transmission(from int, startS, durS float64, seq int) sim.Transmission {
	return transmissionFor(c.cfg, from, startS, durS, seq)
}

// Acquire returns the earliest virtual time >= readyS at which the
// MAC grants a transmission of duration durS (durS <= 0 falls back to
// the configured packet duration), polling busy at the sense cadence.
// ok is false when no grant happens within maxWaitS of readyS
// (maxWaitS <= 0 waits without bound); the returned time then is the
// instant the search gave up.
//
// durS doubles as the backoff quantum — the unit the paper's backoff
// draws and busy-extensions count in. Callers that know the adapted
// band's true airtime can pass it to tighten the backoff (the adaptive
// quanta the public Network exposes as WithAdaptiveBackoff); passing
// the worst-case airtime reproduces the paper's conservative rule.
//
// With cfg.Persist set, the backoff discipline is p-persistent
// slotted access instead: see acquirePPersistent.
func (c *Contender) Acquire(busy func(tS float64) bool, readyS, durS, maxWaitS float64) (startS float64, ok bool) {
	if !c.cfg.CarrierSense {
		return readyS, true
	}
	if c.cfg.Persist > 0 {
		return c.acquirePPersistent(busy, readyS, maxWaitS)
	}
	quantum := durS
	if quantum <= 0 {
		quantum = c.cfg.PacketDurS
	}
	t := readyS
	inBackoff := false
	backoffS := 0.0
	for {
		if maxWaitS > 0 && t-readyS > maxWaitS {
			return t, false
		}
		heard := busy(t)
		switch {
		case !inBackoff:
			if !heard {
				return t, true
			}
			// Draw a backoff in whole packet durations.
			backoffS = float64(1+c.source().Intn(MaxBackoffPackets)) * quantum
			inBackoff = true
		case heard:
			// The paper's rule: a busy channel during backoff extends
			// it by one packet duration, so it cannot elapse while a
			// packet is on the air.
			backoffS += quantum
		default:
			backoffS -= SenseIntervalS
			if backoffS <= 0 {
				return t, true
			}
		}
		t += SenseIntervalS
	}
}

// acquirePPersistent is the p-persistent slotted discipline: sense at
// the usual cadence until the channel is idle, then at each slot
// boundary transmit with probability cfg.Persist or defer one slot
// (cfg.SlotS) and sense again. A channel heard busy again mid-deferral
// simply re-enters the idle wait — there is no accumulated backoff to
// extend, which is exactly why a node behind a busy relay chain gets
// back on the air within a few slots of the channel clearing instead
// of serving a multi-packet penalty. All draws come from the
// contender's seeded source, one per idle slot, so the grant time is a
// deterministic function of the busy history the node observed.
func (c *Contender) acquirePPersistent(busy func(tS float64) bool, readyS, maxWaitS float64) (startS float64, ok bool) {
	t := readyS
	for {
		if maxWaitS > 0 && t-readyS > maxWaitS {
			return t, false
		}
		if busy(t) {
			t += SenseIntervalS
			continue
		}
		if c.source().Float64() <= c.cfg.Persist {
			return t, true
		}
		t += c.cfg.SlotS
	}
}
