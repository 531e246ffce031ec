package aquago

import "aquago/internal/dsp"

// waveSlot adapts one exchange (a transmits to b) onto the network's
// shared WaveBank, satisfying phy.Medium with waveform-true
// contention: every stage's transmit waveform is registered on the
// air, and every receive window is the direct signal through the pair
// link plus all audible foreign transmissions, convolved through
// their own channels and delayed by propagation, plus one dose of
// ambient noise. Each window's direct-signal and summed-interference
// powers feed the network's SIR probe (WithSIRProbe).
//
// The transmit queue's dispatch gate guarantees that while this
// exchange runs, no concurrent exchange shares a node with it or sits
// within carrier-sense range — so the pair links (and every
// interferer link into a or b) are exclusively ours, and whatever a
// concurrent out-of-range exchange registers is filtered from our
// windows by the same range bound. The interference each window hears
// is therefore exactly the committed traffic of the gate's
// predecessors, independent of worker count.
type waveSlot struct {
	net      *Network
	a, b     int
	aID, bID DeviceID
}

// Forward carries a -> b at virtual time atS.
func (ws *waveSlot) Forward(tx []float64, atS float64) []float64 {
	return ws.carry(ws.a, ws.b, tx, atS)
}

// Backward carries b -> a at virtual time atS.
func (ws *waveSlot) Backward(tx []float64, atS float64) []float64 {
	return ws.carry(ws.b, ws.a, tx, atS)
}

func (ws *waveSlot) carry(from, to int, tx []float64, atS float64) []float64 {
	bank := ws.net.bank
	bank.Add(from, atS, 0, tx)
	l, err := bank.Link(from, to)
	if err != nil {
		// Both endpoints were validated at Send entry; an unbuildable
		// link here means the pair degenerated (cannot happen through
		// the public API). Return silence: the exchange reports the
		// stage as lost.
		return make([]float64, len(tx))
	}
	out := l.TransmitAt(tx, atS)
	// The direct signal's received power, before anything is mixed in —
	// the numerator of the window's SIR.
	sigPower := dsp.Power(out)
	// out[0] sits at the direct signal's arrival instant; interferers
	// land at their own arrival times relative to it.
	baseS := atS + bank.DelayS(from, to)
	intPower, err := bank.Interference(out, to, baseS, ws.net.cfg.csRangeM, ws.a, ws.b)
	if err != nil {
		return out
	}
	bank.AmbientNoise(out, to, baseS)
	if probe := ws.net.cfg.sirProbe; probe != nil {
		ws.net.traceMu.Lock()
		//aqualint:callback-under-lock WithSIRProbe documents the hook as serialized, quick, and never re-entering the network; traceMu is the leaf of the lock order and only serializes delivery
		probe(SIRSample{
			Tx: ws.idOf(from), Rx: ws.idOf(to), AtS: baseS,
			SignalPower: sigPower, InterferencePower: intPower,
		})
		ws.net.traceMu.Unlock()
	}
	return out
}

// idOf maps the slot's endpoint indices to device IDs (captured at
// Send entry; the pair cannot change mid-exchange).
func (ws *waveSlot) idOf(idx int) DeviceID {
	if idx == ws.a {
		return ws.aID
	}
	return ws.bID
}
