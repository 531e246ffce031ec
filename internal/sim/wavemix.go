package sim

import (
	"fmt"
	"slices"
	"sync"

	"aquago/internal/channel"
	"aquago/internal/dsp"
)

// waveTailS is the allowance for channel reverberation past a
// transmission's nominal end: a wave keeps smearing into a receiver's
// ear for roughly the impulse-response length after its last sample.
const waveTailS = 0.2

// WaveTransmission attaches a waveform to an envelope transmission so
// a receiver can be given the superposition of everything on the air —
// concurrent packets interfere exactly as colliding sound does.
type WaveTransmission struct {
	Transmission
	Samples []float64
}

// WaveBank is the sample-level half of the shared medium: it stores
// the waveform of every transmission and mixes, on demand, what any
// node hears over a window — each wave convolved through its directed
// (tx, rx) channel link, delayed by propagation, and summed. Unlike
// WaveMedium it does no envelope accounting of its own, so callers
// (the public Network's waveform contention mode) can keep envelope
// collision bookkeeping at one entry per packet while registering one
// wave per protocol stage.
//
// All methods are safe for concurrent use with one caveat: the
// per-pair channel links it convolves through are stateful, and a
// link into receiver r is touched by every mix for r. Two concurrent
// mixes are only safe when their receivers cannot hear a common
// transmitter — the exact condition the Network's dispatch gate
// enforces before letting exchanges run in parallel.
type WaveBank struct {
	med        *Medium
	links      *Links
	sampleRate int
	seed       int64

	mu    sync.Mutex
	waves []WaveTransmission
}

// NewWaveBank builds a bank over the medium's node geometry. Links are
// built noise-off; ambient noise is added once per receive window
// (AmbientNoise), not once per interfering wave.
func NewWaveBank(med *Medium, sampleRate int, seed int64) *WaveBank {
	return &WaveBank{
		med:        med,
		links:      NewLinks(med, sampleRate, seed, true),
		sampleRate: sampleRate,
		seed:       seed,
	}
}

// Sync runs fn while holding the bank's lock. The owning network uses
// it to mutate shared geometry (Medium.AddNode, SetEndpoint) that
// concurrent mixes read.
func (wb *WaveBank) Sync(fn func()) {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	fn()
}

// SetEndpoint records a node's acoustic properties for future links
// (see Links.SetEndpoint). Call inside Sync when joins can race mixes.
func (wb *WaveBank) SetEndpoint(node int, ep Endpoint) {
	wb.links.SetEndpoint(node, ep)
}

// InvalidateNode drops the bank's cached links touching the node (see
// Links.InvalidateNode). Call inside Sync when moves can race mixes.
func (wb *WaveBank) InvalidateNode(node int) {
	wb.links.InvalidateNode(node)
}

// Add registers a transmitted waveform starting at startS. DurS is
// derived from the sample count; the samples are retained by reference
// and must not be mutated afterwards.
func (wb *WaveBank) Add(from int, startS float64, seq int, samples []float64) {
	dur := float64(len(samples)) / float64(wb.sampleRate)
	wb.mu.Lock()
	defer wb.mu.Unlock()
	wb.waves = append(wb.waves, WaveTransmission{
		Transmission: Transmission{From: from, StartS: startS, DurS: dur, Seq: seq},
		Samples:      samples,
	})
}

// Link returns (building on first use) the directed noise-free channel
// from tx to rx, guarding the shared cache.
func (wb *WaveBank) Link(tx, rx int) (*channel.Link, error) {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	return wb.links.Link(tx, rx)
}

// DelayS returns the propagation delay between nodes, reading geometry
// under the bank's lock (safe against concurrent joins).
func (wb *WaveBank) DelayS(a, b int) float64 {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	return wb.med.DelayS(a, b)
}

// interferer is one wave scheduled into a mix: resolved link, source
// wave and sample offset of its arrival relative to the window start
// (possibly negative for waves already in flight).
type interferer struct {
	link *channel.Link
	wt   WaveTransmission
	off  int
}

// Interference accumulates into out everything node rx hears over the
// absolute-time window starting at baseS (out's length sets the window
// duration): every stored wave audible at rx — excluding waves radiated
// by rx itself, by any node in exclude, or (when rangeM > 0) by nodes
// farther than rangeM — convolved through its (from, rx) link and
// offset by propagation delay. Use rangeM 0 for unlimited audibility.
//
// The returned power is the mean square, over the window, of the
// summed interference that was added (0 when nothing audible
// overlapped it) — the per-window interferer power accounting behind
// capture-effect SIR studies: signal power over interference power at
// the receiver's ear, not at the transmitters.
//
// The direct signal of an exchange is normally carried by the pair
// link itself; callers exclude both exchange endpoints and let the
// bank contribute only foreign interference.
func (wb *WaveBank) Interference(out []float64, rx int, baseS, rangeM float64, exclude ...int) (power float64, err error) {
	fs := float64(wb.sampleRate)
	durS := float64(len(out)) / fs
	wb.mu.Lock()
	var hits []interferer
	for _, wt := range wb.waves {
		if wt.From == rx || slices.Contains(exclude, wt.From) {
			continue
		}
		if rangeM > 0 && wb.med.positions[wt.From].DistanceTo(wb.med.positions[rx]) > rangeM {
			continue
		}
		d := wb.med.DelayS(wt.From, rx)
		arriveS := wt.StartS + d
		if arriveS+wt.DurS+waveTailS <= baseS || arriveS >= baseS+durS {
			continue
		}
		l, err := wb.links.Link(wt.From, rx)
		if err != nil {
			wb.mu.Unlock()
			return 0, err
		}
		hits = append(hits, interferer{link: l, wt: wt, off: int((arriveS - baseS) * fs)})
	}
	wb.mu.Unlock()
	if len(hits) == 0 {
		return 0, nil
	}
	// Sum in (start, transmitter) order, not store order: concurrent
	// out-of-range exchanges append to wb.waves in wall-clock order,
	// and float addition is non-associative — a virtual-time order
	// keeps every window's samples bit-identical across schedules.
	slices.SortStableFunc(hits, func(a, b interferer) int {
		if a.wt.StartS != b.wt.StartS {
			if a.wt.StartS < b.wt.StartS {
				return -1
			}
			return 1
		}
		return a.wt.From - b.wt.From
	})
	// Convolve outside the lock: each link here points into rx, and the
	// caller guarantees no concurrent mix shares an audible transmitter
	// with this one (see the type comment), so the link state is ours.
	// The power measured is that of the *summed* interference — the
	// per-wave contributions are not what competes with the direct
	// signal once they overlap. With one interferer (the common case)
	// its received wave is the sum, windowed to out; several interferers
	// sum into a scratch window first.
	if len(hits) == 1 {
		h := hits[0]
		rxWave := h.link.TransmitAt(h.wt.Samples, h.wt.StartS)
		dsp.AddAt(out, rxWave, h.off)
		return windowPower(rxWave, h.off, len(out)), nil
	}
	mix := make([]float64, len(out))
	for _, h := range hits {
		rxWave := h.link.TransmitAt(h.wt.Samples, h.wt.StartS)
		dsp.AddAt(mix, rxWave, h.off)
	}
	dsp.Add(out, mix)
	return dsp.Power(mix), nil
}

// windowPower is the mean square, over a window of n samples, of a
// wave placed at offset off into it (samples outside the window count
// as the zeros they contribute).
func windowPower(wave []float64, off, n int) float64 {
	if n == 0 {
		return 0
	}
	lo, hi := 0, len(wave)
	if off < 0 {
		lo = -off
	}
	if off+hi > n {
		hi = n - off
	}
	var sum float64
	for i := lo; i < hi; i++ {
		sum += wave[i] * wave[i]
	}
	return sum / float64(n)
}

// AmbientNoise adds one dose of the site's ambient noise to a receive
// window, seeded by (receiver, window start) so identical windows get
// identical realizations regardless of scheduling.
func (wb *WaveBank) AmbientNoise(out []float64, rx int, baseS float64) {
	ng := channel.NewNoiseGen(wb.med.env, wb.sampleRate, wb.seed^int64(rx)^int64(baseS*1000))
	dsp.Add(out, ng.Generate(len(out)))
}

// Prune drops waves that can no longer reach any receiver at or after
// horizonS (end + worst-case propagation + channel tail), bounding the
// retained sample memory under sustained traffic. The caller
// guarantees no future mix window starts before horizonS. Note that a
// receiver's window times are set by its *transmitter's* timeline —
// any node may address any audible receiver — so the horizon must be
// the minimum over every node's earliest possible transmit time, not
// just over plausible receivers.
func (wb *WaveBank) Prune(horizonS float64) {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	maxDelay := wb.med.maxDelayS()
	kept := wb.waves[:0]
	for _, wt := range wb.waves {
		if wt.EndS()+maxDelay+waveTailS <= horizonS {
			continue
		}
		kept = append(kept, wt)
	}
	// Zero the dropped tail so the backing array releases its sample
	// slices to the GC.
	for i := len(kept); i < len(wb.waves); i++ {
		wb.waves[i] = WaveTransmission{}
	}
	wb.waves = kept
}

// NumWaves reports how many waveforms the bank currently retains.
func (wb *WaveBank) NumWaves() int {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	return len(wb.waves)
}

// WaveMedium mixes transmissions into per-receiver audio using one
// channel link per (tx, rx) pair: the envelope medium plus a WaveBank,
// with every TransmitWave registered in both (one envelope entry and
// one wave per call).
type WaveMedium struct {
	*Medium
	sampleRate int
	bank       *WaveBank
}

// NewWaveMedium wraps a medium for waveform mixing.
func NewWaveMedium(env channel.Environment, sampleRate int, seed int64) *WaveMedium {
	med := New(env)
	return &WaveMedium{
		Medium:     med,
		sampleRate: sampleRate,
		bank:       NewWaveBank(med, sampleRate, seed),
	}
}

// TransmitWave registers a transmission with its waveform. DurS is
// derived from the sample count.
func (w *WaveMedium) TransmitWave(from int, startS float64, seq int, samples []float64) {
	dur := float64(len(samples)) / float64(w.sampleRate)
	w.Transmit(Transmission{From: from, StartS: startS, DurS: dur, Seq: seq})
	w.bank.Add(from, startS, seq, samples)
}

// ReceiveWindow renders what node rx hears during [fromS, toS): all
// audible transmissions convolved through their pairwise channels,
// delayed by propagation, summed, plus one dose of ambient noise.
func (w *WaveMedium) ReceiveWindow(rx int, fromS, toS float64) ([]float64, error) {
	if toS <= fromS {
		return nil, fmt.Errorf("sim: empty window [%g, %g)", fromS, toS)
	}
	n := int((toS - fromS) * float64(w.sampleRate))
	out := make([]float64, n)
	if _, err := w.bank.Interference(out, rx, fromS, 0); err != nil {
		return nil, err
	}
	w.bank.AmbientNoise(out, rx, fromS)
	return out, nil
}
