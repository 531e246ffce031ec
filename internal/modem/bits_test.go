package modem

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"aquago/internal/dsp"
)

// equalizerBitsDigests pins FNV-64a digests over math.Float64bits of
// the equalizer taps and the preamble detector's sliding correlation
// for fixed seeded inputs. Their loops may be restructured for speed,
// but not in a way that moves a bit; only a deliberate re-baseline,
// explained per series in the change that makes it, may update them.
var equalizerBitsDigests = map[string]string{
	"TrainEqualizer":     "8e52d9e871c6abcb",
	"SlidingCorrelation": "b67af876329ec5ce",
}

func floatBitsDigest(vs []float64) string {
	buf := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	d := fnv.New64a()
	d.Write(buf)
	return fmt.Sprintf("%016x", d.Sum64())
}

func TestEqualizerBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("bit digests are pinned on amd64; %s may fuse multiply-adds (arm64 does), which changes low-order bits", runtime.GOARCH)
	}
	m := mustModem(t, DefaultConfig())
	rng := rand.New(rand.NewSource(4100))
	ref, err := m.TrainingSymbol(FullBand(m.Config()))
	if err != nil {
		t.Fatal(err)
	}
	taps := make([]float64, 120)
	taps[0], taps[37], taps[119] = 1, -0.5, 0.3
	rx := applyChannel(ref, taps, 0.02, rng)
	// Data after the training symbol lengthens the autocorrelation
	// input; a zero stretch in it carries negative zeros.
	long := append(append([]float64(nil), rx...), applyChannel(ref, taps, 0.02, rng)...)
	for i := len(rx) + 100; i < len(rx)+160; i++ {
		long[i] = math.Copysign(0, -1)
	}
	var trained []float64
	for _, c := range []struct {
		rx           []float64
		nTaps, delay int
	}{
		{rx[:len(ref)], 480, -1}, // delay 60: the last rx samples run out
		{long, 480, -1},
		{long, 200, 0},   // n-j < 0 for the first terms of every lag j > 0
		{rx, 100, 900},   // delay past the training: terms beyond rx drop
		{long, 481, 479}, // an odd tap count
	} {
		eq, err := m.TrainEqualizer(c.rx, ref, c.nTaps, c.delay)
		if err != nil {
			t.Fatal(err)
		}
		trained = append(trained, float64(eq.Delay))
		trained = append(trained, eq.Taps...)
	}

	d := NewDetector(m)
	x := make([]float64, 3*m.PreambleLen())
	for i := range x {
		x[i] = 0.2 * rng.NormFloat64()
	}
	dsp.AddAt(x, m.Preamble(), 1000)
	clear(x[2*m.PreambleLen():]) // silent windows score 0
	var sliding []float64
	for t := -8; t < len(x); t += 37 {
		sliding = append(sliding, d.SlidingCorrelation(x, t))
	}

	got := map[string]string{
		"TrainEqualizer":     floatBitsDigest(trained),
		"SlidingCorrelation": floatBitsDigest(sliding),
	}
	for name, want := range equalizerBitsDigests {
		if got[name] != want {
			t.Errorf("%s bits digest %s, pinned %s", name, got[name], want)
		}
	}
}
