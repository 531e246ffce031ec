package channel

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// directNoise is the reference for NoiseGen's shaping: the coloring
// filter in direct form, one output at a time, with its input history
// carried across calls. It draws the same white samples from the same
// seed as a NoiseGen over an environment with no tonal or impulsive
// noise, whose output is then exactly the shaped white noise scaled to
// the target level.
type directNoise struct {
	taps  []float64
	hist  []float64 // last len(taps)-1 inputs
	rng   *rand.Rand
	scale float64
}

func newDirectNoise(g *NoiseGen, seed int64) *directNoise {
	taps := noiseShapeTaps(g.sampleRate)
	return &directNoise{
		taps:  taps,
		hist:  make([]float64, len(taps)-1),
		rng:   rand.New(rand.NewSource(seed)),
		scale: g.levelRMS / g.shape.calib,
	}
}

func (d *directNoise) generate(n int) []float64 {
	ext := append([]float64(nil), d.hist...)
	for range n {
		ext = append(ext, d.rng.NormFloat64())
	}
	nt := len(d.taps)
	out := make([]float64, n)
	for i := range out {
		var acc float64
		for j, t := range d.taps {
			acc += t * ext[i+nt-1-j]
		}
		out[i] = acc * d.scale
	}
	copy(d.hist, ext[n:])
	return out
}

// plainNoiseEnv is env without its tonal and impulsive components, so
// a NoiseGen's output is its shaped background alone.
func plainNoiseEnv(env Environment) Environment {
	env.TonalHz, env.Impulsive = nil, 0
	return env
}

// checkNoiseChunks feeds the chunk lengths through one generator and
// one direct-form reference and requires them to agree within 1e-12 of
// the run's output peak. The peak is floored at the output's expected
// RMS, so a run of a sample or two that happens to land near zero does
// not set a vanishing bar.
func checkNoiseChunks(t testing.TB, seed int64, chunks []int) {
	t.Helper()
	g := NewNoiseGen(plainNoiseEnv(Lake), 48000, seed)
	ref := newDirectNoise(g, seed)
	var energy float64
	for _, v := range ref.taps {
		energy += v * v
	}
	peak := ref.scale * math.Sqrt(energy)
	var worst float64
	worstChunk := -1
	for ci, n := range chunks {
		got, want := g.Generate(n), ref.generate(n)
		if len(got) != n {
			t.Fatalf("chunk %d (n=%d): %d samples", ci, n, len(got))
		}
		for i := range want {
			peak = max(peak, math.Abs(want[i]))
			if d := math.Abs(got[i] - want[i]); d > worst {
				worst, worstChunk = d, ci
			}
		}
	}
	if worst > 1e-12*peak {
		t.Fatalf("chunks %v: chunk %d differs from the direct FIR by %g (peak %g)", chunks, worstChunk, worst, peak)
	}
}

// noiseBlockEdges are chunk lengths at the edges of the history and of
// the convolver's 1,920-sample input block (2,048-point transforms for
// the 129-tap filter), which a chunk meets both on its own and behind
// the 128 history samples (1,792 + 128 = 1,920), plus a receive window
// and a second of audio.
var noiseBlockEdges = []int{1, 127, 128, 129, 1791, 1792, 1793, 1919, 1920, 1921, 9650, 48000}

func TestNoiseShapingMatchesDirectFIR(t *testing.T) {
	for _, n := range noiseBlockEdges {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			checkNoiseChunks(t, int64(n), []int{n})
		})
	}
	// One generator across every length, so the history crosses calls
	// of every size.
	t.Run("mixed", func(t *testing.T) {
		checkNoiseChunks(t, 7, []int{1, 1920, 127, 9650, 128, 1, 1921, 129, 1919, 3, 48000, 2})
	})
}

// FuzzNoiseShapingMatchesDirect runs fuzzed sequences of chunk lengths
// through one generator against the direct-form filter. The seed
// corpus in testdata/fuzz holds the block edges above, alone and mixed.
func FuzzNoiseShapingMatchesDirect(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, enc []byte) {
		// Each little-endian pair of bytes is one chunk length, capped
		// so a case stays under 60,000 samples in all.
		var chunks []int
		total := 0
		for i := 0; i+1 < len(enc) && len(chunks) < 16; i += 2 {
			n := int(binary.LittleEndian.Uint16(enc[i:]))
			if total+n > 60000 {
				break
			}
			chunks = append(chunks, n)
			total += n
		}
		checkNoiseChunks(t, seed, chunks)
	})
}

// noiseRun draws a fixed sequence of chunks from a generator: Generate
// for some, AddTo onto a seeded signal for the others.
func noiseRun(env Environment, seed int64) [][]float64 {
	g := NewNoiseGen(env, 48000, seed)
	sig := rand.New(rand.NewSource(seed + 1))
	var outs [][]float64
	for i, n := range []int{1, 127, 1920, 9650, 128, 1921, 300, 48000, 1919} {
		if i%2 == 0 {
			outs = append(outs, g.Generate(n))
			continue
		}
		dst := make([]float64, n)
		for j := range dst {
			dst[j] = 0.1 * sig.NormFloat64()
		}
		g.AddTo(dst)
		outs = append(outs, dst)
	}
	return outs
}

func TestNoiseGenConcurrentMatchesSerial(t *testing.T) {
	const workers = 8
	serial := make([][][]float64, workers)
	for w := range serial {
		serial[w] = noiseRun(Lake, int64(w))
	}
	parallel := make([][][]float64, workers)
	var wg sync.WaitGroup
	for w := range parallel {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parallel[w] = noiseRun(Lake, int64(w))
		}()
	}
	wg.Wait()
	for w := range serial {
		for c := range serial[w] {
			for i, v := range serial[w][c] {
				if math.Float64bits(parallel[w][c][i]) != math.Float64bits(v) {
					t.Fatalf("worker %d chunk %d sample %d: %v concurrently, %v serially", w, c, i, parallel[w][c][i], v)
				}
			}
		}
	}
}

// noiseDigests pins the raw output bits of noiseRun at two sites, one
// with tonal and impulsive noise (Lake) and the quietest (Bridge).
var noiseDigests = map[string]string{
	"lake":   "db47884fb58ac6fe",
	"bridge": "1c0a06883c74c623",
}

// skipOffAMD64 skips a bit-pinning test on other architectures: arm64
// builds fuse multiply-adds, which changes low-order bits, so the
// digests are taken on amd64 (which fuses none at any GOAMD64 level).
func skipOffAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("bit digests are pinned on amd64; %s may fuse multiply-adds (arm64 does), which changes low-order bits", runtime.GOARCH)
	}
}

func TestNoiseBitsPinned(t *testing.T) {
	skipOffAMD64(t)
	for _, env := range []Environment{Lake, Bridge} {
		h := fnv.New64a()
		var b [8]byte
		for _, out := range noiseRun(env, 3) {
			for _, v := range out {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
		got := fmt.Sprintf("%016x", h.Sum64())
		if got != noiseDigests[env.Name] {
			t.Errorf("%s noise digest %s, pinned %s", env.Name, got, noiseDigests[env.Name])
		}
	}
}

func TestNoiseAddToAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	g := NewNoiseGen(Lake, 48000, 1)
	dst := make([]float64, 9650)
	g.AddTo(dst)
	if allocs := testing.AllocsPerRun(50, func() { g.AddTo(dst) }); allocs > 1 {
		t.Fatalf("AddTo of %d samples costs %.1f allocs, want <= 1", len(dst), allocs)
	}
}

func BenchmarkNoiseAddTo(b *testing.B) {
	for _, n := range []int{9650, 48000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			g := NewNoiseGen(Lake, 48000, 1)
			dst := make([]float64, n)
			b.ReportAllocs()
			for b.Loop() {
				g.AddTo(dst)
			}
		})
	}
}
