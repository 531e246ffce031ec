package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randReal(n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if e := math.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func TestConvolveMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// Sizes straddling the FFT crossover.
	cases := [][2]int{{1, 1}, {5, 3}, {63, 64}, {64, 64}, {100, 200}, {500, 129}, {1000, 480}}
	for _, c := range cases {
		a := randReal(c[0], rng)
		b := randReal(c[1], rng)
		want := convolveDirect(a, b)
		got := Convolve(a, b)
		if len(got) != len(want) {
			t.Fatalf("size %v: got len %d want %d", c, len(got), len(want))
		}
		if e := maxAbsDiff(got, want); e > 1e-8 {
			t.Errorf("size %v: max err %g", c, e)
		}
	}
}

func TestConvolveCommutativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(na, nb uint8) bool {
		a := randReal(int(na%200)+1, rng)
		b := randReal(int(nb%200)+1, rng)
		ab := Convolve(a, b)
		ba := Convolve(b, a)
		return maxAbsDiff(ab, ba) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestConvolveIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := randReal(300, rng)
	got := Convolve(x, []float64{1})
	if maxAbsDiff(got, x) > 1e-12 {
		t.Fatal("convolution with unit impulse is not identity")
	}
	// Delayed impulse shifts the signal.
	delayed := Convolve(x, []float64{0, 0, 1})
	for i := range x {
		if math.Abs(delayed[i+2]-x[i]) > 1e-12 {
			t.Fatal("convolution with delayed impulse does not shift")
		}
	}
}

func TestConvolveEmpty(t *testing.T) {
	if Convolve(nil, []float64{1}) != nil {
		t.Fatal("nil input should give nil output")
	}
	if Convolve([]float64{1}, nil) != nil {
		t.Fatal("nil kernel should give nil output")
	}
}

// checkOverlapAdd compares oa.Apply(x) with Convolve within 1e-9 of
// the output's peak.
func checkOverlapAdd(t testing.TB, oa *OverlapAdd, kernel, x []float64) {
	t.Helper()
	want := Convolve(x, kernel)
	got := oa.Apply(x)
	if len(got) != len(want) {
		t.Fatalf("nk=%d nx=%d: len %d want %d", len(kernel), len(x), len(got), len(want))
	}
	if e, peak := maxAbsDiff(got, want), MaxAbs(want); e > 1e-9*peak {
		t.Errorf("nk=%d nx=%d: max err %g, peak %g", len(kernel), len(x), e, peak)
	}
}

// overlapAddLengths returns input lengths for oa's kernel: short
// inputs, the channel's transmissions (a feedback symbol or ACK of
// 1,027 samples, two symbols, preamble plus header of 8,707 and a
// longer 13,351), the edges of oa's block, and inputs whose outputs
// fall one sample either side of 4,096 and 8,192, where the per-call
// transform size steps.
func overlapAddLengths(oa *OverlapAdd) []int {
	nk := oa.KernelLen()
	ns := []int{1, 100, 1027, 2054, 8707, 13351, oa.block - 1, oa.block, oa.block + 1}
	for _, out := range []int{4095, 4096, 4097, 8191, 8192, 8193} {
		if nx := out - nk + 1; nx >= 1 {
			ns = append(ns, nx)
		}
	}
	return ns
}

func TestOverlapAddMatchesConvolve(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, nk := range []int{1, 5, 67, 128, 480} {
		kernel := randReal(nk, rng)
		oa := NewOverlapAdd(kernel)
		for _, nx := range []int{1, 100, 1000, 5000} {
			checkOverlapAdd(t, oa, kernel, randReal(nx, rng))
		}
	}
	// The lake links' composite responses run 1,385 to 2,013 taps.
	for _, nk := range []int{1385, 2013} {
		kernel := randReal(nk, rng)
		oa := NewOverlapAdd(kernel)
		for _, nx := range overlapAddLengths(oa) {
			checkOverlapAdd(t, oa, kernel, randReal(nx, rng))
		}
	}
}

// TestApplyPairToMatchesApplyTo checks that the shared forward
// transform changes no bit: ApplyPairTo must equal two independent
// ApplyTo calls under math.Float64bits, whether the pair shares a
// transform size (a crossfaded channel's two realizations), picks two
// sizes, or runs the block loop. The destination buffers carry stale
// samples from a longer call.
func TestApplyPairToMatchesApplyTo(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := []struct {
		name   string
		na, nb int
		nx     []int
	}{
		// Both outputs fit 2,048 and 4,096 points: one shared forward.
		{"equal sizes", 1741, 1745, []int{1, 300, 1027, 2054}},
		// 2,712 + 1,384 = 4,096 points against 2,712 + 2,012 = 4,724.
		{"unequal sizes", 1385, 2013, []int{2712, 1027}},
		// Past one convolver's block or both.
		{"multi-segment", 1385, 2013, []int{14373, 15001, 30000}},
	}
	for _, c := range cases {
		ka, kb := randReal(c.na, rng), randReal(c.nb, rng)
		a, b := NewOverlapAdd(ka), NewOverlapAdd(kb)
		refA, refB := NewOverlapAdd(ka), NewOverlapAdd(kb)
		stale := randReal(40000, rng)
		dstA, dstB := append([]float64(nil), stale...), append([]float64(nil), stale...)
		for _, nx := range c.nx {
			x := randReal(nx, rng)
			dstA, dstB = ApplyPairTo(a, b, dstA, dstB, x)
			for _, r := range []struct {
				got  []float64
				ref  *OverlapAdd
				side string
			}{{dstA, refA, "a"}, {dstB, refB, "b"}} {
				want := r.ref.Apply(x)
				if len(r.got) != len(want) {
					t.Fatalf("%s nx=%d %s: len %d want %d", c.name, nx, r.side, len(r.got), len(want))
				}
				for i := range want {
					if math.Float64bits(r.got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s nx=%d %s: sample %d is %g, ApplyTo gives %g", c.name, nx, r.side, i, r.got[i], want[i])
					}
				}
			}
		}
	}
}

func TestOverlapAddReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	kernel := randReal(100, rng)
	oa := NewOverlapAdd(kernel)
	x1 := randReal(777, rng)
	x2 := randReal(333, rng)
	got1a := oa.Apply(x1)
	_ = oa.Apply(x2)
	got1b := oa.Apply(x1)
	if maxAbsDiff(got1a, got1b) > 1e-12 {
		t.Fatal("OverlapAdd is not stateless across Apply calls")
	}
}

func TestCrossCorrelateFindsTemplate(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	tmpl := randReal(200, rng)
	x := make([]float64, 1000)
	for i := range x {
		x[i] = 0.1 * rng.NormFloat64()
	}
	const at = 431
	for i, v := range tmpl {
		x[at+i] += v
	}
	corr := NormalizedCrossCorrelate(x, tmpl)
	peak := ArgMax(corr)
	if peak != at {
		t.Fatalf("correlation peak at %d, want %d", peak, at)
	}
	if corr[peak] < 0.9 {
		t.Fatalf("normalized peak %g, want > 0.9", corr[peak])
	}
}

func TestNormalizedCrossCorrelateRange(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	x := randReal(2000, rng)
	tmpl := randReal(100, rng)
	corr := NormalizedCrossCorrelate(x, tmpl)
	for i, v := range corr {
		if v > 1.0000001 || v < -1.0000001 {
			t.Fatalf("normalized correlation out of range at %d: %g", i, v)
		}
	}
}

func TestCrossCorrelateAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// Force the FFT path (template >= 128, signal >= 512) and check
	// against the direct path.
	x := randReal(2048, rng)
	tmpl := randReal(256, rng)
	got := CrossCorrelate(x, tmpl)
	for k := 0; k < len(got); k += 97 {
		want := Dot(x[k:], tmpl)
		if math.Abs(got[k]-want) > 1e-7 {
			t.Fatalf("lag %d: got %g want %g", k, got[k], want)
		}
	}
}

// checkCorrelateDirect compares every lag of CrossCorrelate with the
// direct dot product; the tolerance scales with the lag's own energy.
func checkCorrelateDirect(t testing.TB, x, tmpl []float64) {
	t.Helper()
	got := CrossCorrelate(x, tmpl)
	if want := len(x) - len(tmpl) + 1; len(got) != want {
		t.Fatalf("len(x)=%d len(t)=%d: %d lags, want %d", len(x), len(tmpl), len(got), want)
	}
	scale := math.Sqrt(Energy(tmpl) * Energy(x))
	for k := range got {
		want := Dot(x[k:], tmpl)
		if math.Abs(got[k]-want) > 1e-12*(scale+1) {
			t.Fatalf("len(x)=%d len(t)=%d: lag %d got %g want %g", len(x), len(tmpl), k, got[k], want)
		}
	}
}

// TestCrossCorrelateFFTValidLagsAtBoundaries runs the FFT branch at the
// lengths where its transform size NextPow2(len(x)) is tightest:
// len(x) a power of two, one past it, and equal to the template.
func TestCrossCorrelateFFTValidLagsAtBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, nt := range []int{128, 300, 512, 1024} {
		tmpl := randReal(nt, rng)
		for _, nx := range []int{512, 513, 1024, 1025, 2048, 2049, nt} {
			if nx >= nt && nx >= 512 {
				checkCorrelateDirect(t, randReal(nx, rng), tmpl)
			}
		}
	}
}

func TestSegmentCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	a := randReal(128, rng)
	if c := SegmentCorrelation(a, a); math.Abs(c-1) > 1e-12 {
		t.Fatalf("self correlation %g, want 1", c)
	}
	neg := make([]float64, len(a))
	for i := range a {
		neg[i] = -a[i]
	}
	if c := SegmentCorrelation(a, neg); math.Abs(c+1) > 1e-12 {
		t.Fatalf("anti correlation %g, want -1", c)
	}
	if c := SegmentCorrelation(a, make([]float64, len(a))); c != 0 {
		t.Fatalf("zero-energy correlation %g, want 0", c)
	}
}

func TestAutoCorrelationBasics(t *testing.T) {
	x := []float64{1, 1, 1, 1}
	r := AutoCorrelation(x, 3)
	// Biased estimator: r[k] = (4-k)/4.
	want := []float64{1, 0.75, 0.5, 0.25}
	if maxAbsDiff(r, want) > 1e-12 {
		t.Fatalf("autocorrelation %v, want %v", r, want)
	}
	if AutoCorrelation(nil, 3) != nil {
		t.Fatal("empty input should give nil")
	}
}

// BenchmarkOverlapAddApply measures the steady-state convolution cost
// with a fresh output per call (the Transmit path, whose result
// escapes to the caller).
func BenchmarkOverlapAddApply(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	kernel := randReal(480, rng)
	x := randReal(48000, rng)
	oa := NewOverlapAdd(kernel)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oa.Apply(x)
	}
}

// BenchmarkOverlapAddSymbol convolves one 1,027-sample feedback or
// ACK symbol with a lake link's composite response: a single segment
// at the smallest transform size that holds its output.
func BenchmarkOverlapAddSymbol(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	oa := NewOverlapAdd(randReal(1741, rng))
	x := randReal(1027, rng)
	var out []float64
	b.ReportAllocs()
	for b.Loop() {
		out = oa.ApplyTo(out, x)
	}
}

// BenchmarkAutoCorrelation480 is the equalizer's autocorrelation:
// 480 lags over a training symbol and three data symbols.
func BenchmarkAutoCorrelation480(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	x := randReal(4*1027, rng)
	b.ReportAllocs()
	for b.Loop() {
		AutoCorrelation(x, 479)
	}
}

// BenchmarkOverlapAddApplyTo measures the allocation-free path: the
// output buffer is recycled across calls, as the time-varying channel
// does for its two realization convolutions.
func BenchmarkOverlapAddApplyTo(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	kernel := randReal(480, rng)
	x := randReal(48000, rng)
	oa := NewOverlapAdd(kernel)
	var out []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = oa.ApplyTo(out, x)
	}
}

// TestOverlapAddApplyToMatchesApply checks the buffer-reuse path
// against the allocating path across growing and shrinking inputs, and
// a clone, interleaved with the original, against both bit for bit.
func TestOverlapAddApplyToMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	kernel := randReal(100, rng)
	oa := NewOverlapAdd(kernel)
	clone := oa.Clone()
	var out, cloneOut []float64
	for _, n := range []int{1000, 5000, 300, 5000, 1} {
		x := randReal(n, rng)
		want := oa.Apply(x)
		out = oa.ApplyTo(out, x)
		cloneOut = clone.ApplyTo(cloneOut, x)
		if len(out) != len(want) || len(cloneOut) != len(want) {
			t.Fatalf("n=%d: ApplyTo length %d, clone %d, want %d", n, len(out), len(cloneOut), len(want))
		}
		for i := range want {
			if math.Abs(out[i]-want[i]) > 1e-9 {
				t.Fatalf("n=%d: sample %d differs: %g vs %g", n, i, out[i], want[i])
			}
			if math.Float64bits(cloneOut[i]) != math.Float64bits(out[i]) {
				t.Fatalf("n=%d: clone sample %d is %g, original gives %g", n, i, cloneOut[i], out[i])
			}
		}
	}
	if got := oa.ApplyTo(out, nil); len(got) != 0 {
		t.Fatal("empty input should give empty output")
	}
	if oa.OutLen(0) != 0 || oa.OutLen(10) != 10+len(kernel)-1 {
		t.Fatal("OutLen mismatch")
	}
}

// TestNormalizedCrossCorrelateSilentWindowsAreZero feeds a loud
// template followed by a long silence. Whether the running window
// energy keeps a positive rounding residue after the loud stretch
// depends on the draw, so several templates are tried; every all-zero
// window must read exactly 0, as documented.
func TestNormalizedCrossCorrelateSilentWindowsAreZero(t *testing.T) {
	for _, n := range []int{200, 1000} {
		for seed := int64(1); seed <= 4; seed++ {
			tmpl := randReal(n, rand.New(rand.NewSource(seed)))
			for _, zeros := range []int{20000, 40000} {
				x := make([]float64, n+zeros)
				for i, v := range tmpl {
					x[i] = 100 * v
				}
				corr := NormalizedCrossCorrelate(x, tmpl)
				if corr[0] < 0.999 {
					t.Fatalf("n=%d seed=%d zeros=%d: peak %g at lag 0, want ~1", n, seed, zeros, corr[0])
				}
				// Lags from n on see only zeros.
				for k := n; k < len(corr); k++ {
					if corr[k] != 0 {
						t.Fatalf("n=%d seed=%d zeros=%d: all-zero window at lag %d reads %g, want exactly 0",
							n, seed, zeros, k, corr[k])
					}
				}
			}
		}
	}
}

// FuzzCrossCorrelateMatchesDirect checks CrossCorrelate against the
// direct dot product at fuzzed signal and template lengths, which
// exercises both branches and the FFT branch's transform sizing. The
// seed corpus in testdata/fuzz holds the power-of-two boundaries.
func FuzzCrossCorrelateMatchesDirect(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, nx, nt uint16) {
		// Bound the lengths so the O(len(x)*len(t)) reference stays
		// quick: templates up to 2,048 samples, signals up to 4,096
		// samples past the template.
		tl := 1 + int(nt)%2048
		xl := tl + int(nx)%4096
		rng := rand.New(rand.NewSource(seed))
		checkCorrelateDirect(t, randReal(xl, rng), randReal(tl, rng))
	})
}

// FuzzOverlapAddMatchesConvolve checks OverlapAdd against Convolve at
// fuzzed kernel and input lengths, which exercises the per-call choice
// between one right-sized segment and the full-size block loop. The
// seed corpus in testdata/fuzz holds the block and power-of-two
// boundaries.
func FuzzOverlapAddMatchesConvolve(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, nk, nx uint16) {
		// Kernels up to 2,048 taps cover the channel's responses; inputs
		// up to 20,000 samples reach past a 2,048-tap kernel's block.
		kl := 1 + int(nk)%2048
		xl := 1 + int(nx)%20000
		rng := rand.New(rand.NewSource(seed))
		kernel := randReal(kl, rng)
		checkOverlapAdd(t, NewOverlapAdd(kernel), kernel, randReal(xl, rng))
	})
}
