package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// dftNaive is the O(n^2) reference DFT.
func dftNaive(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var acc complex128
		for j := 0; j < n; j++ {
			ang := sign * 2 * math.Pi * float64(k) * float64(j) / float64(n)
			acc += x[j] * cmplx.Exp(complex(0, ang))
		}
		if inverse {
			acc /= complex(float64(n), 0)
		}
		out[k] = acc
	}
	return out
}

func randComplex(n int, rng *rand.Rand) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return out
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Cover radix-2/3/5 mixes, the modem's real sizes, and Bluestein
	// sizes (primes and prime-containing composites).
	sizes := []int{1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 20, 25, 27, 30, 32,
		48, 60, 64, 7, 11, 13, 14, 21, 22, 31, 33, 37, 49, 96, 120, 240, 960}
	for _, n := range sizes {
		x := randComplex(n, rng)
		want := dftNaive(x, false)
		got := FFT(x)
		if e := maxErr(got, want); e > 1e-8*float64(n) {
			t.Errorf("FFT size %d: max error %g", n, e)
		}
	}
}

func TestIFFTMatchesNaiveInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 6, 7, 12, 30, 37, 60, 96, 100} {
		x := randComplex(n, rng)
		want := dftNaive(x, true)
		got := IFFT(x)
		if e := maxErr(got, want); e > 1e-8*float64(n) {
			t.Errorf("IFFT size %d: max error %g", n, e)
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Property: IFFT(FFT(x)) == x for arbitrary complex vectors.
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 512 {
			raw = raw[:512]
		}
		// Clamp magnitudes so quick's extreme values don't overflow.
		x := make([]complex128, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			v = math.Mod(v, 1e6)
			x[i] = complex(v, -v/2)
		}
		p := NewPlan(len(x))
		fw := make([]complex128, len(x))
		bw := make([]complex128, len(x))
		p.Forward(fw, x)
		p.Inverse(bw, fw)
		scale := 0.0
		for _, v := range x {
			if a := cmplx.Abs(v); a > scale {
				scale = a
			}
		}
		tol := 1e-9 * (scale + 1) * float64(len(x))
		return maxErr(bw, x) <= tol
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 60
	for trial := 0; trial < 25; trial++ {
		x := randComplex(n, rng)
		y := randComplex(n, rng)
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a*x[i] + y[i]
		}
		fx, fy, fs := FFT(x), FFT(y), FFT(sum)
		for i := range fs {
			want := a*fx[i] + fy[i]
			if cmplx.Abs(fs[i]-want) > 1e-9*float64(n) {
				t.Fatalf("linearity violated at bin %d", i)
			}
		}
	}
}

func TestFFTParsevalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{32, 60, 960, 97} {
		x := randComplex(n, rng)
		var tEnergy float64
		for _, v := range x {
			tEnergy += CAbs2(v)
		}
		f := FFT(x)
		var fEnergy float64
		for _, v := range f {
			fEnergy += CAbs2(v)
		}
		fEnergy /= float64(n)
		if math.Abs(tEnergy-fEnergy) > 1e-7*tEnergy {
			t.Errorf("Parseval violated for n=%d: time %g freq %g", n, tEnergy, fEnergy)
		}
	}
}

func TestFFTImpulseAndDC(t *testing.T) {
	n := 30
	impulse := make([]complex128, n)
	impulse[0] = 1
	f := FFT(impulse)
	for k, v := range f {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse FFT bin %d = %v, want 1", k, v)
		}
	}
	dc := make([]complex128, n)
	for i := range dc {
		dc[i] = 1
	}
	f = FFT(dc)
	if cmplx.Abs(f[0]-complex(float64(n), 0)) > 1e-9 {
		t.Fatalf("DC bin = %v, want %d", f[0], n)
	}
	for k := 1; k < n; k++ {
		if cmplx.Abs(f[k]) > 1e-9 {
			t.Fatalf("DC leakage at bin %d: %v", k, f[k])
		}
	}
}

func TestFFTSingleToneBin(t *testing.T) {
	// A complex exponential at bin k must concentrate all energy there.
	n := 960
	k := 40
	x := make([]complex128, n)
	for i := range x {
		ang := 2 * math.Pi * float64(k) * float64(i) / float64(n)
		x[i] = cmplx.Exp(complex(0, ang))
	}
	f := FFT(x)
	if cmplx.Abs(f[k]-complex(float64(n), 0)) > 1e-6 {
		t.Fatalf("tone bin magnitude %v, want %d", f[k], n)
	}
	for j := range f {
		if j != k && cmplx.Abs(f[j]) > 1e-6 {
			t.Fatalf("leakage at bin %d: %g", j, cmplx.Abs(f[j]))
		}
	}
}

func TestPlanForwardAliasedBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randComplex(96, rng)
	want := FFT(x)
	p := NewPlan(96)
	buf := append([]complex128(nil), x...)
	p.Forward(buf, buf) // in-place
	if maxErr(buf, want) > 1e-9 {
		t.Fatal("in-place Forward differs from out-of-place")
	}
}

func TestPlanSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPlan(0) should panic")
		}
	}()
	NewPlan(0)
}

func TestPlanLengthMismatchPanics(t *testing.T) {
	p := NewPlan(8)
	defer func() {
		if recover() == nil {
			t.Fatal("Forward with wrong lengths should panic")
		}
	}()
	p.Forward(make([]complex128, 4), make([]complex128, 8))
}

func TestFactorize(t *testing.T) {
	cases := map[int][]int{
		1:    nil,
		2:    {2},
		12:   {2, 2, 3},
		960:  {2, 2, 2, 2, 2, 2, 3, 5},
		97:   {97},
		4800: {2, 2, 2, 2, 2, 2, 3, 5, 5},
		77:   {7, 11},
	}
	for n, want := range cases {
		got := factorize(n)
		if len(got) != len(want) {
			t.Errorf("factorize(%d) = %v, want %v", n, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("factorize(%d) = %v, want %v", n, got, want)
				break
			}
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 960: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestFFTRealMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, 120)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := FFTReal(x)
	want := FFT(Complex(x))
	if maxErr(got, want) > 1e-12 {
		t.Fatal("FFTReal differs from complex FFT")
	}
	// Hermitian symmetry of a real signal's spectrum.
	n := len(x)
	for k := 1; k < n/2; k++ {
		if cmplx.Abs(got[k]-Conj(got[n-k])) > 1e-9 {
			t.Fatalf("Hermitian symmetry violated at bin %d", k)
		}
	}
}

func BenchmarkFFT960(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x := randComplex(960, rng)
	out := make([]complex128, 960)
	p := NewPlan(960)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(out, x)
	}
}

func BenchmarkFFT4800(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := randComplex(4800, rng)
	out := make([]complex128, 4800)
	p := NewPlan(4800)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(out, x)
	}
}

// BenchmarkRealPlan16384 runs one forward and one inverse real
// transform at the overlap-add size of a 480-tap channel.
func BenchmarkRealPlan16384(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	x := randReal(16384, rng)
	p := NewRealPlan(16384)
	spec := make([]complex128, p.Bins())
	out := make([]float64, 16384)
	b.ReportAllocs()
	for b.Loop() {
		p.Forward(spec, x)
		p.Inverse(out, spec)
	}
}

// realPlanSizes covers every power of two from 2 to 65,536, the
// modem's symbol sizes and an even size whose half (77 = 7*11) runs on
// Bluestein.
func realPlanSizes() []int {
	var sizes []int
	for n := 2; n <= 1<<16; n <<= 1 {
		sizes = append(sizes, n)
	}
	return append(sizes, 960, 1920, 4800, 154)
}

func TestRealPlanMatchesComplexPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range realPlanSizes() {
		x := randReal(n, rng)
		full := make([]complex128, n)
		NewPlan(n).Forward(full, Complex(x))
		rp := NewRealPlan(n)
		if rp.Size() != n || rp.Bins() != n/2+1 {
			t.Fatalf("n=%d: Size %d Bins %d", n, rp.Size(), rp.Bins())
		}
		half := make([]complex128, rp.Bins())
		rp.Forward(half, x)
		// Transform rounding grows like sqrt(n): compare against the
		// spectrum's own scale.
		tol := 1e-13 * math.Sqrt(float64(n)) * math.Sqrt(Energy(x))
		if e := maxErr(half, full[:n/2+1]); e > tol {
			t.Errorf("n=%d: forward max err %g (tol %g)", n, e, tol)
		}

		// The inverse of the half spectrum is the real part of the
		// complex inverse of the full Hermitian spectrum.
		wantInv := make([]complex128, n)
		NewPlan(n).Inverse(wantInv, full)
		got := make([]float64, n)
		rp.Inverse(got, half)
		for i := range got {
			if d := math.Abs(got[i] - real(wantInv[i])); d > 1e-12 {
				t.Fatalf("n=%d: inverse sample %d off by %g", n, i, d)
			}
		}
		if e := maxAbsDiff(got, x); e > 1e-12 {
			t.Errorf("n=%d: Inverse(Forward(x)) max err %g", n, e)
		}
	}
}

func TestRealPlanRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	f := func(seed int64, sizeSel uint8) bool {
		sizes := realPlanSizes()
		n := sizes[int(sizeSel)%len(sizes)]
		if n > 4096 {
			n = 4096 // keep the property loop fast; large sizes are above
		}
		r := rand.New(rand.NewSource(seed))
		x := randReal(n, r)
		rp := NewRealPlan(n)
		spec := make([]complex128, rp.Bins())
		rp.Forward(spec, x)
		back := make([]float64, n)
		rp.Inverse(back, spec)
		return maxAbsDiff(back, x) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestRealPlanRejectsOddAndMismatchedSizes(t *testing.T) {
	for _, n := range []int{-2, 0, 1, 3, 961} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRealPlan(%d) did not panic", n)
				}
			}()
			NewRealPlan(n)
		}()
	}
	rp := NewRealPlan(16)
	for name, call := range map[string]func(){
		"forward src": func() { rp.Forward(make([]complex128, 9), make([]float64, 15)) },
		"forward dst": func() { rp.Forward(make([]complex128, 16), make([]float64, 16)) },
		"inverse dst": func() { rp.Inverse(make([]float64, 8), make([]complex128, 9)) },
		"inverse src": func() { rp.Inverse(make([]float64, 16), make([]complex128, 8)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s length mismatch did not panic", name)
				}
			}()
			call()
		}()
	}
}
