package dsp

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The kernels in this package may be restructured for speed, but each
// must keep doing the same floating-point operations in the same order,
// so every output bit stays put. dspBitsDigests pins FNV-64a digests
// over math.Float64bits of the outputs for fixed seeded inputs; only a
// deliberate re-baseline, explained per series in the change that makes
// it, may update them.
var dspBitsDigests = map[string]string{
	"Plan":            "e14dc2011f33dc19",
	"RealPlan":        "c8633ee02baf3fb9",
	"AutoCorrelation": "df295e5c6633f35e",
	"OverlapAdd":      "f1bff58e9867346c",
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

// bitHash accumulates float64 bit patterns into an FNV-64a digest.
type bitHash struct{ buf []byte }

func (h *bitHash) f(vs ...float64) {
	for _, v := range vs {
		h.buf = binary.LittleEndian.AppendUint64(h.buf, math.Float64bits(v))
	}
}

func (h *bitHash) c(vs []complex128) {
	for _, v := range vs {
		h.f(real(v), imag(v))
	}
}

// mark separates records so that, say, an empty output still moves
// the digest.
func (h *bitHash) mark(n int) {
	h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(n))
}

func (h *bitHash) sum() string {
	d := fnv.New64a()
	d.Write(h.buf)
	return fmt.Sprintf("%016x", d.Sum64())
}

var negZero = math.Copysign(0, -1)

// signedZeroReal returns n seeded normal samples with exact zeros of
// both signs sprinkled in, and, when padFrom < n, every sample from
// padFrom on zero (a zero-padded signal whose padding zeros carry
// random signs). A butterfly or a multiply by a unit twiddle that is
// skipped or reordered flips the sign of some zero sum here.
func signedZeroReal(n, padFrom int, rng *rand.Rand) []float64 {
	x := make([]float64, n)
	for i := range x {
		switch {
		case i >= padFrom && rng.Intn(2) == 0:
			x[i] = negZero
		case i >= padFrom:
		case i%7 == 3:
			x[i] = negZero
		case i%11 == 4:
			x[i] = 0
		default:
			x[i] = rng.NormFloat64()
		}
	}
	return x
}

// negZeros returns n negative zeros: a silent signal on which random
// signs would mostly cancel to +0 within the first butterflies.
func negZeros(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = negZero
	}
	return x
}

func TestDSPBitsPinned(t *testing.T) {
	skipOffAMD64(t)
	got := map[string]string{
		"Plan":            planBitsDigest(),
		"RealPlan":        realPlanBitsDigest(),
		"AutoCorrelation": autoCorrelationBitsDigest(),
		"OverlapAdd":      overlapAddBitsDigest(),
	}
	for name, want := range dspBitsDigests {
		if got[name] != want {
			t.Errorf("%s bits digest %s, pinned %s", name, got[name], want)
		}
	}
}

// planBitsDigest runs Plan.Forward and Plan.Inverse, into a separate
// buffer and in place, at every power of two from 2 to 65,536, the
// modem's mixed-radix sizes and a Bluestein size, on a complex signal
// with signed zeros, on a zero-padded real one, and on two that are
// all zeros (of random signs, and negative), whose every output is a
// zero whose sign only the exact sequence of operations decides.
func planBitsDigest() string {
	sizes := []int{15, 480, 960, 2400, 77}
	for n := 2; n <= 1<<16; n <<= 1 {
		sizes = append(sizes, n)
	}
	var h bitHash
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(1000 + n)))
		re, im := signedZeroReal(n, n, rng), signedZeroReal(n, n, rng)
		cplx := make([]complex128, n)
		for i := range cplx {
			cplx[i] = complex(re[i], im[i])
		}
		if n > 2 {
			cplx[1] = complex(negZero, negZero)
		}
		padded := Complex(signedZeroReal(n, n/2, rng))
		re, im = signedZeroReal(n, 0, rng), signedZeroReal(n, 0, rng)
		zeros := make([]complex128, n)
		for i := range zeros {
			zeros[i] = complex(re[i], im[i])
		}
		p := NewPlan(n)
		out := make([]complex128, n)
		for _, x := range [][]complex128{cplx, padded, zeros, Complex(negZeros(n))} {
			for _, op := range []func(dst, src []complex128){p.Forward, p.Inverse} {
				h.mark(n)
				op(out, x)
				h.c(out)
				copy(out, x)
				op(out, out)
				h.c(out)
			}
		}
	}
	return h.sum()
}

// realPlanBitsDigest runs RealPlan.Forward and RealPlan.Inverse at the
// modem's symbol sizes and every power of two up to 32,768: forward on
// a signal with signed zeros, on a zero-padded one and on two of zeros
// only, inverse on each
// of their spectra and on a random spectrum whose bins 0 and n/2 carry
// (ignored) imaginary parts.
func realPlanBitsDigest() string {
	sizes := []int{960, 1920, 4800}
	for n := 2; n <= 1<<15; n <<= 1 {
		sizes = append(sizes, n)
	}
	var h bitHash
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(2000 + n)))
		p := NewRealPlan(n)
		spec := make([]complex128, p.Bins())
		out := make([]float64, n)
		for _, x := range [][]float64{signedZeroReal(n, n, rng), signedZeroReal(n, n/3, rng), signedZeroReal(n, 0, rng), negZeros(n)} {
			h.mark(n)
			p.Forward(spec, x)
			h.c(spec)
			p.Inverse(out, spec)
			h.f(out...)
		}
		re, im := signedZeroReal(p.Bins(), p.Bins(), rng), signedZeroReal(p.Bins(), p.Bins(), rng)
		for i := range spec {
			spec[i] = complex(re[i], im[i])
		}
		p.Inverse(out, spec)
		h.f(out...)
	}
	return h.sum()
}

// autoCorrelationBitsDigest covers the short lengths where maxLag is
// clamped, a symbol-and-a-sample length and a long one, at lags around
// a block of four.
func autoCorrelationBitsDigest() string {
	var h bitHash
	rng := rand.New(rand.NewSource(3000))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 481, 5000} {
		x := signedZeroReal(n, n-n/4, rng)
		for _, lag := range []int{0, 1, 3, 4, 5, 479} {
			r := AutoCorrelation(x, lag)
			h.mark(len(r))
			h.f(r...)
		}
	}
	return h.sum()
}

// overlapAddBitsDigest convolves the channel's shapes: kernels of
// 1,385 and 2,013 taps (the lake links' composite responses) with
// signed zeros and zero-padded tails, at every input length of
// overlapAddLengths, so each per-call transform size, the block edges
// and the full-size block loop are pinned.
func overlapAddBitsDigest() string {
	var h bitHash
	rng := rand.New(rand.NewSource(4000))
	for _, nk := range []int{1385, 2013} {
		oa := NewOverlapAdd(signedZeroReal(nk, nk-nk/8, rng))
		var out []float64
		for _, nx := range overlapAddLengths(oa) {
			out = oa.ApplyTo(out, signedZeroReal(nx, nx-nx/5, rng))
			h.mark(len(out))
			h.f(out...)
		}
	}
	return h.sum()
}
