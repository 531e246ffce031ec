package fec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randBits(n int, rng *rand.Rand) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = int(rng.Int31n(2))
	}
	return out
}

func bitsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCodedLen(t *testing.T) {
	c23 := NewCodec(Rate23, Truncated)
	// The paper's packet: 16 data bits -> 24 coded bits at rate 2/3.
	if got := c23.CodedLen(16); got != 24 {
		t.Fatalf("rate 2/3 CodedLen(16) = %d, want 24", got)
	}
	c12 := NewCodec(Rate12, Truncated)
	if got := c12.CodedLen(16); got != 32 {
		t.Fatalf("rate 1/2 CodedLen(16) = %d, want 32", got)
	}
	c23t := NewCodec(Rate23, Terminated)
	if got := c23t.CodedLen(16); got != 33 {
		t.Fatalf("terminated rate 2/3 CodedLen(16) = %d, want 33", got)
	}
}

func TestEncodeKnownVector(t *testing.T) {
	// The all-zero input must encode to all zeros (linear code).
	c := NewCodec(Rate12, Truncated)
	out := c.Encode(make([]int, 8))
	for i, b := range out {
		if b != 0 {
			t.Fatalf("all-zero input produced non-zero coded bit at %d", i)
		}
	}
	// A single leading 1 produces the generator impulse response:
	// G1=171o taps 1+D+D^2+D^3+D^6, G2=133o taps 1+D^2+D^3+D^5+D^6.
	in := []int{1, 0, 0, 0, 0, 0, 0}
	out = c.Encode(in)
	wantG1 := []int{1, 1, 1, 1, 0, 0, 1} // impulse response of G1
	wantG2 := []int{1, 0, 1, 1, 0, 1, 1} // impulse response of G2
	for i := 0; i < 7; i++ {
		if out[2*i] != wantG1[i] || out[2*i+1] != wantG2[i] {
			t.Fatalf("impulse response mismatch at step %d: got (%d,%d) want (%d,%d)",
				i, out[2*i], out[2*i+1], wantG1[i], wantG2[i])
		}
	}
}

func TestRoundTripNoNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, rate := range []Rate{Rate12, Rate23} {
		for _, term := range []Termination{Truncated, Terminated, TailBiting} {
			c := NewCodec(rate, term)
			for _, n := range []int{1, 2, 8, 16, 100} {
				bits := randBits(n, rng)
				coded := c.Encode(bits)
				if len(coded) != c.CodedLen(n) {
					t.Fatalf("rate=%v term=%v n=%d: coded len %d want %d",
						rate, term, n, len(coded), c.CodedLen(n))
				}
				dec, err := c.DecodeHard(coded, n)
				if err != nil {
					t.Fatal(err)
				}
				if !bitsEqual(dec, bits) {
					t.Fatalf("rate=%v term=%v n=%d: round trip failed", rate, term, n)
				}
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	c := NewCodec(Rate23, Truncated)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + int(r.Int31n(60))
		bits := randBits(n, r)
		dec, err := c.DecodeHard(c.Encode(bits), n)
		return err == nil && bitsEqual(dec, bits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestErrorCorrectionSingleErrors(t *testing.T) {
	// The K=7 code has free distance 10 (rate 1/2); any single coded
	// bit error in a terminated block must be corrected.
	rng := rand.New(rand.NewSource(52))
	c := NewCodec(Rate12, Terminated)
	bits := randBits(16, rng)
	coded := c.Encode(bits)
	for pos := range coded {
		corrupted := append([]int(nil), coded...)
		corrupted[pos] ^= 1
		dec, err := c.DecodeHard(corrupted, 16)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(dec, bits) {
			t.Fatalf("single error at %d not corrected", pos)
		}
	}
}

func TestErrorCorrectionDoubleErrorsRate23(t *testing.T) {
	// Punctured 2/3 (free distance 6) still corrects two well-separated
	// errors in a terminated block.
	rng := rand.New(rand.NewSource(53))
	c := NewCodec(Rate23, Terminated)
	bits := randBits(24, rng)
	coded := c.Encode(bits)
	corrupted := append([]int(nil), coded...)
	corrupted[3] ^= 1
	corrupted[len(corrupted)-5] ^= 1
	dec, err := c.DecodeHard(corrupted, 24)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(dec, bits) {
		t.Fatal("two separated errors not corrected at rate 2/3")
	}
}

func TestSoftBeatsHardUnderNoise(t *testing.T) {
	// With Gaussian soft values, soft-decision Viterbi must achieve a
	// lower (or equal) bit error rate than hard decisions at the same
	// SNR. Run a small Monte-Carlo and compare.
	rng := rand.New(rand.NewSource(54))
	c := NewCodec(Rate12, Terminated)
	const trials = 200
	const n = 32
	sigma := 0.9 // ~1 dB Eb/N0: noisy enough for visible differences
	hardErrs, softErrs := 0, 0
	for trial := 0; trial < trials; trial++ {
		bits := randBits(n, rng)
		coded := c.Encode(bits)
		soft := make([]float64, len(coded))
		hard := make([]int, len(coded))
		for i, b := range coded {
			tx := 1.0
			if b == 1 {
				tx = -1.0
			}
			rx := tx + sigma*rng.NormFloat64()
			soft[i] = rx
			if rx >= 0 {
				hard[i] = 0
			} else {
				hard[i] = 1
			}
		}
		decH, err := c.DecodeHard(hard, n)
		if err != nil {
			t.Fatal(err)
		}
		decS, err := c.DecodeSoft(soft, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range bits {
			if decH[i] != bits[i] {
				hardErrs++
			}
			if decS[i] != bits[i] {
				softErrs++
			}
		}
	}
	if softErrs > hardErrs {
		t.Fatalf("soft decoding (%d errors) worse than hard (%d errors)", softErrs, hardErrs)
	}
	if hardErrs == 0 {
		t.Log("warning: noise too low to distinguish decoders")
	}
}

func TestDecodeLengthValidation(t *testing.T) {
	c := NewCodec(Rate23, Truncated)
	if _, err := c.DecodeHard(make([]int, 10), 16); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := c.DecodeSoft(make([]float64, 25), 16); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := c.DecodeHard([]int{0, 1, 2}, 2); err == nil {
		t.Fatal("expected invalid bit value error")
	}
}

func TestEncodePanicsOnInvalidBit(t *testing.T) {
	c := NewCodec(Rate12, Truncated)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid bit")
		}
	}()
	c.Encode([]int{0, 1, 7})
}

func TestRateString(t *testing.T) {
	if Rate12.String() != "1/2" || Rate23.String() != "2/3" || Rate(9).String() != "unknown" {
		t.Fatal("Rate.String")
	}
	if Truncated.String() != "truncated" || TailBiting.String() != "tail-biting" ||
		Terminated.String() != "terminated" || Termination(9).String() != "unknown" {
		t.Fatal("Termination.String")
	}
}

func TestTailBitingCodedLen(t *testing.T) {
	// Tail-biting preserves the paper's exact 16 -> 24 expansion.
	c := NewCodec(Rate23, TailBiting)
	if got := c.CodedLen(16); got != 24 {
		t.Fatalf("tail-biting CodedLen(16) = %d, want 24", got)
	}
}

func TestTailBitingStateConsistency(t *testing.T) {
	// Property: encoding starts and ends in the same trellis state.
	rng := rand.New(rand.NewSource(56))
	c := NewCodec(Rate12, TailBiting)
	for trial := 0; trial < 50; trial++ {
		n := 7 + int(rng.Int31n(40))
		bits := randBits(n, rng)
		start := c.tailBitingState(bits)
		state := start
		for _, b := range bits {
			state = c.nextState[state][b]
		}
		if state != start {
			t.Fatalf("trial %d: start state %d, end state %d", trial, start, state)
		}
	}
}

func TestTailBitingCorrectsErrorsAtBlockEnd(t *testing.T) {
	// The motivation for tail-biting in this system: with a truncated
	// trellis, single coded-bit errors near the block end frequently
	// decode wrong; tail-biting's uniform protection fixes them.
	rng := rand.New(rand.NewSource(57))
	tb := NewCodec(Rate23, TailBiting)
	tr := NewCodec(Rate23, Truncated)
	const trials = 40
	tbFails, trFails := 0, 0
	for trial := 0; trial < trials; trial++ {
		bits := randBits(16, rng)
		for _, c := range []struct {
			codec *Codec
			fails *int
		}{{tb, &tbFails}, {tr, &trFails}} {
			coded := c.codec.Encode(bits)
			// Flip one of the last three coded bits.
			pos := len(coded) - 1 - int(rng.Int31n(3))
			coded[pos] ^= 1
			dec, err := c.codec.DecodeHard(coded, 16)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(dec, bits) {
				*c.fails++
			}
		}
	}
	t.Logf("block-end single error: tail-biting %d/%d failures, truncated %d/%d",
		tbFails, trials, trFails, trials)
	if tbFails > trFails {
		t.Fatalf("tail-biting (%d fails) worse than truncated (%d)", tbFails, trFails)
	}
	if tbFails > trials/10 {
		t.Fatalf("tail-biting fails %d/%d on single block-end errors", tbFails, trials)
	}
}

func TestTailBitingSingleErrorsAnywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	c := NewCodec(Rate23, TailBiting)
	bits := randBits(16, rng)
	coded := c.Encode(bits)
	fails := 0
	for pos := range coded {
		bad := append([]int(nil), coded...)
		bad[pos] ^= 1
		dec, err := c.DecodeHard(bad, 16)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(dec, bits) {
			fails++
		}
	}
	if fails > 0 {
		t.Fatalf("tail-biting failed on %d/%d single-error positions", fails, len(coded))
	}
}

func BenchmarkViterbiDecode24Bits(b *testing.B) {
	// The paper's per-packet decode: 24 coded bits. Its budget is
	// < 20 ms per symbol on a Galaxy S9; on a laptop-class CPU this
	// should be microseconds.
	rng := rand.New(rand.NewSource(55))
	c := NewCodec(Rate23, Truncated)
	bits := randBits(16, rng)
	coded := c.Encode(bits)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeHard(coded, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViterbiDecode24BitsTailBiting times the decode the protocol
// runs (internal/phy's codecs are tail-biting): the same 24 coded bits,
// decoded over the wrapped trellis.
func BenchmarkViterbiDecode24BitsTailBiting(b *testing.B) {
	rng := rand.New(rand.NewSource(55))
	c := NewCodec(Rate23, TailBiting)
	coded := c.Encode(randBits(16, rng))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeHard(coded, 16); err != nil {
			b.Fatal(err)
		}
	}
}
