package modem

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestSharedTablesPerConfig pins the sharing rule: modems of one
// configuration — DefaultConfig or its resolved form — share one
// preamble backing array, and another numerology gets its own.
func TestSharedTablesPerConfig(t *testing.T) {
	a := mustModem(t, DefaultConfig())
	b := mustModem(t, DefaultConfig())
	if &a.Preamble()[0] != &b.Preamble()[0] {
		t.Fatal("two modems of DefaultConfig build separate preambles")
	}
	resolved := mustModem(t, a.Config())
	if &resolved.Preamble()[0] != &a.Preamble()[0] {
		t.Fatal("the resolved DefaultConfig does not share DefaultConfig's tables")
	}
	c := mustModem(t, DefaultConfig().WithSpacing(25))
	if &c.Preamble()[0] == &a.Preamble()[0] {
		t.Fatal("a 25 Hz modem shares the 50 Hz preamble")
	}
	if c.PreambleLen() != PreambleSymbols*c.Config().N() {
		t.Fatalf("25 Hz preamble %d samples, want %d", c.PreambleLen(), PreambleSymbols*c.Config().N())
	}
}

// roundTripResult is what one modem's full chain produces: preamble
// detection, channel estimate and soft data bits.
type roundTripResult struct {
	Det   Detection
	H     []complex128
	SNRdB []float64
	Soft  []float64
}

// roundTrip runs modulate → channel → detect → estimate → demodulate
// (equalizer training included) on m, every draw from seed.
func roundTrip(m *Modem, seed int64) (roundTripResult, error) {
	rng := rand.New(rand.NewSource(seed))
	band := Band{Lo: 5 + int(seed%7), Hi: 40}
	bits := randomBits(72, rng)
	data, err := m.ModulateData(bits, band, DataOptions{})
	if err != nil {
		return roundTripResult{}, err
	}
	lead := 300 + rng.Intn(500)
	frame := append(make([]float64, lead), m.Preamble()...)
	frame = append(frame, data...)
	taps := make([]float64, 120)
	taps[0], taps[40], taps[119] = 1, 0.4, 0.2
	rx := applyChannel(frame, taps, 0.01, rng)
	det, ok := NewDetector(m).Detect(rx)
	if !ok {
		return roundTripResult{}, fmt.Errorf("seed %d: preamble missed", seed)
	}
	pre := rx[det.Offset : det.Offset+m.PreambleLen()]
	est, err := m.EstimateChannel(pre)
	if err != nil {
		return roundTripResult{}, err
	}
	soft, err := m.DemodulateData(rx[det.Offset+m.PreambleLen():], band, len(bits), DataOptions{})
	if err != nil {
		return roundTripResult{}, err
	}
	if errs := countBitErrors(HardBits(soft), bits); errs != 0 {
		return roundTripResult{}, fmt.Errorf("seed %d: %d bit errors", seed, errs)
	}
	return roundTripResult{Det: det, H: est.H, SNRdB: est.SNRdB, Soft: soft}, nil
}

// TestSharedTablesSurviveRoundTrip runs a full chain on one modem and
// then checks the shared tables bit for bit against a freshly built,
// uncached set: no code path writes through them.
func TestSharedTablesSurviveRoundTrip(t *testing.T) {
	m := mustModem(t, DefaultConfig())
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := roundTrip(m, seed); err != nil {
			t.Fatal(err)
		}
	}
	fresh := buildTables(m.Config())
	bitsEqual := func(name string, got, want []float64) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %v, fresh build %v", name, i, got[i], want[i])
			}
		}
	}
	complexBits := func(name string, got, want []complex128) {
		re := func(v []complex128) []float64 {
			out := make([]float64, 0, 2*len(v))
			for _, c := range v {
				out = append(out, real(c), imag(c))
			}
			return out
		}
		bitsEqual(name, re(got), re(want))
	}
	bitsEqual("preamble", m.tab.preamble, fresh.preamble)
	complexBits("zcBins", m.tab.zcBins, fresh.zcBins)
	complexBits("trBins", m.tab.trBins, fresh.trBins)
	bitsEqual("preScale", []float64{m.tab.preScale}, []float64{fresh.preScale})
}

// TestSharedTablesConcurrentModems runs eight goroutines, each with
// its own Modem of one Config over the shared tables, and requires
// results deep-equal to one sequential run. Under -race it also
// proves the tables are only read.
func TestSharedTablesConcurrentModems(t *testing.T) {
	const workers = 8
	cfg := DefaultConfig()
	want := make([]roundTripResult, workers)
	seq := mustModem(t, cfg)
	for i := range want {
		var err error
		if want[i], err = roundTrip(seq, int64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]roundTripResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := New(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			got[i], errs[i] = roundTrip(m, int64(100+i))
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("worker %d diverged from the sequential run", i)
		}
	}
}
