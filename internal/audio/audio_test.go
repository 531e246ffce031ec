package audio

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestWAVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	samples := make([]float64, 4801) // odd length exercises padding
	for i := range samples {
		samples[i] = 0.8 * math.Sin(2*math.Pi*440*float64(i)/48000*(1+0.2*rng.Float64()))
	}
	var buf bytes.Buffer
	if err := WriteWAV(&buf, samples, 48000); err != nil {
		t.Fatal(err)
	}
	got, rate, err := ReadWAV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 48000 {
		t.Fatalf("rate %d", rate)
	}
	if len(got) != len(samples) {
		t.Fatalf("length %d, want %d", len(got), len(samples))
	}
	for i := range samples {
		if math.Abs(got[i]-samples[i]) > 1.0/32767*1.01 {
			t.Fatalf("sample %d: %g vs %g", i, got[i], samples[i])
		}
	}
}

func TestWAVRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	f := func(raw []float64) bool {
		samples := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			samples[i] = math.Mod(v, 1) // keep in [-1,1)
		}
		var buf bytes.Buffer
		if err := WriteWAV(&buf, samples, 48000); err != nil {
			return false
		}
		got, _, err := ReadWAV(&buf)
		if err != nil || len(got) != len(samples) {
			return false
		}
		for i := range samples {
			if math.Abs(got[i]-samples[i]) > 1.0/32767*1.01 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestWAVClipping(t *testing.T) {
	samples := []float64{2.5, -3.0, math.NaN()}
	var buf bytes.Buffer
	if err := WriteWAV(&buf, samples, 8000); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadWAV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] < 0.99 || got[1] > -0.99 {
		t.Fatalf("clipping failed: %v", got)
	}
	if got[2] != 0 {
		t.Fatalf("NaN should map to 0, got %g", got[2])
	}
}

func TestWAVRejectsGarbage(t *testing.T) {
	if _, _, err := ReadWAV(bytes.NewReader([]byte("not a wav file at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := WriteWAV(&bytes.Buffer{}, []float64{0}, 0); err == nil {
		t.Fatal("zero sample rate accepted")
	}
}

func TestWAVFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "probe.wav")
	samples := []float64{0, 0.5, -0.5, 1, -1}
	if err := WriteWAVFile(path, samples, 44100); err != nil {
		t.Fatal(err)
	}
	got, rate, err := ReadWAVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 44100 || len(got) != len(samples) {
		t.Fatalf("rate %d len %d", rate, len(got))
	}
}

func TestPCMConversion(t *testing.T) {
	if FloatToPCM16(1) != 32767 || FloatToPCM16(-1) != -32767 {
		t.Fatal("unit conversion")
	}
	if FloatToPCM16(0) != 0 {
		t.Fatal("zero conversion")
	}
	if FloatToPCM16(100) != 32767 || FloatToPCM16(-100) != -32768 {
		t.Fatal("clipping")
	}
	if v := PCM16ToFloat(32767); math.Abs(v-1) > 1e-12 {
		t.Fatalf("PCM16ToFloat(32767) = %g", v)
	}
}
