package audio

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
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

// hostileDataChunk is a 20-byte WAV whose data chunk claims 0xFFFFFFFF
// bytes: padding that odd size to a word wraps a uint32 to zero.
var hostileDataChunk = []byte("RIFF\x0c\x00\x00\x00WAVEdata\xff\xff\xff\xff")

func TestWAVRejectsOverflowingChunkSize(t *testing.T) {
	if len(hostileDataChunk) != 20 {
		t.Fatalf("input is %d bytes, want 20", len(hostileDataChunk))
	}
	if _, _, err := ReadWAV(bytes.NewReader(hostileDataChunk)); err == nil {
		t.Fatal("a chunk size of 0xFFFFFFFF was accepted")
	}
}

// TestWAVClaimedSizeNotAllocated checks that a chunk claiming 1 GiB
// over a few delivered bytes fails as truncated without the reader
// allocating what the header claims.
func TestWAVClaimedSizeNotAllocated(t *testing.T) {
	var in bytes.Buffer
	if err := WriteWAV(&in, []float64{0.25, -0.25}, 48000); err != nil {
		t.Fatal(err)
	}
	b := in.Bytes()
	binary.LittleEndian.PutUint32(b[40:44], 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadWAV(bytes.NewReader(b))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a truncated data chunk was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reading a 48-byte file allocated %d bytes", grew)
	}
}

// FuzzReadWAV feeds arbitrary bytes to the reader, which must return
// samples or an error and never panic.
func FuzzReadWAV(f *testing.F) {
	for _, samples := range [][]float64{nil, {0}, {0.5, -0.5, 1, -1}, {0.1, 0.2, 0.3}} {
		var buf bytes.Buffer
		if err := WriteWAV(&buf, samples, 48000); err != nil {
			f.Fatal(err)
		}
		b := buf.Bytes()
		f.Add(b)
		for _, cut := range []int{len(b) - 1, 44, 43, 36, 20, 12} {
			if cut >= 0 && cut < len(b) {
				f.Add(b[:cut])
			}
		}
	}
	f.Add(hostileDataChunk)
	f.Fuzz(func(t *testing.T, in []byte) {
		samples, rate, err := ReadWAV(bytes.NewReader(in))
		if err != nil {
			return
		}
		if rate == 0 {
			t.Fatal("accepted with a zero sample rate")
		}
		for i, v := range samples {
			if math.IsNaN(v) || math.Abs(v) > 32768.0/32767 {
				t.Fatalf("sample %d is %v", i, v)
			}
		}
	})
}
