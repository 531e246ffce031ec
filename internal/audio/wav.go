// Package audio provides the sample-level I/O substrate: PCM16 WAV
// reading and writing (so waveforms can round-trip through files and
// external tools) and float/int16 conversion with clipping.
package audio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// WriteWAV writes mono float64 samples in [-1, 1] as a 16-bit PCM WAV.
// Samples outside the range are clipped.
func WriteWAV(w io.Writer, samples []float64, sampleRate int) error {
	if sampleRate <= 0 {
		return errors.New("audio: non-positive sample rate")
	}
	dataLen := uint32(len(samples) * 2)
	var hdr [44]byte
	copy(hdr[0:4], "RIFF")
	binary.LittleEndian.PutUint32(hdr[4:8], 36+dataLen)
	copy(hdr[8:12], "WAVE")
	copy(hdr[12:16], "fmt ")
	binary.LittleEndian.PutUint32(hdr[16:20], 16) // fmt chunk size
	binary.LittleEndian.PutUint16(hdr[20:22], 1)  // PCM
	binary.LittleEndian.PutUint16(hdr[22:24], 1)  // mono
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(sampleRate))
	binary.LittleEndian.PutUint32(hdr[28:32], uint32(sampleRate*2)) // byte rate
	binary.LittleEndian.PutUint16(hdr[32:34], 2)                    // block align
	binary.LittleEndian.PutUint16(hdr[34:36], 16)                   // bits per sample
	copy(hdr[36:40], "data")
	binary.LittleEndian.PutUint32(hdr[40:44], dataLen)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, 2*len(samples))
	for i, s := range samples {
		binary.LittleEndian.PutUint16(buf[2*i:], uint16(FloatToPCM16(s)))
	}
	_, err := w.Write(buf)
	return err
}

// ReadWAV reads a 16-bit PCM WAV; multi-channel files are downmixed
// to mono by averaging. It returns the samples (scaled to [-1, 1])
// and the sample rate.
func ReadWAV(r io.Reader) ([]float64, int, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, fmt.Errorf("audio: short RIFF header: %w", err)
	}
	if string(hdr[0:4]) != "RIFF" || string(hdr[8:12]) != "WAVE" {
		return nil, 0, errors.New("audio: not a RIFF/WAVE file")
	}
	var (
		sampleRate int
		channels   int
		bits       int
		data       []byte
	)
	for {
		var chunk [8]byte
		if _, err := io.ReadFull(r, chunk[:]); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				break
			}
			return nil, 0, err
		}
		size := binary.LittleEndian.Uint32(chunk[4:8])
		if size == math.MaxUint32 {
			// Chunks are word aligned, so an odd size carries a pad
			// byte, and this one would end past any RIFF file.
			return nil, 0, fmt.Errorf("audio: chunk %q size %d overflows the RIFF size field", chunk[0:4], size)
		}
		padded := int64(size + size%2)
		id := string(chunk[0:4])
		if id != "fmt " && id != "data" {
			if _, err := io.CopyN(io.Discard, r, padded); err != nil {
				return nil, 0, fmt.Errorf("audio: truncated chunk %q: %w", id, err)
			}
			continue
		}
		// Read through a limit rather than allocating the claimed size,
		// so memory grows only with the bytes the input delivers.
		body, err := io.ReadAll(io.LimitReader(r, padded))
		if err != nil {
			return nil, 0, fmt.Errorf("audio: reading chunk %q: %w", id, err)
		}
		if int64(len(body)) < padded {
			return nil, 0, fmt.Errorf("audio: truncated chunk %q: %w", id, io.ErrUnexpectedEOF)
		}
		switch id {
		case "fmt ":
			if size < 16 {
				return nil, 0, errors.New("audio: malformed fmt chunk")
			}
			format := binary.LittleEndian.Uint16(body[0:2])
			if format != 1 {
				return nil, 0, fmt.Errorf("audio: unsupported WAV format %d (want PCM)", format)
			}
			channels = int(binary.LittleEndian.Uint16(body[2:4]))
			sampleRate = int(binary.LittleEndian.Uint32(body[4:8]))
			bits = int(binary.LittleEndian.Uint16(body[14:16]))
		case "data":
			data = body[:size]
		}
	}
	if sampleRate == 0 || data == nil {
		return nil, 0, errors.New("audio: missing fmt or data chunk")
	}
	if bits != 16 {
		return nil, 0, fmt.Errorf("audio: unsupported bit depth %d (want 16)", bits)
	}
	if channels < 1 {
		return nil, 0, errors.New("audio: zero channels")
	}
	frames := len(data) / (2 * channels)
	out := make([]float64, frames)
	for f := 0; f < frames; f++ {
		var acc float64
		for c := 0; c < channels; c++ {
			v := int16(binary.LittleEndian.Uint16(data[2*(f*channels+c):]))
			acc += PCM16ToFloat(v)
		}
		out[f] = acc / float64(channels)
	}
	return out, sampleRate, nil
}

// WriteWAVFile writes samples to a WAV file at path.
func WriteWAVFile(path string, samples []float64, sampleRate int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteWAV(f, samples, sampleRate); err != nil {
		return err
	}
	return f.Close()
}

// ReadWAVFile reads a WAV file from path.
func ReadWAVFile(path string) ([]float64, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return ReadWAV(f)
}

// FloatToPCM16 converts a [-1, 1] sample to int16 with clipping.
func FloatToPCM16(s float64) int16 {
	if math.IsNaN(s) {
		return 0
	}
	v := math.Round(s * 32767)
	if v > 32767 {
		v = 32767
	}
	if v < -32768 {
		v = -32768
	}
	return int16(v)
}

// PCM16ToFloat converts an int16 sample to [-1, 1].
func PCM16ToFloat(v int16) float64 { return float64(v) / 32767 }
