package exp

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"aquago"
)

// tinyImageSweep is the image golden workload: one point per axis
// family, small blocks, but crossing the healthy range, the marginal
// band where retransmission fires, a relay line, and a contended pod.
func tinyImageSweep() imageSweep {
	return imageSweep{
		blocks: 4, blockBytes: 3, previewBlocks: 1, retries: 3,
		rangesM: []float64{25, 72},
		hops:    []int{1, 2},
		streams: []int{1, 2},
	}
}

// TestImageGoldenSeedsWorkers pins the progressive-image report to
// the seeds×workers determinism contract: for fixed seeds the full
// report — goodput and preview time on the range, hops and load axes
// — must be deeply equal whether points run serially (Workers: 1) or
// across the experiment pool (Workers: 4). Each point's stream rides
// the async transmit queues, so this is also the stream transport's
// worker-count-invariance witness at the harness level.
func TestImageGoldenSeedsWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the tiny image sweep several times")
	}
	for _, seed := range []int64{3, 11} {
		serial, err := imageReport(RunConfig{Seed: seed, Quick: true, Workers: 1}, tinyImageSweep())
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		parallel, err := imageReport(RunConfig{Seed: seed, Quick: true, Workers: 4}, tinyImageSweep())
		if err != nil {
			t.Fatalf("seed %d parallel: %v", seed, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("seed %d: Workers:1 and Workers:4 reports differ\nserial:   %+v\nparallel: %+v",
				seed, serial, parallel)
		}
		// Every axis must contribute a goodput and a preview series,
		// and the short-range point must actually carry image data.
		var goodput, preview int
		for _, s := range serial.Series {
			if len(s.X) == 0 {
				t.Fatalf("seed %d: empty series %q", seed, s.Name)
			}
			switch {
			case strings.Contains(s.Name, "goodput"):
				goodput++
				if s.Y[0] <= 0 {
					t.Fatalf("seed %d: %q delivered nothing at its first point", seed, s.Name)
				}
			case strings.Contains(s.Name, "preview"):
				preview++
			}
		}
		if goodput != 3 || preview != 3 {
			t.Fatalf("seed %d: want 3 goodput + 3 preview series, got %d + %d",
				seed, goodput, preview)
		}
	}
}

// TestImageStreamConservation: over a clean link the stream must
// deliver the image exactly — every block CRC-verified, no
// degradation, byte counts conserved — and the preview must land
// strictly before the full transfer.
func TestImageStreamConservation(t *testing.T) {
	r, err := RunImagePoint(ImagePoint{
		Blocks: 4, BlockBytes: 3, Retries: 3, RangeM: 25,
		Mode: aquago.EnvelopeContention, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Degraded || r.UsableBlocks != r.Blocks || r.BadCRCBlocks != 0 {
		t.Fatalf("clean link degraded the image: %+v", r)
	}
	if want := r.Blocks * 4; r.DeliveredBytes != want {
		t.Fatalf("delivered %d wire bytes, want %d: %+v", r.DeliveredBytes, want, r)
	}
	if !(r.FirstPreviewS > 0 && r.FirstPreviewS < r.TotalS) {
		t.Fatalf("preview must land inside the transfer: %+v", r)
	}
	if r.GoodputBPS <= 0 {
		t.Fatalf("degenerate goodput: %+v", r)
	}
}

// TestImageRetransmitOrDegrade drives the marginal band: across seeds
// at 76 m the point must exhibit both halves of the policy — some
// transfer that retransmits and still completes, and some transfer
// that degrades to a verified prefix without erroring out.
func TestImageRetransmitOrDegrade(t *testing.T) {
	var recovered, degraded bool
	for seed := int64(1); seed <= 6; seed++ {
		r, err := RunImagePoint(ImagePoint{
			Blocks: 4, BlockBytes: 3, Retries: 3, RangeM: 76,
			Mode: aquago.EnvelopeContention, Seed: seed,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r.BadCRCBlocks != 0 {
			t.Fatalf("seed %d: CRC failure on a hop-conserved transport: %+v", seed, r)
		}
		if r.UsableBlocks == r.Blocks && r.Retransmits > 0 {
			recovered = true
		}
		if r.Degraded {
			degraded = true
			if r.UsableBlocks == r.Blocks && r.DeliveredBytes == r.Blocks*4 {
				continue // sender died chasing ACKs; receiver has it all
			}
			if r.UsableBlocks >= r.Blocks {
				t.Fatalf("seed %d: degraded yet whole: %+v", seed, r)
			}
		}
	}
	if !recovered || !degraded {
		t.Fatalf("marginal band must show both policy halves (recovered %v, degraded %v)",
			recovered, degraded)
	}
}

// TestImageRelayPreviewClock: on the relay axis the preview clock
// comes from per-packet arrival times, so it must sit strictly
// between zero and the transfer end, and deepening the line must
// delay it.
func TestImageRelayPreviewClock(t *testing.T) {
	two, err := RunImagePoint(ImagePoint{
		Blocks: 4, BlockBytes: 3, Retries: 3, Hops: 2,
		Mode: aquago.EnvelopeContention, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	three, err := RunImagePoint(ImagePoint{
		Blocks: 4, BlockBytes: 3, Retries: 3, Hops: 3,
		Mode: aquago.EnvelopeContention, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []ImageResult{two, three} {
		if r.Degraded || r.UsableBlocks != r.Blocks {
			t.Fatalf("clean relay degraded the image: %+v", r)
		}
		if !(r.FirstPreviewS > 0 && r.FirstPreviewS < r.TotalS) {
			t.Fatalf("preview must land inside the transfer: %+v", r)
		}
	}
	if !(three.FirstPreviewS > two.FirstPreviewS) {
		t.Fatalf("a deeper line must delay the preview: 2 hops %.2f s vs 3 hops %.2f s",
			two.FirstPreviewS, three.FirstPreviewS)
	}
}

// TestStreamPointValidate walks the rejection paths shared with
// cmd/aquanet stream.
func TestStreamPointValidate(t *testing.T) {
	good := StreamPoint{Bytes: 16, Retries: 3, Mode: aquago.EnvelopeContention}
	cases := []struct {
		name    string
		mutate  func(*StreamPoint)
		wantErr string
	}{
		{"valid", func(*StreamPoint) {}, ""},
		{"max window", func(p *StreamPoint) { p.Window = aquago.MaxStreamWindow }, ""},
		{"NaN range", func(p *StreamPoint) { p.RangeM = math.NaN() }, "not a usable distance"},
		{"negative range", func(p *StreamPoint) { p.RangeM = -3 }, "not a usable distance"},
		{"no payload", func(p *StreamPoint) { p.Bytes = 0 }, "need a payload"},
		{"huge payload", func(p *StreamPoint) { p.Bytes = maxBulkBytes + 1 }, "cap"},
		{"zero window", func(p *StreamPoint) { p.Window = -1 }, "window"},
		{"oversized window", func(p *StreamPoint) { p.Window = aquago.MaxStreamWindow + 1 }, "window"},
		{"zero retries", func(p *StreamPoint) { p.Retries = 0 }, "at least 1"},
		{"NaN timer", func(p *StreamPoint) { p.RTOS = math.NaN() }, "not a usable duration"},
		{"negative timer", func(p *StreamPoint) { p.RTOS = -1 }, "not a usable duration"},
		{"bad mode", func(p *StreamPoint) { p.Mode = aquago.ContentionMode(9) }, "unknown contention mode"},
	}
	for _, tc := range cases {
		p := good
		tc.mutate(&p)
		err := p.Validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: error expected, got nil", tc.name)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestImagePointValidate covers the image-point rejections shared
// with cmd/aquanet image.
func TestImagePointValidate(t *testing.T) {
	good := ImagePoint{Blocks: 4, BlockBytes: 3, Retries: 3, Mode: aquago.EnvelopeContention}
	cases := []struct {
		name    string
		mutate  func(*ImagePoint)
		wantErr string
	}{
		{"valid", func(*ImagePoint) {}, ""},
		{"valid relay", func(p *ImagePoint) { p.Hops = 3 }, ""},
		{"valid load", func(p *ImagePoint) { p.Streams = 3 }, ""},
		{"no blocks", func(p *ImagePoint) { p.Blocks = 0 }, "at least one block"},
		{"empty blocks", func(p *ImagePoint) { p.BlockBytes = 0 }, "at least one byte"},
		{"huge image", func(p *ImagePoint) { p.Blocks = 2048; p.BlockBytes = 3 }, "cap"},
		{"preview past end", func(p *ImagePoint) { p.PreviewBlocks = 5 }, "preview threshold"},
		{"negative hops", func(p *ImagePoint) { p.Hops = -1 }, "negative hop count"},
		{"too many hops", func(p *ImagePoint) { p.Hops = 60 }, "60-device limit"},
		{"load on relay", func(p *ImagePoint) { p.Streams = 2; p.Hops = 3 }, "direct links"},
		{"too many streams", func(p *ImagePoint) { p.Streams = 9 }, "outside [1, 8]"},
		{"NaN range", func(p *ImagePoint) { p.RangeM = math.NaN() }, "not a usable distance"},
		{"bad window", func(p *ImagePoint) { p.Window = aquago.MaxStreamWindow + 1 }, "window"},
		{"zero retries", func(p *ImagePoint) { p.Retries = 0 }, "at least 1"},
		{"NaN timer", func(p *ImagePoint) { p.RTOS = math.NaN() }, "not a usable duration"},
		{"bad mode", func(p *ImagePoint) { p.Mode = aquago.ContentionMode(9) }, "unknown contention mode"},
	}
	for _, tc := range cases {
		p := good
		tc.mutate(&p)
		err := p.Validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: error expected, got nil", tc.name)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestImageCRCHelpers pins the block framing: a seeded image must
// verify wholly, a corrupted trailer must be counted bad, and a
// truncated prefix must stop at block granularity.
func TestImageCRCHelpers(t *testing.T) {
	img := imagePayload(4, 3, 7)
	if len(img) != 16 {
		t.Fatalf("4 blocks x (3+1) bytes must be 16 wire bytes, got %d", len(img))
	}
	if u, bad := usableBlocks(img, 4, 3); u != 4 || bad != 0 {
		t.Fatalf("intact image: got %d usable, %d bad", u, bad)
	}
	flipped := append([]byte(nil), img...)
	flipped[7] ^= 0xFF // second block's CRC trailer
	if u, bad := usableBlocks(flipped, 4, 3); u != 3 || bad != 1 {
		t.Fatalf("one corrupted trailer: got %d usable, %d bad", u, bad)
	}
	if u, bad := usableBlocks(img[:9], 4, 3); u != 2 || bad != 0 {
		t.Fatalf("9-byte prefix holds 2 whole blocks: got %d usable, %d bad", u, bad)
	}
}
