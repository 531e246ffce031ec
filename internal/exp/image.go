package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"

	"aquago"
	"aquago/internal/fec"
)

func init() {
	register("image", Image)
}

// This file is the progressive image transmission harness — the
// AquaScope-style workload the reliable stream transport (stream.go)
// exists to carry. An "image" is Blocks fixed-size blocks, each
// followed by a CRC-8 trailer byte, sent most-significant block
// first; a receiver renders progressively, so the two numbers that
// matter are image goodput (usable image bits over the whole
// transfer) and time-to-first-usable-preview (how long until the
// first PreviewBlocks blocks are delivered and CRC-verified). The
// policy is retransmit-or-degrade: lost segments retransmit under the
// ARQ budget, and when a budget dies mid-image the image degrades to
// the contiguous verified prefix instead of failing outright.
//
// Three axes, all deterministic:
//   - range: one stream over a single widening link — waveform-true
//     loss turns into retransmissions, then degradation;
//   - hops: the same image down a relay line on the ARQ-backed
//     pipelined bulk transfer (per-packet arrival times give the
//     preview clock);
//   - load: concurrent streams crossing one pod, contending for one
//     collision domain.

// imageStride is one block's wire footprint: BlockBytes + the CRC-8
// trailer.
func imageStride(blockBytes int) int { return blockBytes + 1 }

// imageCRC computes a block's CRC-8 trailer.
func imageCRC(block []byte) byte {
	return fec.CRC8(fec.BitsFromBytes(block))
}

// imagePayload builds a seeded image: Blocks blocks of BlockBytes
// random bytes, each with its CRC-8 trailer.
func imagePayload(blocks, blockBytes int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed*7451 + 9))
	out := make([]byte, 0, blocks*imageStride(blockBytes))
	block := make([]byte, blockBytes)
	for b := 0; b < blocks; b++ {
		rng.Read(block)
		out = append(out, block...)
		out = append(out, imageCRC(block))
	}
	return out
}

// usableBlocks walks the contiguously received prefix and counts
// blocks whose CRC-8 verifies (badCRC counts complete blocks that do
// not — with hop-conserved transports that stays zero; the check is
// the receiver's, not the simulator's).
func usableBlocks(received []byte, blocks, blockBytes int) (usable, badCRC int) {
	stride := imageStride(blockBytes)
	for b := 0; b < blocks; b++ {
		if (b+1)*stride > len(received) {
			break
		}
		blk := received[b*stride : b*stride+blockBytes]
		if imageCRC(blk) == received[b*stride+blockBytes] {
			usable++
		} else {
			badCRC++
		}
	}
	return usable, badCRC
}

// defaultRangeM is the stream and image points' default link length,
// and the image sweep's concurrent-load range.
const defaultRangeM = 25.0

// StreamPoint parameterizes one reliable stream transfer over a
// single link: Bytes payload bytes from a sender to a receiver RangeM
// meters away, under the selective-repeat ARQ transport.
type StreamPoint struct {
	// RangeM separates the endpoints (default defaultRangeM).
	RangeM float64
	// Bytes sizes the payload.
	Bytes int
	// Window is the ARQ sender window in segments (default
	// aquago.DefaultStreamWindow).
	Window int
	// Retries is the per-segment retransmission budget; at least 1 —
	// a stream without retransmission is the stop-and-wait failure
	// mode the transport exists to fix.
	Retries int
	// RTOS pins the retransmission backoff quantum in virtual seconds
	// (0 = the node's adaptive quantum).
	RTOS float64
	// Mode selects envelope or waveform contention.
	Mode aquago.ContentionMode
	// Seed drives channels, MAC backoffs and the payload bytes.
	Seed int64
	// Workers sizes the network's scheduler pool (results are
	// worker-count independent).
	Workers int
	// Env is the deployment site (zero value = Bridge).
	Env aquago.Environment
}

// Resolved returns the point with its defaults filled in: the point
// RunStreamPoint runs, and the one cmd/aquanet prints.
func (p StreamPoint) Resolved() StreamPoint {
	if p.RangeM == 0 {
		p.RangeM = defaultRangeM
	}
	if p.Window == 0 {
		p.Window = aquago.DefaultStreamWindow
	}
	return p
}

// Validate rejects parameter combinations that cannot run;
// cmd/aquanet stream surfaces these to users.
func (p StreamPoint) Validate() error {
	p = p.Resolved()
	switch {
	case math.IsNaN(p.RangeM) || math.IsInf(p.RangeM, 0) || p.RangeM <= 0:
		return fmt.Errorf("stream: range %v m is not a usable distance", p.RangeM)
	case p.Bytes < 1:
		return fmt.Errorf("stream: need a payload, got %d bytes", p.Bytes)
	case p.Bytes > maxBulkBytes:
		return fmt.Errorf("stream: %d payload bytes exceed the %d cap", p.Bytes, maxBulkBytes)
	case p.Window < 1 || p.Window > aquago.MaxStreamWindow:
		return fmt.Errorf("stream: window %d outside [1, %d]", p.Window, aquago.MaxStreamWindow)
	case p.Retries < 1:
		return fmt.Errorf("stream: retransmission budget must be at least 1, got %d (0 is the stop-and-wait failure mode this transport replaces)", p.Retries)
	case math.IsNaN(p.RTOS) || math.IsInf(p.RTOS, 0) || p.RTOS < 0:
		return fmt.Errorf("stream: retransmission quantum %v s is not a usable duration", p.RTOS)
	case p.Mode != aquago.EnvelopeContention && p.Mode != aquago.WaveformContention:
		return fmt.Errorf("stream: unknown contention mode %d", p.Mode)
	}
	return nil
}

// StreamResult reports one stream transfer. Every field is a
// deterministic function of the point.
type StreamResult struct {
	// Bytes is the payload size; DeliveredBytes the receiver's
	// in-order frontier when the stream finished (== Bytes unless
	// Degraded).
	Bytes, DeliveredBytes int
	// Segments/Attempts/Retransmits/DupSegments mirror
	// aquago.StreamStats.
	Segments, Attempts, Retransmits, DupSegments int
	// Degraded marks a stream that died with its budget exhausted (or
	// another failure) before full acknowledgment; the delivered
	// prefix is still counted.
	Degraded bool
	// FirstByteS is arrival of the first in-order byte; LatencyS the
	// whole transfer's span; GoodputBPS delivered payload bits over
	// it.
	FirstByteS, LatencyS, GoodputBPS float64
}

// RunStreamPoint drives one payload through a stream over a single
// link and measures it.
func RunStreamPoint(p StreamPoint) (StreamResult, error) {
	if err := p.Validate(); err != nil {
		return StreamResult{}, err
	}
	p = p.Resolved()
	env := p.Env
	if env.Name == "" {
		env = aquago.Bridge
	}
	net, err := aquago.NewNetwork(env,
		aquago.WithNetworkSeed(p.Seed),
		aquago.WithContentionMode(p.Mode),
		aquago.WithNetworkWorkers(p.Workers),
	)
	if err != nil {
		return StreamResult{}, err
	}
	src, err := net.Join(0, aquago.Position{Z: 1}, aquago.WithNodeClock(0))
	if err != nil {
		return StreamResult{}, err
	}
	if _, err := net.Join(1, aquago.Position{X: p.RangeM, Z: 1}, aquago.WithNodeClock(0)); err != nil {
		return StreamResult{}, err
	}
	payload := make([]byte, p.Bytes)
	rand.New(rand.NewSource(p.Seed*9241 + 5)).Read(payload)

	st, err := src.OpenStream(context.Background(), 1,
		aquago.WithStreamWindow(p.Window),
		aquago.WithStreamRetries(p.Retries),
		aquago.WithStreamRTO(p.RTOS),
	)
	if err != nil {
		return StreamResult{}, err
	}
	return driveStream(st, payload)
}

// driveStream writes the payload, closes the write side, drains the
// read side and folds the stream's accounting into a StreamResult.
// A stream failure degrades the result instead of erroring: the
// delivered prefix still counts (retransmit-or-degrade).
func driveStream(st *aquago.Stream, payload []byte) (StreamResult, error) {
	if _, err := st.Write(payload); err != nil {
		return StreamResult{}, fmt.Errorf("stream: write: %w", err)
	}
	if err := st.CloseWrite(); err != nil {
		return StreamResult{}, fmt.Errorf("stream: close write: %w", err)
	}
	received, rerr := io.ReadAll(st)
	werr := st.Wait(context.Background())
	stats := st.Stats()
	out := StreamResult{
		Bytes:          len(payload),
		DeliveredBytes: stats.BytesDelivered,
		Segments:       stats.Segments,
		Attempts:       stats.Attempts,
		Retransmits:    stats.Retransmits,
		DupSegments:    stats.DupSegments,
		FirstByteS:     st.FrontierAtS(1),
		LatencyS:       stats.EndS - stats.StartS,
	}
	switch {
	case rerr != nil && !isStreamFailure(rerr):
		return out, fmt.Errorf("stream: read: %w", rerr)
	case rerr != nil || werr != nil:
		out.Degraded = true
	}
	if len(received) != out.DeliveredBytes {
		return out, fmt.Errorf("stream: read %d bytes, frontier says %d", len(received), out.DeliveredBytes)
	}
	for i := range received {
		if received[i] != payload[i] {
			return out, fmt.Errorf("stream: byte %d corrupted in flight", i)
		}
	}
	if out.LatencyS > 0 {
		out.GoodputBPS = float64(8*out.DeliveredBytes) / out.LatencyS
	}
	return out, nil
}

// isStreamFailure reports whether a read error is the stream's own
// failure taxonomy (degrade) rather than a harness bug (error out).
func isStreamFailure(err error) bool {
	var serr *aquago.StreamError
	return errors.As(err, &serr) ||
		errors.Is(err, aquago.ErrStreamClosed) ||
		errors.Is(err, aquago.ErrNoACK) ||
		errors.Is(err, aquago.ErrChannelBusy) ||
		errors.Is(err, aquago.ErrTxCancelled)
}

// ImagePoint parameterizes one progressive image transmission:
// Blocks blocks of BlockBytes bytes (each with a CRC-8 trailer on the
// wire), considered previewable once the first PreviewBlocks blocks
// verify. Hops <= 1 sends the image over a direct stream (Streams of
// them concurrently for the load axis); Hops >= 2 relays it down a
// line on the ARQ-backed pipelined bulk transfer.
type ImagePoint struct {
	// Blocks and BlockBytes shape the image; PreviewBlocks is the
	// usable-preview threshold (default ceil(Blocks/4)).
	Blocks, BlockBytes, PreviewBlocks int
	// Hops selects the transport: <= 1 a direct stream over one link
	// of RangeM meters; >= 2 the pipelined bulk relay down a line of
	// Hops hops spaced RangeM apart.
	Hops int
	// RangeM is the link length (direct) or hop spacing (relay);
	// default defaultRangeM.
	RangeM float64
	// Streams is how many identical images cross the pod concurrently
	// (load axis; only with Hops <= 1). Default 1.
	Streams int
	// Window, Retries, RTOS configure the ARQ exactly as in
	// StreamPoint (Retries doubles as the relay's bulk retry budget
	// on the hops axis).
	Window  int
	Retries int
	RTOS    float64
	// Mode selects envelope or waveform contention.
	Mode aquago.ContentionMode
	// Seed drives channels, MAC backoffs and the image bytes.
	Seed int64
	// Workers sizes the network's scheduler pool.
	Workers int
	// Env is the deployment site (zero value = Bridge).
	Env aquago.Environment
}

// Resolved returns the point with its defaults filled in: the point
// RunImagePoint runs, and the one cmd/aquanet prints.
func (p ImagePoint) Resolved() ImagePoint {
	if p.RangeM == 0 {
		p.RangeM = defaultRangeM
	}
	if p.Window == 0 {
		p.Window = aquago.DefaultStreamWindow
	}
	if p.Streams == 0 {
		p.Streams = 1
	}
	if p.PreviewBlocks == 0 {
		p.PreviewBlocks = (p.Blocks + 3) / 4
	}
	return p
}

// Validate rejects unusable image points.
func (p ImagePoint) Validate() error {
	p = p.Resolved()
	switch {
	case p.Blocks < 1:
		return fmt.Errorf("image: need at least one block, got %d", p.Blocks)
	case p.BlockBytes < 1:
		return fmt.Errorf("image: need at least one byte per block, got %d", p.BlockBytes)
	case p.Blocks*imageStride(p.BlockBytes) > maxBulkBytes:
		return fmt.Errorf("image: %d wire bytes exceed the %d cap", p.Blocks*imageStride(p.BlockBytes), maxBulkBytes)
	case p.PreviewBlocks < 1 || p.PreviewBlocks > p.Blocks:
		return fmt.Errorf("image: preview threshold %d outside [1, %d]", p.PreviewBlocks, p.Blocks)
	case p.Hops < 0:
		return fmt.Errorf("image: negative hop count %d", p.Hops)
	case p.Hops > 59:
		return fmt.Errorf("image: %d hops need %d nodes, over the 60-device limit", p.Hops, p.Hops+1)
	case p.Streams < 1 || p.Streams > 8:
		return fmt.Errorf("image: concurrent stream count %d outside [1, 8]", p.Streams)
	case p.Streams > 1 && p.Hops > 1:
		return fmt.Errorf("image: the load axis (%d streams) runs on direct links, not a %d-hop relay", p.Streams, p.Hops)
	case math.IsNaN(p.RangeM) || math.IsInf(p.RangeM, 0) || p.RangeM <= 0:
		return fmt.Errorf("image: range %v m is not a usable distance", p.RangeM)
	case p.Window < 1 || p.Window > aquago.MaxStreamWindow:
		return fmt.Errorf("image: window %d outside [1, %d]", p.Window, aquago.MaxStreamWindow)
	case p.Retries < 1:
		return fmt.Errorf("image: retransmission budget must be at least 1, got %d", p.Retries)
	case math.IsNaN(p.RTOS) || math.IsInf(p.RTOS, 0) || p.RTOS < 0:
		return fmt.Errorf("image: retransmission quantum %v s is not a usable duration", p.RTOS)
	case p.Mode != aquago.EnvelopeContention && p.Mode != aquago.WaveformContention:
		return fmt.Errorf("image: unknown contention mode %d", p.Mode)
	}
	return nil
}

// ImageResult reports one progressive image transmission (aggregated
// over concurrent streams on the load axis).
type ImageResult struct {
	// Blocks is per image; UsableBlocks/BadCRCBlocks sum over all
	// images in the point.
	Blocks, UsableBlocks, BadCRCBlocks int
	// DeliveredBytes counts wire bytes (CRC trailers included) that
	// arrived in order; Attempts, Retransmits and DupSegments mirror
	// the transport accounting (DupSegments stays 0 on the relay
	// axis — the bulk pipeline has no receive window to absorb into).
	DeliveredBytes, Attempts, Retransmits, DupSegments int
	// Degraded marks a transfer that exhausted a retransmission
	// budget and fell back to its delivered prefix.
	Degraded bool
	// FirstPreviewS is the virtual time until the first PreviewBlocks
	// blocks of every image verified (0 when some image never got
	// there); TotalS the whole transfer's span; GoodputBPS usable
	// image bits (CRC overhead excluded) over TotalS.
	FirstPreviewS, TotalS, GoodputBPS float64
}

// RunImagePoint transmits a progressive image and measures goodput
// and time-to-first-usable-preview.
func RunImagePoint(p ImagePoint) (ImageResult, error) {
	if err := p.Validate(); err != nil {
		return ImageResult{}, err
	}
	p = p.Resolved()
	if p.Hops > 1 {
		return runImageRelay(p)
	}
	return runImageStreams(p)
}

// runImageStreams sends Streams identical images over direct links
// inside one pod: pair i is nodes (2i, 2i+1), every node within one
// collision domain, so concurrent images contend for the channel.
// Images are written whole, stream by stream, from one goroutine —
// a deterministic enqueue pattern; the dispatch gate interleaves the
// segments by (priority, seq).
func runImageStreams(p ImagePoint) (ImageResult, error) {
	env := p.Env
	if env.Name == "" {
		env = aquago.Bridge
	}
	net, err := aquago.NewNetwork(env,
		aquago.WithNetworkSeed(p.Seed),
		aquago.WithContentionMode(p.Mode),
		aquago.WithNetworkWorkers(p.Workers),
	)
	if err != nil {
		return ImageResult{}, err
	}
	// Pair i sits on its own row, RangeM apart; rows 6 m apart keep
	// every node inside one (unlimited-CS) collision domain without
	// stacking transmitters on top of each other.
	for i := 0; i < p.Streams; i++ {
		if _, err := net.Join(aquago.DeviceID(2*i),
			aquago.Position{Y: float64(i) * 6, Z: 1}, aquago.WithNodeClock(0)); err != nil {
			return ImageResult{}, err
		}
		if _, err := net.Join(aquago.DeviceID(2*i+1),
			aquago.Position{X: p.RangeM, Y: float64(i) * 6, Z: 1}, aquago.WithNodeClock(0)); err != nil {
			return ImageResult{}, err
		}
	}
	payload := imagePayload(p.Blocks, p.BlockBytes, p.Seed)
	previewBytes := p.PreviewBlocks * imageStride(p.BlockBytes)

	streams := make([]*aquago.Stream, p.Streams)
	for i := range streams {
		src, _ := net.Node(aquago.DeviceID(2 * i))
		st, err := src.OpenStream(context.Background(), aquago.DeviceID(2*i+1),
			aquago.WithStreamWindow(p.Window),
			aquago.WithStreamRetries(p.Retries),
			aquago.WithStreamRTO(p.RTOS),
		)
		if err != nil {
			return ImageResult{}, err
		}
		streams[i] = st
	}
	out := ImageResult{Blocks: p.Blocks}
	for _, st := range streams {
		if _, err := st.Write(payload); err != nil {
			return out, fmt.Errorf("image: write: %w", err)
		}
		if err := st.CloseWrite(); err != nil {
			return out, fmt.Errorf("image: close write: %w", err)
		}
	}
	preview := 0.0
	for _, st := range streams {
		if werr := st.Wait(context.Background()); werr != nil {
			if !isStreamFailure(werr) {
				return out, fmt.Errorf("image: stream: %w", werr)
			}
			out.Degraded = true
		}
		stats := st.Stats()
		received := make([]byte, stats.BytesDelivered)
		if _, err := io.ReadFull(st, received); err != nil {
			return out, fmt.Errorf("image: read delivered prefix: %w", err)
		}
		usable, bad := usableBlocks(received, p.Blocks, p.BlockBytes)
		out.UsableBlocks += usable
		out.BadCRCBlocks += bad
		out.DeliveredBytes += stats.BytesDelivered
		out.Attempts += stats.Attempts
		out.Retransmits += stats.Retransmits
		out.DupSegments += stats.DupSegments
		if end := stats.EndS; end > out.TotalS {
			out.TotalS = end
		}
		at := st.FrontierAtS(previewBytes)
		if at == 0 {
			preview = 0
			out.Degraded = true
		} else if preview >= 0 && at > preview {
			preview = at
		}
		if preview == 0 {
			// One image never reached its preview; the point has no
			// time-to-preview. Poison further maxing.
			preview = -1
		}
	}
	if preview > 0 {
		out.FirstPreviewS = preview
	}
	if out.TotalS > 0 {
		out.GoodputBPS = float64(8*out.UsableBlocks*p.BlockBytes) / out.TotalS
	}
	return out, nil
}

// runImageRelay sends the image down a relay line of Hops hops on the
// ARQ-backed pipelined bulk transfer; per-packet arrival times
// (BulkResult.PacketEndS) clock the progressive preview.
func runImageRelay(p ImagePoint) (ImageResult, error) {
	env := p.Env
	if env.Name == "" {
		env = aquago.Bridge
	}
	net, err := aquago.NewNetwork(env,
		aquago.WithNetworkSeed(p.Seed),
		aquago.WithContentionMode(p.Mode),
		aquago.WithCSRange(1.2*p.RangeM),
		aquago.WithBulkRetries(p.Retries),
	)
	if err != nil {
		return ImageResult{}, err
	}
	path := make([]aquago.DeviceID, p.Hops+1)
	for i := range path {
		if _, err := net.Join(aquago.DeviceID(i),
			aquago.Position{X: float64(i) * p.RangeM, Z: 1}, aquago.WithNodeClock(0)); err != nil {
			return ImageResult{}, err
		}
		path[i] = aquago.DeviceID(i)
	}
	payload := imagePayload(p.Blocks, p.BlockBytes, p.Seed)
	previewBytes := p.PreviewBlocks * imageStride(p.BlockBytes)

	res, serr := net.SendBulkViaPipelined(context.Background(), path, payload)
	out := ImageResult{Blocks: p.Blocks}
	if serr != nil {
		var herr *aquago.RelayError
		if !errors.As(serr, &herr) {
			return out, fmt.Errorf("image: relay: %w", serr)
		}
		out.Degraded = true
	}
	usable, bad := usableBlocks(res.Received, p.Blocks, p.BlockBytes)
	out.UsableBlocks = usable
	out.BadCRCBlocks = bad
	out.DeliveredBytes = res.DeliveredBytes
	out.Attempts = res.Attempts
	out.Retransmits = res.Retries
	out.TotalS = res.EndS
	// The preview completes when ALL packets up to the one carrying
	// its last byte have arrived — with per-packet retries the
	// pipeline can finish packet k+1 before packet k, so take the max
	// over the prefix, not the last entry.
	previewPkt := (previewBytes + 1) / 2
	if previewPkt <= len(res.PacketEndS) {
		for _, at := range res.PacketEndS[:previewPkt] {
			if at > out.FirstPreviewS {
				out.FirstPreviewS = at
			}
		}
	} else {
		out.Degraded = true
	}
	if out.TotalS > 0 {
		out.GoodputBPS = float64(8*out.UsableBlocks*p.BlockBytes) / out.TotalS
	}
	return out, nil
}

// imageSweep parameterizes the harness; the golden test runs a
// reduced copy directly.
type imageSweep struct {
	blocks, blockBytes, previewBlocks int
	retries                           int
	// rangesM sweeps the direct-stream link length; hops the relay
	// line; streams the concurrent-load axis (at defaultRangeM).
	rangesM []float64
	hops    []int
	streams []int
}

func defaultImageSweep(quick bool) imageSweep {
	// The Bridge link is clean to ~70 m and dead past ~80 m; the
	// 72-80 m band is marginal, where per-attempt outcomes differ and
	// retransmission visibly recovers (or the budget dies and the
	// image degrades). The range sweep straddles that band on
	// purpose: healthy, ARQ-recovering, cliff.
	if quick {
		return imageSweep{
			blocks: 4, blockBytes: 3, previewBlocks: 1, retries: 3,
			rangesM: []float64{25, 72, 80},
			hops:    []int{1, 2, 3},
			streams: []int{1, 2},
		}
	}
	return imageSweep{
		blocks: 8, blockBytes: 7, previewBlocks: 2, retries: 4,
		rangesM: []float64{25, 50, 65, 72, 76, 80},
		hops:    []int{1, 2, 3, 4, 5},
		streams: []int{1, 2, 3},
	}
}

// Image is the progressive image transmission harness: image goodput
// and time-to-first-usable-preview versus link range (direct stream),
// hop count (ARQ-backed pipelined relay) and concurrent image count
// (one pod's collision domain).
func Image(cfg RunConfig) (Report, error) {
	cfg = cfg.withDefaults()
	return imageReport(cfg, defaultImageSweep(cfg.Quick))
}

// imageReport runs the sweep on the experiment worker pool.
func imageReport(cfg RunConfig, sw imageSweep) (Report, error) {
	rep := Report{
		ID:    "image",
		Title: "Progressive image transmission: image goodput and time-to-first-usable-preview vs range, hops and load",
	}
	base := ImagePoint{
		Blocks: sw.blocks, BlockBytes: sw.blockBytes, PreviewBlocks: sw.previewBlocks,
		Retries: sw.retries,
		Mode:    aquago.EnvelopeContention,
	}

	// Axis 1: one stream vs link range.
	rangeResults, err := parallelMap(cfg.Workers, len(sw.rangesM), func(i int) (ImageResult, error) {
		pt := base
		pt.RangeM = sw.rangesM[i]
		pt.Seed = cfg.Seed + int64(i)*6133
		return RunImagePoint(pt)
	})
	if err != nil {
		return rep, err
	}
	good := Series{Name: "image goodput vs range (stream)", XLabel: "range m", YLabel: "goodput bps"}
	prev := Series{Name: "time to first usable preview vs range (stream)", XLabel: "range m", YLabel: "preview s"}
	for i, r := range rangeResults {
		good.X = append(good.X, sw.rangesM[i])
		good.Y = append(good.Y, r.GoodputBPS)
		prev.X = append(prev.X, sw.rangesM[i])
		prev.Y = append(prev.Y, r.FirstPreviewS)
	}
	rep.Series = append(rep.Series, good, prev)
	first, last := rangeResults[0], rangeResults[len(rangeResults)-1]
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"stream image (%d blocks x %d B + CRC): %.0f m %.1f bps, preview %.1f s -> %.0f m %.1f bps, preview %.1f s (%d/%d blocks usable, %d retransmit(s))",
		sw.blocks, sw.blockBytes, sw.rangesM[0], first.GoodputBPS, first.FirstPreviewS,
		sw.rangesM[len(sw.rangesM)-1], last.GoodputBPS, last.FirstPreviewS,
		last.UsableBlocks, last.Blocks, last.Retransmits))

	// Axis 2: the same image down a relay line (ARQ-backed pipelined
	// bulk; packet arrival times clock the preview).
	hopResults, err := parallelMap(cfg.Workers, len(sw.hops), func(i int) (ImageResult, error) {
		pt := base
		pt.Hops = sw.hops[i]
		pt.Seed = cfg.Seed + int64(i)*4967
		return RunImagePoint(pt)
	})
	if err != nil {
		return rep, err
	}
	good = Series{Name: "image goodput vs hops (relay)", XLabel: "hops", YLabel: "goodput bps"}
	prev = Series{Name: "time to first usable preview vs hops (relay)", XLabel: "hops", YLabel: "preview s"}
	for i, r := range hopResults {
		good.X = append(good.X, float64(sw.hops[i]))
		good.Y = append(good.Y, r.GoodputBPS)
		prev.X = append(prev.X, float64(sw.hops[i]))
		prev.Y = append(prev.Y, r.FirstPreviewS)
	}
	rep.Series = append(rep.Series, good, prev)
	lastHop := hopResults[len(hopResults)-1]
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"relayed image: %d hop(s) %.1f bps, preview %.1f s (%d/%d blocks usable, %d relay retransmit(s))",
		sw.hops[len(sw.hops)-1], lastHop.GoodputBPS, lastHop.FirstPreviewS,
		lastHop.UsableBlocks, lastHop.Blocks, lastHop.Retransmits))

	// Axis 3: concurrent images through one collision domain.
	loadResults, err := parallelMap(cfg.Workers, len(sw.streams), func(i int) (ImageResult, error) {
		pt := base
		pt.Streams = sw.streams[i]
		pt.Seed = cfg.Seed + int64(i)*5881
		return RunImagePoint(pt)
	})
	if err != nil {
		return rep, err
	}
	good = Series{Name: "image goodput vs concurrent streams (pod)", XLabel: "streams", YLabel: "aggregate goodput bps"}
	prev = Series{Name: "time to first usable preview vs concurrent streams (pod)", XLabel: "streams", YLabel: "worst preview s"}
	for i, r := range loadResults {
		good.X = append(good.X, float64(sw.streams[i]))
		good.Y = append(good.Y, r.GoodputBPS)
		prev.X = append(prev.X, float64(sw.streams[i]))
		prev.Y = append(prev.Y, r.FirstPreviewS)
	}
	rep.Series = append(rep.Series, good, prev)
	lastLoad := loadResults[len(loadResults)-1]
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"concurrent images (%.0f m pod): %d stream(s) aggregate %.1f bps, worst preview %.1f s (%d retransmit(s), %d dup(s) absorbed)",
		defaultRangeM, sw.streams[len(sw.streams)-1], lastLoad.GoodputBPS, lastLoad.FirstPreviewS,
		lastLoad.Retransmits, lastLoad.DupSegments))
	return rep, nil
}
