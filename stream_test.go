package aquago_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"aquago"
)

// Stream tests run on a two-node Bridge link. streamCleanRangeM
// decodes every attempt; streamMarginalRangeM sits in the 72-80 m
// band where individual attempts fail and the selective-repeat
// machinery — retransmission, out-of-order buffering, duplicate
// absorption — actually has work to do.
const (
	streamCleanRangeM    = 25.0
	streamMarginalRangeM = 76.0
)

// streamOutcome is everything observable about one stream transfer,
// collected so golden tests can deep-equal whole runs.
type streamOutcome struct {
	Received []byte
	Stats    aquago.StreamStats
	WaitErr  string
	// WaitClass names the sentinel the Wait error wraps (relayErrClass)
	// and WaitSeq its *StreamError segment, -1 when it carries none.
	WaitClass string
	WaitSeq   int
	// FrontierAtS[i] is Stream.FrontierAtS(i+1) for every delivered byte.
	FrontierAtS []float64
}

// runStream opens a stream over a rangeM link, pushes the payload
// through it, and collects the outcome. Streams ride the async
// transmit queues, so workers is the determinism axis under test.
func runStream(t *testing.T, rangeM float64, seed int64, mode aquago.ContentionMode,
	workers int, payload []byte, opts ...aquago.StreamOption) streamOutcome {
	t.Helper()
	return runStreamNet(t, rangeM, seed, mode, workers, nil, payload, opts...)
}

// runStreamNet is runStream with extra network options.
func runStreamNet(t *testing.T, rangeM float64, seed int64, mode aquago.ContentionMode,
	workers int, netOpts []aquago.NetworkOption, payload []byte, opts ...aquago.StreamOption) streamOutcome {
	t.Helper()
	net, err := aquago.NewNetwork(aquago.Bridge, append([]aquago.NetworkOption{
		aquago.WithNetworkSeed(seed),
		aquago.WithContentionMode(mode),
		aquago.WithNetworkWorkers(workers),
	}, netOpts...)...)
	if err != nil {
		t.Fatal(err)
	}
	src, err := net.Join(0, aquago.Position{Z: 1}, aquago.WithNodeClock(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Join(1, aquago.Position{X: rangeM, Z: 1}, aquago.WithNodeClock(0)); err != nil {
		t.Fatal(err)
	}
	st, err := src.OpenStream(context.Background(), 1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := st.Write(payload); n != len(payload) || err != nil {
		t.Fatalf("Write wrote %d/%d bytes: %v", n, len(payload), err)
	}
	if err := st.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	received, err := io.ReadAll(st)
	if err != nil && !isStreamTermination(err) {
		t.Fatalf("Read: %v", err)
	}
	// Read drains to EOF once everything is DELIVERED; the final ACK
	// may still be on the air, so settle with Wait before snapshotting
	// the accounting.
	out := streamOutcome{Received: received, WaitSeq: -1}
	werr := st.Wait(context.Background())
	if werr != nil {
		out.WaitErr = werr.Error()
	}
	out.WaitClass = relayErrClass(werr)
	var serr *aquago.StreamError
	if errors.As(werr, &serr) {
		out.WaitSeq = serr.Seq
	}
	out.Stats = st.Stats()
	for i := 1; i <= out.Stats.BytesDelivered; i++ {
		out.FrontierAtS = append(out.FrontierAtS, st.FrontierAtS(i))
	}
	return out
}

// hashStreamOutcome folds one stream's outcome into h: received bytes,
// every StreamStats field, the frontier time of each delivered byte,
// and the Wait error's class and segment (its text is left out).
func hashStreamOutcome(h io.Writer, out streamOutcome) {
	st := out.Stats
	fmt.Fprintf(h, "rx=%x written=%d acked=%d delivered=%d segs=%d attempts=%d rexmit=%d dups=%d reorder=%d window=%d start=%x end=%x|",
		out.Received, st.BytesWritten, st.BytesAcked, st.BytesDelivered, st.Segments, st.Attempts,
		st.Retransmits, st.DupSegments, st.MaxReorder, st.Window,
		math.Float64bits(st.StartS), math.Float64bits(st.EndS))
	for _, at := range out.FrontierAtS {
		fmt.Fprintf(h, "%x,", math.Float64bits(at))
	}
	fmt.Fprintf(h, "|class=%s seq=%d\n", out.WaitClass, out.WaitSeq)
}

// isStreamTermination reports whether a read error is the stream's
// own failure taxonomy rather than a harness bug.
func isStreamTermination(err error) bool {
	var serr *aquago.StreamError
	return errors.As(err, &serr)
}

// checkStreamInvariants asserts what must hold of EVERY transfer,
// delivered or degraded: the receiver holds a contiguous prefix of
// the payload (selective repeat buffers out-of-order segments but
// releases only in order — no holes, no corruption), the accounting
// is conserved, and a clean finish means a complete payload.
func checkStreamInvariants(t *testing.T, payload []byte, out streamOutcome) {
	t.Helper()
	if !bytes.Equal(out.Received, payload[:len(out.Received)]) {
		t.Fatalf("received bytes are not a payload prefix:\nsent     %q\nreceived %q", payload, out.Received)
	}
	if out.Stats.BytesDelivered != len(out.Received) {
		t.Fatalf("frontier says %d bytes, Read drained %d", out.Stats.BytesDelivered, len(out.Received))
	}
	if out.Stats.BytesWritten != len(payload) || out.Stats.Segments > len(payload) {
		t.Fatalf("write-side accounting wrong for %d payload bytes: %+v", len(payload), out.Stats)
	}
	if out.Stats.Attempts < out.Stats.Segments {
		t.Fatalf("fewer attempts than segments sent: %+v", out.Stats)
	}
	if out.Stats.Attempts < out.Stats.BytesDelivered {
		t.Fatalf("fewer attempts than bytes delivered: %+v", out.Stats)
	}
	if out.Stats.DupSegments > 0 && out.Stats.Retransmits == 0 {
		t.Fatalf("duplicates without retransmissions: %+v", out.Stats)
	}
	if out.WaitErr == "" {
		if !bytes.Equal(out.Received, payload) {
			t.Fatalf("clean finish with missing bytes: %d of %d", len(out.Received), len(payload))
		}
		if out.Stats.BytesAcked != len(payload) {
			t.Fatalf("clean finish without full acknowledgment: %+v", out.Stats)
		}
	}
	if !(out.Stats.EndS >= out.Stats.StartS) {
		t.Fatalf("degenerate transfer window: %+v", out.Stats)
	}
}

// TestStreamGoldenSeedsWorkers is the transport's worker-count
// invariance witness: for fixed seeds, in both contention modes, the
// whole outcome — received bytes, every stat counter, the failure
// text if any — must be deeply equal with 1 worker and with 4. The
// envelope leg runs on the marginal link so retransmission and
// reordering paths are inside the golden, not just the happy path.
func TestStreamGoldenSeedsWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs marginal-link streams repeatedly")
	}
	payload := []byte("selective repeat!")
	legs := []struct {
		name   string
		rangeM float64
		mode   aquago.ContentionMode
	}{
		{"envelope-marginal", streamMarginalRangeM, aquago.EnvelopeContention},
		{"waveform-clean", streamCleanRangeM, aquago.WaveformContention},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			for _, seed := range []int64{3, 11} {
				serial := runStream(t, leg.rangeM, seed, leg.mode, 1, payload)
				parallel := runStream(t, leg.rangeM, seed, leg.mode, 4, payload)
				if !reflect.DeepEqual(serial, parallel) {
					t.Fatalf("seed %d: Workers:1 and Workers:4 outcomes differ\nserial:   %+v\nparallel: %+v",
						seed, serial, parallel)
				}
				checkStreamInvariants(t, payload, serial)
			}
		})
	}
}

// streamOutcomeDigest pins TestStreamLossMatrix's outcomes: every
// point's received bytes, StreamStats, per-byte frontier times and
// Wait error class and segment feed one FNV-64a digest, so a rewrite
// of the stream's ARQ machinery must reproduce each transfer exactly.
// Only a deliberate re-baseline, stated as such in the change that
// makes it, may update this value.
const streamOutcomeDigest = "5bfca87b4ffc47ca"

// TestStreamLossMatrix sweeps the marginal band across seeds and
// window sizes and checks the transfer invariants on every point,
// then runs the configuration corners (windows 1 and 128, no retry
// budget, a pinned RTO, a window wider than the transmit queue) on
// the marginal link. The matrix must also produce evidence that each
// selective-repeat mechanism fired somewhere: a retransmission that
// still completed the transfer, a retry-budget death that degraded
// it, and out-of-order arrival absorbed by the receive window. Every
// outcome feeds streamOutcomeDigest.
func TestStreamLossMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a stream per (range, seed, window) point")
	}
	payload := make([]byte, 24)
	rand.New(rand.NewSource(41)).Read(payload)
	h := fnv.New64a()
	var recovered, degraded, reordered bool
	check := func(name string, window int, out streamOutcome) {
		checkStreamInvariants(t, payload, out)
		if out.Stats.MaxReorder > window {
			t.Fatalf("%s: receive buffer exceeded the window: %+v", name, out.Stats)
		}
		if out.WaitErr == "" && out.Stats.Retransmits > 0 {
			recovered = true
		}
		if out.WaitErr != "" {
			degraded = true
		}
		if out.Stats.MaxReorder > 1 {
			reordered = true
		}
		t.Logf("%s: %d/%d bytes, %d retransmits, reorder %d, err %q",
			name, out.Stats.BytesDelivered, len(payload), out.Stats.Retransmits, out.Stats.MaxReorder, out.WaitErr)
		fmt.Fprintf(h, "%s ", name)
		hashStreamOutcome(h, out)
	}
	for _, rangeM := range []float64{72, 76, 78} {
		for _, window := range []int{4, 16} {
			for seed := int64(1); seed <= 4; seed++ {
				out := runStream(t, rangeM, seed, aquago.EnvelopeContention, 2, payload,
					aquago.WithStreamWindow(window))
				check(fmt.Sprintf("range=%g window=%d seed=%d", rangeM, window, seed), window, out)
			}
		}
	}
	corners := []struct {
		name    string
		window  int
		netOpts []aquago.NetworkOption
		opts    []aquago.StreamOption
	}{
		{"window1", 1, nil, nil},
		{"window128", 128, nil, nil},
		{"retries0", 8, nil, []aquago.StreamOption{aquago.WithStreamRetries(0)}},
		{"rto", 8, nil, []aquago.StreamOption{aquago.WithStreamRTO(0.35)}},
		{"queue4", 16, []aquago.NetworkOption{aquago.WithTxQueueCapacity(4)}, nil},
	}
	for _, c := range corners {
		// Seed 1 at the marginal range retransmits and reorders.
		opts := append([]aquago.StreamOption{aquago.WithStreamWindow(c.window)}, c.opts...)
		out := runStreamNet(t, streamMarginalRangeM, 1, aquago.EnvelopeContention, 2, c.netOpts, payload, opts...)
		check(c.name, c.window, out)
	}
	if !recovered || !degraded || !reordered {
		t.Fatalf("matrix never exercised the machinery (recovered %v, degraded %v, reordered %v)",
			recovered, degraded, reordered)
	}
	skipOffAMD64(t)
	if got := fmt.Sprintf("%016x", h.Sum64()); got != streamOutcomeDigest {
		t.Fatalf("stream outcome digest %s, pinned %s", got, streamOutcomeDigest)
	}
}

// TestStreamCancelMidTransfer: cancelling the OpenStream context
// after the first byte lands must fail the stream — Wait reports a
// *StreamError unwrapping to the cancellation — while the bytes
// already released to Read stay a valid prefix.
func TestStreamCancelMidTransfer(t *testing.T) {
	net, err := aquago.NewNetwork(aquago.Bridge, aquago.WithNetworkSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	src, err := net.Join(0, aquago.Position{Z: 1}, aquago.WithNodeClock(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Join(1, aquago.Position{X: streamCleanRangeM, Z: 1}, aquago.WithNodeClock(0)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	payload := make([]byte, 48)
	rand.New(rand.NewSource(17)).Read(payload)
	st, err := src.OpenStream(ctx, 1, aquago.WithStreamWindow(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := st.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	first := make([]byte, 1)
	if _, err := io.ReadFull(st, first); err != nil {
		t.Fatalf("first byte never arrived: %v", err)
	}
	if first[0] != payload[0] {
		t.Fatalf("first byte corrupted: %x != %x", first[0], payload[0])
	}
	cancel()
	werr := st.Wait(context.Background())
	if werr == nil {
		t.Fatal("cancelled stream completed cleanly")
	}
	var serr *aquago.StreamError
	if !errors.As(werr, &serr) {
		t.Fatalf("failure %v does not carry *StreamError", werr)
	}
	if !errors.Is(werr, aquago.ErrTxCancelled) && !errors.Is(werr, context.Canceled) {
		t.Fatalf("failure %v does not unwrap to the cancellation", werr)
	}
	rest, rerr := io.ReadAll(st)
	if rerr != nil && !isStreamTermination(rerr) {
		t.Fatalf("draining a cancelled stream: %v", rerr)
	}
	got := append(first, rest...)
	if !bytes.Equal(got, payload[:len(got)]) {
		t.Fatalf("delivered bytes are not a payload prefix after cancel")
	}
	if len(got) == len(payload) {
		t.Fatal("a 2-segment window cannot have delivered all 48 bytes before the cancel")
	}
}

// TestStreamCloseAndMisuse pins the lifecycle edges: writing after
// CloseWrite refuses with ErrStreamClosed, Close on a live stream
// fails it with the same sentinel, and both are visible through Wait.
func TestStreamCloseAndMisuse(t *testing.T) {
	net, err := aquago.NewNetwork(aquago.Bridge, aquago.WithNetworkSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	src, err := net.Join(0, aquago.Position{Z: 1}, aquago.WithNodeClock(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Join(1, aquago.Position{X: streamCleanRangeM, Z: 1}, aquago.WithNodeClock(0)); err != nil {
		t.Fatal(err)
	}

	t.Run("write-after-closewrite", func(t *testing.T) {
		st, err := src.OpenStream(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Write([]byte("ok")); err != nil {
			t.Fatal(err)
		}
		if err := st.CloseWrite(); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Write([]byte("more")); !errors.Is(err, aquago.ErrStreamClosed) {
			t.Fatalf("write after CloseWrite: %v", err)
		}
		if err := st.Wait(context.Background()); err != nil {
			t.Fatalf("2-byte stream on a clean link failed: %v", err)
		}
	})

	t.Run("close-live-stream", func(t *testing.T) {
		st, err := src.OpenStream(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Write(make([]byte, 32)); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		werr := st.Wait(context.Background())
		if !errors.Is(werr, aquago.ErrStreamClosed) {
			t.Fatalf("closed live stream must fail with ErrStreamClosed, got %v", werr)
		}
		if _, err := st.Write([]byte("x")); !errors.Is(err, aquago.ErrStreamClosed) {
			t.Fatalf("write after Close: %v", err)
		}
	})
}

// TestStreamOpenValidation walks OpenStream's rejection paths: every
// bad option is ErrBadStream before any traffic moves, and unknown
// peers are refused with the network's own taxonomy.
func TestStreamOpenValidation(t *testing.T) {
	net, err := aquago.NewNetwork(aquago.Bridge, aquago.WithNetworkSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	src, err := net.Join(0, aquago.Position{Z: 1}, aquago.WithNodeClock(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Join(1, aquago.Position{X: streamCleanRangeM, Z: 1}, aquago.WithNodeClock(0)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []struct {
		name string
		opts []aquago.StreamOption
	}{
		{"zero window", []aquago.StreamOption{aquago.WithStreamWindow(0)}},
		{"oversized window", []aquago.StreamOption{aquago.WithStreamWindow(aquago.MaxStreamWindow + 1)}},
		{"negative retries", []aquago.StreamOption{aquago.WithStreamRetries(-1)}},
		{"NaN timer", []aquago.StreamOption{aquago.WithStreamRTO(math.NaN())}},
		{"negative timer", []aquago.StreamOption{aquago.WithStreamRTO(-1)}},
	}
	for _, tc := range cases {
		if _, err := src.OpenStream(ctx, 1, tc.opts...); !errors.Is(err, aquago.ErrBadStream) {
			t.Errorf("%s: want ErrBadStream, got %v", tc.name, err)
		}
	}
	if _, err := src.OpenStream(ctx, 42); !errors.Is(err, aquago.ErrUnknownDevice) {
		t.Errorf("unknown peer: want ErrUnknownDevice, got %v", err)
	}
}

// TestStreamRetransmissionRecovers is the transport's headline: on a
// marginal link where attempts genuinely fail, the stream must spend
// retransmissions and still deliver the payload byte-for-byte —
// exactly the loss that kills an unprotected bulk transfer.
func TestStreamRetransmissionRecovers(t *testing.T) {
	payload := []byte("one lost packet must not kill this")
	// Seed 2 at 76 m: attempts fail, the budget covers them (seed
	// scanned once, then pinned — the channel is deterministic).
	out := runStream(t, streamMarginalRangeM, 2, aquago.EnvelopeContention, 2, payload,
		aquago.WithStreamRetries(4))
	checkStreamInvariants(t, payload, out)
	if out.WaitErr != "" {
		t.Fatalf("stream failed despite its budget: %v (%+v)", out.WaitErr, out.Stats)
	}
	if !bytes.Equal(out.Received, payload) {
		t.Fatalf("payload not conserved: %q", out.Received)
	}
	if out.Stats.Retransmits == 0 {
		t.Fatalf("marginal link spent no retransmissions — scenario lost its teeth: %+v", out.Stats)
	}
}
