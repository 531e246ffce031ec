package aquago

import (
	"context"
	"fmt"
	"io"
)

// This file is the reliable stream transport: a selective-repeat
// sliding-window ARQ running above the async transmit subsystem
// (txq.go). The link protocol underneath is the paper's stop-and-wait
// exchange — one packet, one ACK, a small retry budget — which makes
// a single dead packet fatal to anything longer than a packet. A
// Stream turns that into a connected byte pipe: the payload chunks
// into sequence-numbered segments, a bounded window of them rides the
// node's TxBulk queue concurrently, the link-layer ACK of each
// exchange doubles as a selective acknowledgment, and unacknowledged
// segments retransmit on the virtual clock with exponentially backed
// NotBeforeS floors until a bounded retry budget runs out.
//
// Framing. The protocol's payload is 16 bits, so a segment carries
// [seq byte, data byte]: one payload byte per segment, with the
// segment's absolute index modulo 256 as the on-air sequence number.
// The classic selective-repeat correctness bound applies: with an
// 8-bit sequence space the window must not exceed half the space
// (MaxStreamWindow = 128), or a late duplicate would be
// indistinguishable from a new segment. The receiver demaps a wire
// sequence number relative to its in-order frontier; anything half a
// space behind is a duplicate of a segment it already advanced past
// (the ACK was lost — the two-generals cost resurfacing one level up).
//
// Timers without wall time. A retransmission "timer" is not a
// time.Timer — aqualint's wallclock analyzer forbids those in the
// core — but a NotBeforeS floor on the requeued job: the retransmit
// becomes ready on the virtual timeline at (previous attempt's end +
// quantum * 2^tries) and then contends through the dispatch gate and
// the MAC like any other send. The quantum is the node's adaptive
// backoff quantum (the last committed attempt's actual on-air
// duration, PR 7) when one exists, else the conservative full-band
// airtime; WithStreamRTO pins it.
//
// Engine. A stream is a transfer (transfer.go) over a one-hop path,
// the engine the bulk relay rides: [seq, data] framing, a window that
// slides with the cumulative acknowledgment base, hops that complete on
// acknowledgment for the sender and on decode for the receiver, and a
// failure that withdraws every outstanding segment. All ARQ state is
// guarded by the network's transmit queue lock and mutated only from
// Write/CloseWrite/Close (program order) and job continuations, so
// stream results are worker-count invariant whenever the caller's own
// enqueue pattern is deterministic.

const (
	// DefaultStreamWindow is the sender window (segments in flight)
	// when WithStreamWindow is not given.
	DefaultStreamWindow = 8
	// MaxStreamWindow bounds the window to half the 8-bit on-air
	// sequence space, the selective-repeat ambiguity limit.
	MaxStreamWindow = 128
	// DefaultStreamRetries is the per-segment retransmission budget
	// (transmissions beyond the first) when WithStreamRetries is not
	// given. Each transmission is itself a full link-layer exchange
	// with the network's own retry budget, so the end-to-end attempt
	// count per segment is (1 + retries) * (1 + network retries).
	DefaultStreamRetries = 4

	// streamSeqSpace is the on-air sequence space: one byte.
	streamSeqSpace = 256
)

// StreamOption customizes Node.OpenStream.
type StreamOption func(*streamConfig)

type streamConfig struct {
	window     int
	maxRetries int
	rtoS       float64
}

// WithStreamWindow sets the sender window: how many segments may be
// in flight (queued or on the air) beyond the cumulative
// acknowledgment frontier. Must be in [1, MaxStreamWindow]; default
// DefaultStreamWindow.
func WithStreamWindow(segments int) StreamOption {
	return func(c *streamConfig) { c.window = segments }
}

// WithStreamRetries sets the per-segment retransmission budget:
// transmissions beyond the first before the stream fails with a
// *StreamError. 0 disables retransmission (a single lost segment
// kills the stream, the stop-and-wait behavior the transport exists
// to fix); must not be negative. Default DefaultStreamRetries.
func WithStreamRetries(n int) StreamOption {
	return func(c *streamConfig) { c.maxRetries = n }
}

// WithStreamRTO pins the retransmission backoff quantum in virtual
// seconds: retransmission k of a segment becomes ready quantum*2^(k-1)
// after the failed attempt left the air. Zero (the default) uses the
// node's adaptive quantum — its last committed attempt's actual
// on-air duration when one exists, else the full-band worst case.
// Must be finite and non-negative.
func WithStreamRTO(seconds float64) StreamOption {
	return func(c *streamConfig) { c.rtoS = seconds }
}

// StreamStats is a snapshot of a stream's ARQ accounting
// (Stream.Stats).
type StreamStats struct {
	// BytesWritten counts bytes accepted by Write; BytesAcked the
	// sender's cumulative+selective acknowledgment progress;
	// BytesDelivered the receiver's in-order frontier (bytes available
	// to Read, whether or not read yet).
	BytesWritten, BytesAcked, BytesDelivered int
	// Segments counts distinct segments first transmitted (a segment
	// withdrawn before its first attempt is not counted); Attempts
	// the physical link-layer transmission attempts underneath them
	// (the link protocol's own retries included); Retransmits the ARQ
	// retransmissions scheduled above the link layer.
	Segments, Attempts, Retransmits int
	// DupSegments counts deliveries the receiver discarded as
	// duplicates — segments retransmitted because only their ACK was
	// lost.
	DupSegments int
	// MaxReorder is the largest out-of-order reassembly buffer the
	// receiver held (segments past a gap in the in-order frontier).
	MaxReorder int
	// Window is the configured sender window.
	Window int
	// StartS is the source's virtual clock when the stream opened;
	// EndS the latest virtual time any segment's final attempt left
	// the air.
	StartS, EndS float64
}

// Stream is a reliable in-order byte stream between two nodes, from
// Node.OpenStream. Write appends payload bytes and returns without
// waiting for the air; the ARQ machinery slices them into
// sequence-numbered segments and keeps a bounded window of them in
// the source's TxBulk queue, so conversational traffic overtakes a
// stream at every dispatch. Read returns the receiver's in-order
// bytes, blocking while the pipe is empty. CloseWrite marks the end
// of the payload; after it, Read drains to io.EOF and Wait blocks
// until every byte is acknowledged or the stream has failed.
//
// A stream fails — Write/Read/Wait return a *StreamError wrapping the
// cause — when a segment exhausts its retransmission budget, the
// context is cancelled, either node leaves, or the source's queue is
// full (ErrQueueFull) with no segment of the stream queued or on the
// air; a segment that finds the queue full while others are waits for
// the next completion. Failure never corrupts delivered data: the
// receiver's in-order prefix remains readable.
//
// Methods are safe for concurrent use.
type Stream struct {
	t      *transfer
	startS float64
	// Guarded by t.n.tx.mu: readOff counts the delivered bytes Read
	// has consumed; closed marks Close.
	readOff int
	closed  bool
}

// OpenStream opens a reliable byte stream to dst — the
// selective-repeat ARQ transport over the node's TxBulk queue; see
// Stream for the semantics. ctx governs the whole stream: cancelling
// it fails the stream and aborts its outstanding segments. Errors at
// open: ErrUnknownDevice, ErrBadDeviceID (self), ErrNodeLeft, and
// ErrBadStream for an invalid option (window outside
// [1, MaxStreamWindow], negative retries, non-finite or negative
// RTO).
func (nd *Node) OpenStream(ctx context.Context, dst DeviceID, opts ...StreamOption) (*Stream, error) {
	cfg := streamConfig{window: DefaultStreamWindow, maxRetries: DefaultStreamRetries}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.window < 1 || cfg.window > MaxStreamWindow {
		return nil, fmt.Errorf("%w: window %d outside [1, %d]", ErrBadStream, cfg.window, MaxStreamWindow)
	}
	if cfg.maxRetries < 0 {
		return nil, fmt.Errorf("%w: negative retry budget %d", ErrBadStream, cfg.maxRetries)
	}
	if !(cfg.rtoS >= 0) || cfg.rtoS > 1e12 { // rejects NaN, negatives and infinities in one comparison
		return nil, fmt.Errorf("%w: retransmission quantum %v is not a finite non-negative duration", ErrBadStream, cfg.rtoS)
	}
	n := nd.net
	n.tx.mu.Lock()
	defer n.tx.mu.Unlock()
	n.mu.Lock()
	if n.departed[nd.idx] {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: source %d", ErrNodeLeft, nd.id)
	}
	peer, err := n.peerLocked(nd, dst)
	startS := nd.clockS
	n.mu.Unlock()
	if err != nil {
		return nil, err
	}
	t := n.newTransfer(ctx, []*Node{nd, peer}, nil, 0)
	t.stream, t.window, t.retries, t.rtoS = true, cfg.window, cfg.maxRetries, cfg.rtoS
	return &Stream{t: t, startS: startS}, nil
}

// Write appends p to the stream's payload and returns immediately;
// the window machinery transmits it as queue space and the window
// allow. It never blocks on the air. Errors: the stream's failure
// cause after a failure, ErrStreamClosed after Close or CloseWrite.
func (s *Stream) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	t := s.t
	t.n.tx.mu.Lock()
	defer t.n.tx.mu.Unlock()
	switch {
	case t.err != nil:
		return 0, t.err
	case s.closed:
		return 0, fmt.Errorf("%w: write on closed stream", ErrStreamClosed)
	case t.sealed:
		return 0, fmt.Errorf("%w: write after CloseWrite", ErrStreamClosed)
	}
	t.data = append(t.data, p...)
	t.units = append(t.units, make([]unitState, len(p))...)
	t.pumpLocked()
	t.n.txEvaluateLocked()
	return len(p), nil
}

// CloseWrite marks the end of the payload: no more Writes are
// accepted, the receive side drains to io.EOF, and Wait unblocks once
// every written byte is acknowledged. It does not cancel outstanding
// segments. Idempotent.
func (s *Stream) CloseWrite() error {
	t := s.t
	t.n.tx.mu.Lock()
	defer t.n.tx.mu.Unlock()
	if t.sealed || s.closed || t.err != nil {
		return nil
	}
	t.sealed = true
	t.wakeLocked()
	t.finishIfDoneLocked()
	return nil
}

// Read copies in-order received bytes into p, blocking while none are
// available. After CloseWrite it drains the remaining bytes and then
// returns io.EOF; after a failure it drains the delivered in-order
// prefix and then returns the failure.
func (s *Stream) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	t := s.t
	t.n.tx.mu.Lock()
	defer t.n.tx.mu.Unlock()
	for {
		switch {
		case s.readOff < t.front:
			k := copy(p, t.data[s.readOff:t.front])
			s.readOff += k
			return k, nil
		case t.sealed && t.front == len(t.units):
			// Everything written was delivered in order — EOF even if
			// the sender side later failed chasing lost ACKs.
			return 0, io.EOF
		case t.err != nil:
			return 0, t.err
		}
		if t.wake == nil {
			t.wake = make(chan struct{})
		}
		w := t.wake
		t.n.tx.mu.Unlock()
		<-w
		t.n.tx.mu.Lock()
	}
}

// Done returns a channel closed when the stream is terminal: failed,
// or write side closed with every segment acknowledged.
func (s *Stream) Done() <-chan struct{} { return s.t.done }

// Wait blocks until the stream is terminal (returning nil on full
// acknowledgment, the failure cause otherwise) or ctx expires. The
// stream only becomes terminal after CloseWrite — an open write side
// may always carry more data.
func (s *Stream) Wait(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-s.t.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.t.n.tx.mu.Lock()
	defer s.t.n.tx.mu.Unlock()
	return s.t.err
}

// Close tears the stream down: outstanding segments are withdrawn or
// aborted and subsequent Writes fail with ErrStreamClosed. Closing a
// completed stream is a no-op; closing a live one fails it (Read
// still drains the delivered prefix). Always returns nil.
func (s *Stream) Close() error {
	t := s.t
	t.n.tx.mu.Lock()
	s.closed = true
	if !t.finished && t.err == nil {
		t.failLocked(-1, 0, fmt.Errorf("%w: stream closed with %d byte(s) unacknowledged", ErrStreamClosed, len(t.units)-t.base))
		t.n.txEvaluateLocked()
		t.n.txCheckIdleLocked()
	}
	t.n.tx.mu.Unlock()
	t.cancel()
	return nil
}

// Stats returns a snapshot of the stream's ARQ accounting.
func (s *Stream) Stats() StreamStats {
	t := s.t
	t.n.tx.mu.Lock()
	defer t.n.tx.mu.Unlock()
	return StreamStats{
		BytesWritten: len(t.data), BytesAcked: t.acked, BytesDelivered: t.front,
		Segments: t.aired, Attempts: t.attempts, Retransmits: t.retransmits,
		DupSegments: t.dups, MaxReorder: t.maxReorder, Window: t.window,
		StartS: s.startS, EndS: t.endS,
	}
}

// FrontierAtS returns the virtual time the receiver's in-order
// frontier first covered n bytes (1 <= n <= Stats().BytesDelivered),
// or 0 when the frontier has not reached n yet. The progressive-image
// workload reads time-to-first-usable-preview off it.
func (s *Stream) FrontierAtS(n int) float64 {
	t := s.t
	t.n.tx.mu.Lock()
	defer t.n.tx.mu.Unlock()
	if n < 1 || n > len(t.frontS) {
		return 0
	}
	return t.frontS[n-1]
}
