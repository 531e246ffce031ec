package aquago

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
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
// airtime; WithStreamRTO pins it. The floor rule is retryFloorS,
// shared with the bulk relay.
//
// Determinism. All ARQ state is guarded by the network's transmit
// queue lock and mutated only from Write/CloseWrite/Close (program
// order) and job continuations (txJob.after, which run atomically
// under tx.mu before any unblocked job dispatches) — the same
// contract the bulk relay rides. Stream results are
// therefore worker-count invariant whenever the caller's own enqueue
// pattern is deterministic.

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
	// streamBackoffCap caps the retransmission backoff exponent.
	streamBackoffCap = 6
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
	// Segments counts distinct segments first transmitted; Attempts
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

// streamRetry is one parked retransmission: segment seg becomes ready
// at floorS on the virtual timeline.
type streamRetry struct {
	seg    int
	floorS float64
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
// context is cancelled, or either node leaves. Failure never corrupts
// delivered data: the receiver's in-order prefix remains readable.
//
// Methods are safe for concurrent use.
type Stream struct {
	n   *Network
	src *Node
	dst *Node
	cfg streamConfig

	ctx    context.Context
	cancel context.CancelFunc

	// Everything below is guarded by n.tx.mu and mutated only from
	// public methods (program order) and job continuations (atomic
	// under completion processing).

	// buf holds every byte written; segment i carries buf[i].
	buf []byte
	// base is the cumulative acknowledgment frontier (lowest unacked
	// segment); next the first never-transmitted segment; acked and
	// tries track per-segment state.
	base, next int
	acked      []bool
	tries      []int
	// inflight maps segment -> its current job handle (queued or on
	// the air); retryQ holds retransmissions parked while the node's
	// queue is at capacity.
	inflight map[int]*TxHandle
	retryQ   []streamRetry

	// Receiver state: rcvd is the out-of-order reassembly buffer,
	// frontier the in-order byte count, readBuf the bytes Read has not
	// yet consumed, frontierAtS[i] the virtual time the in-order
	// frontier first covered i+1 bytes.
	rcvd        map[int]byte
	frontier    int
	readBuf     []byte
	frontierAtS []float64

	closedWrite bool
	closed      bool
	failed      error
	// wake is closed (and recreated on demand) whenever readable
	// state changes; Read parks on it.
	wake chan struct{}
	// done closes once the stream is terminal: failed, or write side
	// closed with every segment acknowledged.
	done       chan struct{}
	doneClosed bool

	stats StreamStats
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
	if ctx == nil {
		ctx = context.Background()
	}
	n := nd.net
	n.tx.mu.Lock()
	defer n.tx.mu.Unlock()
	n.mu.Lock()
	if nd.departed {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: source %d", ErrNodeLeft, nd.id)
	}
	peer, err := n.peerLocked(nd, dst)
	startS := nd.clockS
	n.mu.Unlock()
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &Stream{
		n: n, src: nd, dst: peer, cfg: cfg,
		ctx: sctx, cancel: cancel,
		inflight: make(map[int]*TxHandle),
		rcvd:     make(map[int]byte),
		done:     make(chan struct{}),
	}
	s.stats.Window = cfg.window
	s.stats.StartS = startS
	return s, nil
}

// Write appends p to the stream's payload and returns immediately;
// the window machinery transmits it as queue space and the window
// allow. It never blocks on the air. Errors: the stream's failure
// cause after a failure, ErrStreamClosed after Close or CloseWrite.
func (s *Stream) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	s.n.tx.mu.Lock()
	defer s.n.tx.mu.Unlock()
	switch {
	case s.failed != nil:
		return 0, s.failed
	case s.closed:
		return 0, fmt.Errorf("%w: write on closed stream", ErrStreamClosed)
	case s.closedWrite:
		return 0, fmt.Errorf("%w: write after CloseWrite", ErrStreamClosed)
	}
	s.buf = append(s.buf, p...)
	s.acked = append(s.acked, make([]bool, len(p))...)
	s.tries = append(s.tries, make([]int, len(p))...)
	s.stats.BytesWritten += len(p)
	s.pumpLocked()
	s.n.txEvaluateLocked()
	return len(p), nil
}

// CloseWrite marks the end of the payload: no more Writes are
// accepted, the receive side drains to io.EOF, and Wait unblocks once
// every written byte is acknowledged. It does not cancel outstanding
// segments. Idempotent.
func (s *Stream) CloseWrite() error {
	s.n.tx.mu.Lock()
	defer s.n.tx.mu.Unlock()
	if s.closedWrite || s.closed || s.failed != nil {
		return nil
	}
	s.closedWrite = true
	s.wakeLocked()
	s.finishIfDoneLocked()
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
	s.n.tx.mu.Lock()
	for {
		if len(s.readBuf) > 0 {
			k := copy(p, s.readBuf)
			s.readBuf = s.readBuf[k:]
			s.n.tx.mu.Unlock()
			return k, nil
		}
		if s.closedWrite && s.frontier == len(s.buf) {
			// Everything written was delivered in order — EOF even if
			// the sender side later failed chasing lost ACKs.
			s.n.tx.mu.Unlock()
			return 0, io.EOF
		}
		if s.failed != nil {
			err := s.failed
			s.n.tx.mu.Unlock()
			return 0, err
		}
		if s.wake == nil {
			s.wake = make(chan struct{})
		}
		w := s.wake
		s.n.tx.mu.Unlock()
		<-w
		s.n.tx.mu.Lock()
	}
}

// Done returns a channel closed when the stream is terminal: failed,
// or write side closed with every segment acknowledged.
func (s *Stream) Done() <-chan struct{} { return s.done }

// Wait blocks until the stream is terminal (returning nil on full
// acknowledgment, the failure cause otherwise) or ctx expires. The
// stream only becomes terminal after CloseWrite — an open write side
// may always carry more data.
func (s *Stream) Wait(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-s.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.n.tx.mu.Lock()
	defer s.n.tx.mu.Unlock()
	return s.failed
}

// Close tears the stream down: outstanding segments are withdrawn or
// aborted and subsequent Writes fail with ErrStreamClosed. Closing a
// completed stream is a no-op; closing a live one fails it (Read
// still drains the delivered prefix). Always returns nil.
func (s *Stream) Close() error {
	s.n.tx.mu.Lock()
	s.closed = true
	if !s.doneClosed && s.failed == nil {
		s.failLocked(fmt.Errorf("%w: stream closed with %d byte(s) unacknowledged", ErrStreamClosed, len(s.buf)-s.base))
		s.n.txEvaluateLocked()
		s.n.txCheckIdleLocked()
	}
	s.wakeLocked()
	s.finishIfDoneLocked()
	s.n.tx.mu.Unlock()
	s.cancel()
	return nil
}

// Stats returns a snapshot of the stream's ARQ accounting.
func (s *Stream) Stats() StreamStats {
	s.n.tx.mu.Lock()
	defer s.n.tx.mu.Unlock()
	return s.stats
}

// FrontierAtS returns the virtual time the receiver's in-order
// frontier first covered n bytes (1 <= n <= Stats().BytesDelivered),
// or 0 when the frontier has not reached n yet. The progressive-image
// workload reads time-to-first-usable-preview off it.
func (s *Stream) FrontierAtS(n int) float64 {
	s.n.tx.mu.Lock()
	defer s.n.tx.mu.Unlock()
	if n < 1 || n > len(s.frontierAtS) {
		return 0
	}
	return s.frontierAtS[n-1]
}

// pumpLocked keeps the window full: parked retransmissions first
// (they hold the oldest outstanding data), then never-sent segments
// up to base+window, stopping while the node's transmit queue is at
// capacity (tx.mu held). Callers own gate re-evaluation.
func (s *Stream) pumpLocked() {
	if s.failed != nil || s.closed {
		return
	}
	for len(s.retryQ) > 0 {
		if s.src.txq.n >= s.n.cfg.txQueueCap {
			s.stallCheckLocked()
			return
		}
		e := s.retryQ[0]
		s.retryQ = s.retryQ[1:]
		s.enqueueSegLocked(e.seg, e.floorS)
		if s.failed != nil {
			return
		}
	}
	for s.next < len(s.buf) && s.next < s.base+s.cfg.window {
		if s.src.txq.n >= s.n.cfg.txQueueCap {
			s.stallCheckLocked()
			return
		}
		s.stats.Segments++
		seg := s.next
		s.next++
		s.enqueueSegLocked(seg, 0)
		if s.failed != nil {
			return
		}
	}
}

// stallCheckLocked fails the stream when the queue is full of foreign
// traffic and the stream has nothing in flight — no future completion
// of ours would ever re-pump, so waiting would hang forever (tx.mu
// held).
func (s *Stream) stallCheckLocked() {
	if len(s.inflight) == 0 {
		s.failLocked(fmt.Errorf("%w: node %d transmit queue full with no stream segment in flight", ErrQueueFull, s.src.id))
	}
}

// enqueueSegLocked queues segment seg's transmission with the given
// ready floor (tx.mu held). An enqueue rejection fails the stream —
// pumpLocked's capacity check means it only trips on real errors
// (node left).
func (s *Stream) enqueueSegLocked(seg int, floorS float64) {
	s.tries[seg]++
	raw := [2]byte{byte(seg % streamSeqSpace), s.buf[seg]}
	h, err := s.n.txEnqueueLocked(s.src, s.dst, TxBulk, floorS, &raw, 0, 0, relayCtx{}, s.ctx, nil, s.segDone(seg))
	if err != nil {
		s.failLocked(&StreamError{Seq: seg, From: s.src.id, To: s.dst.id, Err: err})
		return
	}
	s.inflight[seg] = h
}

// segDone builds segment seg's completion continuation. It runs under
// tx.mu inside completion processing, atomically before any newly
// unblocked job dispatches — the same slot the bulk relay
// forwards packets from.
func (s *Stream) segDone(seg int) func(TxDelivery) {
	return func(d TxDelivery) {
		delete(s.inflight, seg)
		s.stats.Attempts += d.Result.Attempts
		if d.EndS > s.stats.EndS {
			s.stats.EndS = d.EndS
		}
		if d.Result.Delivered {
			// Possession is decode, not acknowledgment: the receiver
			// holds the segment even when every ACK was lost.
			s.recvLocked(seg, d.EndS)
		}
		switch {
		case s.failed != nil || s.closed:
			// The stream died while this segment was on the air.
		case d.Err == nil && d.Result.Acknowledged:
			s.ackLocked(seg)
		default:
			s.retryOrFailLocked(seg, d)
		}
		s.wakeLocked()
		s.finishIfDoneLocked()
	}
}

// streamRetryable reports whether a segment failure is worth a
// retransmission: lost ACKs and busy channels are transient; context
// cancellation and node departure are not.
func streamRetryable(err error) bool {
	return errors.Is(err, ErrNoACK) || errors.Is(err, ErrChannelBusy)
}

// retryOrFailLocked handles an unacknowledged segment completion:
// schedule a backed-off retransmission while budget remains, fail the
// stream otherwise (tx.mu held).
func (s *Stream) retryOrFailLocked(seg int, d TxDelivery) {
	ferr := d.Err
	if ferr == nil {
		ferr = ErrNoACK
	}
	if !streamRetryable(ferr) || s.tries[seg] > s.cfg.maxRetries {
		s.failLocked(&StreamError{Seq: seg, From: s.src.id, To: s.dst.id, Err: ferr})
		return
	}
	s.stats.Retransmits++
	floorS := retryFloorS(s.src, d.EndS, ferr, s.tries[seg]-1, s.cfg.rtoS)
	s.retryQ = append(s.retryQ, streamRetry{seg: seg, floorS: floorS})
	s.pumpLocked()
}

// recvLocked is the receiver: demap the wire sequence number relative
// to the in-order frontier, discard duplicates, buffer out-of-order
// segments and advance the frontier over contiguous data (tx.mu
// held). endS is the delivering attempt's virtual arrival time.
func (s *Stream) recvLocked(seg int, endS float64) {
	// Delivered means the decode was bit-exact, so the wire bytes are
	// the sent bytes; demap honestly from the 8-bit on-air number.
	wire := seg % streamSeqSpace
	rel := (wire - s.frontier%streamSeqSpace + streamSeqSpace) % streamSeqSpace
	if rel >= MaxStreamWindow {
		// Half a sequence space behind the frontier: a duplicate of a
		// segment already advanced past (only its ACK was lost).
		s.stats.DupSegments++
		return
	}
	abs := s.frontier + rel
	if _, dup := s.rcvd[abs]; dup || abs >= len(s.buf) {
		s.stats.DupSegments++
		return
	}
	s.rcvd[abs] = s.buf[abs]
	if len(s.rcvd) > s.stats.MaxReorder {
		s.stats.MaxReorder = len(s.rcvd)
	}
	for {
		b, ok := s.rcvd[s.frontier]
		if !ok {
			break
		}
		delete(s.rcvd, s.frontier)
		s.readBuf = append(s.readBuf, b)
		s.frontierAtS = append(s.frontierAtS, endS)
		s.frontier++
	}
	s.stats.BytesDelivered = s.frontier
}

// ackLocked records segment seg's selective acknowledgment, slides
// the cumulative base over contiguous acked segments and refills the
// window (tx.mu held).
func (s *Stream) ackLocked(seg int) {
	if !s.acked[seg] {
		s.acked[seg] = true
		s.stats.BytesAcked++
	}
	for s.base < s.next && s.acked[s.base] {
		s.base++
	}
	s.pumpLocked()
}

// failLocked marks the stream failed, drops parked retransmissions
// and withdraws outstanding segments: queued jobs resolve immediately
// (their continuations re-enter segDone synchronously and take the
// already-failed path), inflight ones get their contexts cancelled
// and resolve through their own completions (tx.mu held).
func (s *Stream) failLocked(err error) {
	if s.failed != nil {
		return
	}
	s.failed = err
	s.retryQ = nil
	// Withdrawals resolve handles in continuation order, so cancel in
	// segment order, never the map's randomized one.
	segs := make([]int, 0, len(s.inflight))
	//aqualint:order-independent keys are collected then sorted before use
	for seg := range s.inflight {
		segs = append(segs, seg)
	}
	sort.Ints(segs)
	for _, seg := range segs {
		h, ok := s.inflight[seg]
		if !ok {
			// A synchronous cancellation continuation already resolved it.
			continue
		}
		switch h.job.state {
		case txQueued:
			s.n.txCancelQueuedLocked(h.job, fmt.Errorf("%w: stream failed", ErrTxCancelled))
		case txInflight:
			if !h.job.cancelled {
				h.job.cancelled = true
				h.job.cancel()
			}
		}
	}
	s.wakeLocked()
	s.finishIfDoneLocked()
}

// wakeLocked releases parked Readers (tx.mu held). Close, never send:
// every waiter re-checks state under the lock.
func (s *Stream) wakeLocked() {
	if s.wake != nil {
		close(s.wake)
		s.wake = nil
	}
}

// finishIfDoneLocked closes the terminal channel once no segment is
// outstanding and the stream is either failed or fully acknowledged
// with its write side closed (tx.mu held).
func (s *Stream) finishIfDoneLocked() {
	if s.doneClosed || len(s.inflight) != 0 || len(s.retryQ) != 0 {
		return
	}
	switch {
	case s.failed != nil:
	case s.closedWrite && s.base == len(s.buf):
	default:
		return
	}
	s.doneClosed = true
	close(s.done)
	s.cancel()
}
