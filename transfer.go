package aquago

import (
	"context"
	"errors"
	"fmt"
)

// This file is the one transfer engine under the bulk relay (relay.go)
// and the reliable stream (stream.go). A transfer moves 2-byte frames
// ("units") along a node path: every hop of every unit is a TxBulk job
// on the sending node's transmit queue (txq.go), and the job's
// completion continuation (txJob.after, which runs under tx.mu before
// any newly unblocked job dispatches) forwards the unit, parks a
// backed-off retry, fails the transfer or records the unit at the
// destination, then refills the window. Every transfer decision is
// made in program order or inside a continuation, so transfers are
// worker-count invariant under the dispatch gate's contract.
//
// The engine owns admission, the handle table, per-unit retry budgets,
// parked hops, the ordered withdrawal on failure and the destination's
// in-order record. What differs between its three callers —
// SendBulkVia, SendBulkViaPipelined and Node.OpenStream — is whether
// the transfer is a stream, its window and its retry budget, set by
// those constructors; none of the rest is user-settable.

// retryBackoffCap caps the retransmission backoff exponent of every
// transfer.
const retryBackoffCap = 6

// retryFloorS is the one retransmission-floor rule of every transfer:
// the virtual-clock ready floor for retransmission try+1 of a send from
// nd that failed at endS is an exponential backoff
// quantumS·2^min(try, retryBackoffCap) from the attempt's end — or from
// the MAC's busy-until time when the channel never granted access, or
// the node's own clock when the send never reached the air at all. A
// zero quantumS means the node's backoff quantum (its adapted airtime
// when one exists, else the full-band worst case).
func retryFloorS(nd *Node, endS float64, ferr error, try int, quantumS float64) float64 {
	floor := endS
	var busy *ChannelBusyError
	if errors.As(ferr, &busy) && busy.BusyUntilS > floor {
		floor = busy.BusyUntilS
	}
	if floor == 0 {
		floor = nd.ClockS()
	}
	if quantumS == 0 {
		quantumS = nd.backoffQuantumS()
	}
	return floor + quantumS*float64(int(1)<<min(try, retryBackoffCap))
}

// retryable reports whether a hop failure is worth a retransmission:
// lost ACKs and busy channels are transient; context cancellation and
// node departure are not.
func retryable(err error) bool {
	return errors.Is(err, ErrNoACK) || errors.Is(err, ErrChannelBusy)
}

// transfer is one transfer's state. Everything mutable is guarded by
// the network's tx.mu.
type transfer struct {
	n      *Network
	ctx    context.Context
	cancel context.CancelFunc
	nodes  []*Node
	path   []DeviceID
	// data is the payload: unit u is byte u of a stream, bytes 2u and
	// 2u+1 of a bulk payload (one for a short final unit).
	data []byte

	// Per-caller fields, set by the constructors. A stream frames a
	// unit as [seq mod 256, byte]; its hop completes on acknowledgment
	// for the sender and on possession for the receiver, and a failure
	// withdraws every unit. A bulk transfer frames [d0, d1], completes
	// a hop on possession for both (hopFailed), stamps StageEvents with
	// the hop and packet, and lets the units before a failed one
	// finish. A window frees its slots as the cumulative end-to-end
	// base passes them, except in the pipelined relay (bulk, window
	// above one), where a slot frees once its unit is past hop 0; only
	// the one-packet relay (bulk, window one) splices its path under
	// motion, since with more in flight units would disagree about it.
	stream  bool
	window  int
	retries int     // per-unit retransmission budget on each hop
	rtoS    float64 // retryFloorS quantum; 0 means the node's own
	// sealed marks that no more units will be added: bulk from the
	// start, the stream at CloseWrite.
	sealed bool

	units []unitState
	next  int // first unit not yet admitted
	base  int // lowest unit not complete end to end
	live  int // units with a job queued or on the air
	acked int // units complete end to end
	// cleared counts the units past hop 0: their forward is queued, or
	// hop 0 was the last. A forward parked at a full relay keeps its
	// unit's pipelined window slot, so parked hops are no hidden queue.
	cleared int
	// parked holds hops waiting to queue: forwards and retries, in the
	// order they became due, until the transfer's next pump.
	parked                          []parkedHop
	attempts, retransmits, reroutes int
	aired                           int     // units with unitState.aired set
	endS                            float64 // latest EndS of any job

	// err is the failure, wrapped for the caller (nil while healthy).
	// After a failure, units above cut are withdrawn and their late
	// completions change nothing: cut is the failed unit for bulk, -1
	// for the stream.
	err      error
	cut      int
	finished bool
	done     chan struct{}
	// wake is closed (and recreated on demand) whenever the
	// destination's record or the transfer's state changes.
	wake chan struct{}

	// The destination's in-order record: the frontier front (every
	// unit below it delivered in order), the units arrived beyond it,
	// and the time the frontier covered each unit.
	front, pending   int
	maxReorder, dups int
	frontS           []float64
}

// unitState is one unit's sender and destination state.
type unitState struct {
	job   *txJob // its queued or on-air hop job
	tries int    // retransmissions on its current hop
	done  bool   // complete end to end
	aired bool   // a hop-0 job of it made an attempt on the air
	// arrived, band and endS describe its arrival at the destination.
	arrived bool
	band    Band
	endS    float64
}

// parkedHop is a unit's hop job waiting to queue, ready at floorS.
type parkedHop struct {
	u, hop int
	floorS float64
}

// newTransfer starts a transfer of units units of data along nodes
// under ctx (nil means context.Background()); the caller sets the
// per-caller fields.
func (n *Network) newTransfer(ctx context.Context, nodes []*Node, data []byte, units int) *transfer {
	if ctx == nil {
		ctx = context.Background()
	}
	tctx, cancel := context.WithCancel(ctx)
	t := &transfer{
		n: n, ctx: tctx, cancel: cancel, data: data,
		units: make([]unitState, units), done: make(chan struct{}),
	}
	t.setNodes(nodes)
	return t
}

// setNodes makes nodes the transfer's path.
func (t *transfer) setNodes(nodes []*Node) {
	t.nodes = nodes
	t.path = make([]DeviceID, len(nodes))
	for i, nd := range nodes {
		t.path[i] = nd.id
	}
}

// pumpLocked queues parked hops whose sender has queue space, in the
// order they parked, then admits new units at the source while the
// window allows. A hop that finds its sender's queue full stays parked
// for the transfer's next completion; the transfer fails with
// ErrQueueFull only when nothing of it is queued or on the air to bring
// one (tx.mu held). Callers own gate re-evaluation.
func (t *transfer) pumpLocked() {
	parked := t.parked
	t.parked = nil
	for _, p := range parked {
		if !t.sendLocked(p) {
			t.parked = append(t.parked, p)
		}
	}
	stalled := false
	for t.err == nil && t.next < len(t.units) && t.next < t.freed()+t.window {
		if stalled = !t.sendLocked(parkedHop{u: t.next}); stalled {
			break
		}
		t.next++
	}
	if t.live > 0 || len(t.parked) == 0 && !stalled {
		return
	}
	// Fail at the lowest stuck unit, so the failure cuts every other.
	u, hop := len(t.units), 0
	if stalled {
		u = t.next
	}
	for _, p := range t.parked {
		if p.u < u {
			u, hop = p.u, p.hop
		}
	}
	nd := t.nodes[hop]
	t.failLocked(u, hop, fmt.Errorf("%w: node %d at capacity %d", ErrQueueFull, nd.id, t.n.cfg.txQueueCap))
}

// freed counts the units whose window slots are free again.
func (t *transfer) freed() int {
	if !t.stream && t.window > 1 {
		return t.cleared
	}
	return t.base
}

// sendLocked queues unit u's job for hop p.hop, floored at p.floorS,
// after route maintenance. It reports false, queueing nothing, when the
// sender's queue is full; any other failure fails the transfer (tx.mu
// held).
func (t *transfer) sendLocked(p parkedHop) bool {
	u, hop := p.u, p.hop
	if !t.stream && t.window == 1 {
		if err := t.rerouteLocked(hop); err != nil {
			t.failLocked(u, hop, err)
			return true
		}
	}
	nd := t.nodes[hop]
	if nd.txq.n >= t.n.cfg.txQueueCap {
		return false
	}
	var frame [2]byte
	var rc relayCtx
	if t.stream {
		frame = [2]byte{byte(u % streamSeqSpace), t.data[u]}
	} else {
		copy(frame[:], t.data[2*u:min(2*u+2, len(t.data))])
		rc = relayCtx{hop: hop, pathHops: len(t.nodes) - 1, bulkPkt: u, bulkPkts: len(t.units)}
	}
	h, err := t.n.txEnqueueLocked(nd, t.nodes[hop+1], TxBulk, p.floorS, &frame, 0, 0, rc, t.ctx, nil,
		func(d TxDelivery) { t.hopDoneLocked(u, hop, d) })
	if err != nil {
		t.failLocked(u, hop, err)
		return true
	}
	t.units[u].job = h.job
	t.live++
	if hop == 1 && t.units[u].tries == 0 {
		t.cleared++ // a forward, not a retry
	}
	return true
}

// rerouteLocked is the one-packet relay's route maintenance, run before
// every hop job: rerouteBulkHop's splice becomes the transfer's path
// (tx.mu held).
func (t *transfer) rerouteLocked(hop int) error {
	spliced, changed, err := t.n.rerouteBulkHop(t.nodes, hop)
	if err != nil || !changed {
		return err
	}
	t.setNodes(spliced)
	t.reroutes++
	return nil
}

// hopDoneLocked is the continuation of unit u's job for hop: it runs
// under tx.mu inside completion processing, atomically before any
// newly unblocked job dispatches. A forward or retry parks and the pump
// queues it before admitting new units, so it takes the older dispatch
// key — otherwise the source's ever-younger hop-0 jobs would starve
// every relay behind them.
func (t *transfer) hopDoneLocked(u, hop int, d TxDelivery) {
	us := &t.units[u]
	us.job = nil
	t.live--
	t.attempts += d.Result.Attempts
	if hop == 0 && d.Result.Attempts > 0 && !us.aired {
		us.aired = true
		t.aired++
	}
	t.endS = max(t.endS, d.EndS)
	held, err := t.hopOutcome(d)
	if held && hop+2 == len(t.nodes) {
		t.arriveLocked(u, d.Result.Last.Band, d.EndS)
	}
	switch {
	case t.err != nil && u > t.cut:
		// The transfer failed while this unit was on the air.
	case err != nil && retryable(err) && us.tries < t.retries:
		// Transient loss: retransmit this hop after a backed-off floor,
		// so the retry re-contends instead of hammering the channel.
		t.retransmits++
		t.parked = append(t.parked, parkedHop{u, hop, retryFloorS(t.nodes[hop], d.EndS, err, us.tries, t.rtoS)})
		us.tries++
	case err != nil:
		t.failLocked(u, hop, err)
	default:
		us.tries = 0
		if hop+2 < len(t.nodes) {
			// Forward: the next relay holds the unit once the last
			// attempt's final sample arrived, and may contend after a
			// turnaround. The retry budget restarts per hop.
			t.parked = append(t.parked, parkedHop{u, hop + 1, d.EndS + relayTurnaroundS})
			break
		}
		if hop == 0 {
			t.cleared++
		}
		us.done = true
		t.acked++
		for t.base < t.next && t.units[t.base].done {
			t.base++
		}
	}
	t.pumpLocked()
	t.wakeLocked()
	t.finishIfDoneLocked()
}

// hopOutcome reads a hop job's delivery: whether the receiver now holds
// the unit, and the error that keeps the sender from counting the hop
// done (nil when it is done).
func (t *transfer) hopOutcome(d TxDelivery) (held bool, err error) {
	if !t.stream {
		err = hopFailed(d.Result, d.Err)
		return err == nil, err
	}
	// Possession is decode, not acknowledgment: the receiver holds the
	// unit even when every ACK was lost.
	if err = d.Err; err == nil && !d.Result.Acknowledged {
		err = ErrNoACK
	}
	return d.Result.Delivered, err
}

// arriveLocked is the destination's in-order record: unit u reached it
// on band at endS. Duplicates are counted and dropped, and the frontier
// advances over contiguous arrivals (tx.mu held).
func (t *transfer) arriveLocked(u int, band Band, endS float64) {
	if t.stream {
		// Demap the 8-bit on-air sequence number relative to the
		// frontier: half a space behind it is a duplicate of a unit
		// already advanced past (only its ACK was lost).
		rel := (u%streamSeqSpace - t.front%streamSeqSpace + streamSeqSpace) % streamSeqSpace
		if rel >= MaxStreamWindow {
			t.dups++
			return
		}
		u = t.front + rel
	}
	if u >= len(t.units) || t.units[u].arrived {
		t.dups++
		return
	}
	us := &t.units[u]
	us.arrived, us.band, us.endS = true, band, endS
	t.pending++
	t.maxReorder = max(t.maxReorder, t.pending)
	for ; t.front < len(t.units) && t.units[t.front].arrived; t.front++ {
		t.frontS = append(t.frontS, endS)
		t.pending--
	}
}

// failLocked fails the transfer at unit u's hop (u < 0: at no unit,
// err already final), keeping the lowest failed unit when units before
// a failure may finish, and withdraws what the failure cuts in unit
// order: queued jobs resolve at once (their continuations run
// synchronously and change nothing), inflight ones get their contexts
// cancelled and resolve through their own completions (tx.mu held).
func (t *transfer) failLocked(u, hop int, err error) {
	if t.err != nil && (t.stream || u >= t.cut) {
		return
	}
	switch {
	case u < 0:
	case t.stream:
		err = &StreamError{Seq: u, From: t.path[0], To: t.path[1], Err: err}
	default:
		err = &RelayError{Hop: hop, From: t.path[hop], To: t.path[hop+1], Path: t.path, Pkt: u, Err: err}
	}
	t.err, t.cut = err, u
	if t.stream {
		t.cut = -1
	}
	kept := t.parked[:0]
	for _, p := range t.parked {
		if p.u < t.cut {
			kept = append(kept, p)
		}
	}
	t.parked = kept
	reason := fmt.Errorf("%w: transfer failed", ErrTxCancelled)
	for v := t.cut + 1; v < t.next; v++ {
		if j := t.units[v].job; j != nil {
			t.n.txAbortLocked(j, reason)
		}
	}
	t.wakeLocked()
	t.finishIfDoneLocked()
}

// wakeLocked releases parked readers (tx.mu held). Close, never send:
// every waiter re-checks state under the lock.
func (t *transfer) wakeLocked() {
	if t.wake != nil {
		close(t.wake)
		t.wake = nil
	}
}

// finishIfDoneLocked ends the transfer once nothing of it is queued,
// on the air or parked, and it either failed or is sealed with every
// unit complete end to end (tx.mu held).
func (t *transfer) finishIfDoneLocked() {
	if t.finished || t.live != 0 || len(t.parked) != 0 || t.err == nil && !(t.sealed && t.base == len(t.units)) {
		return
	}
	t.finished = true
	close(t.done)
	t.cancel()
}
