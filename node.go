package aquago

import (
	"context"
	"fmt"

	"aquago/internal/app"
	"aquago/internal/mac"
	"aquago/internal/phy"
)

// NodeOption customizes Join.
type NodeOption func(*nodeConfig)

type nodeConfig struct {
	device   Device
	motion   Motion
	trace    Trace
	clockS   float64
	clockSet bool
	track    MotionTrack
	trackSet bool
}

// WithNodeDevice selects the node's device model (default Galaxy S9).
// Every link the node participates in uses it on that node's end.
func WithNodeDevice(d Device) NodeOption {
	return func(c *nodeConfig) { c.device = d }
}

// WithNodeMotion applies a motion model to the node's *channel*
// (Static, SlowMotion, FastMotion): a link between two nodes varies —
// Doppler spread, fading rate — as fast as its faster-moving end. It
// does not move the node's position; pair it with WithMotionTrack (or
// Node.SetPosition) to make the geometry actually follow the motion
// the channel models.
func WithNodeMotion(m Motion) NodeOption {
	return func(c *nodeConfig) { c.motion = m }
}

// WithNodeTrace installs a per-node stage trace, overriding the
// network-wide trace for this node's sends.
func WithNodeTrace(t Trace) NodeOption {
	return func(c *nodeConfig) { c.trace = t }
}

// WithNodeClock pins the node's initial virtual clock (the time its
// first transmission becomes ready). By default each node draws a
// seed-derived stagger in [0, 1.5) s, modelling devices that power up
// at uncoordinated instants; without it, sample-synchronized nodes
// start transmitting inside each other's propagation delay, where
// carrier sense cannot help (the CSMA vulnerability window). Pin 0 on
// several nodes to force that window deliberately.
func WithNodeClock(atS float64) NodeOption {
	return func(c *nodeConfig) { c.clockS, c.clockSet = atS, true }
}

// interSendGapS is the virtual pause a node keeps after its own
// traffic before it next becomes ready (matches the Session clock
// advance).
const interSendGapS = 0.25

// Node is one device in a Network: a protocol stack (modem, band
// adaptation, messenger), a carrier-sense contender, and a position
// in the shared water. Obtain nodes from Network.Join.
//
// Send is safe to call from any goroutine; every send is a job on the
// node's transmit queue, whose dispatch gate orders interfering
// exchanges on the shared virtual timeline and runs non-interfering
// ones in parallel. Each node keeps its own virtual clock, so one
// node's traffic delays another only through the MAC (a busy channel
// extends the other's backoff), exactly as contention works on the
// air.
type Node struct {
	net *Network
	id  DeviceID
	// tone is the on-air address the modem's ID/ACK tones carry: id
	// mod 60, unique within carrier-sense audibility (Join enforces
	// it). For IDs below 60 the tone IS the ID.
	tone DeviceID
	// idx indexes the network's per-node arrays: order, the current
	// position (pos) and Leave state (departed), both guarded by
	// net.mu.
	idx   int
	proto *phy.Protocol
	msgr  *app.Messenger
	cont  *mac.Contender
	trace Trace

	// relay is the hop context stamped onto stage events while a job
	// runs on this node (zero outside one). Only sendWith writes it and
	// only onStage, inside the exchange, reads it; both run on the
	// node's transmit daemon, and the dispatch gate never lets two jobs
	// with this node as an endpoint be inflight at once.
	relay relayCtx

	// txq is the node's async transmit queue state (txq.go), created
	// at Join; the queue's own lock (net.tx.mu) guards it.
	txq *nodeTxq

	// track is the node's motion trajectory, evaluated by
	// Network.AdvanceMotion; hasTrack gates it (immutable after Join).
	track    MotionTrack
	hasTrack bool

	// Guarded by net.mu.
	clockS   float64
	airtimeS float64
	seq      int
	// adaptAirtimeS is the last committed attempt's actual on-air
	// duration — the adapted band's airtime. Under WithAdaptiveBackoff
	// it replaces the worst-case airtimeS as the MAC backoff quantum
	// (zero until the node's first commit).
	adaptAirtimeS float64
	// pinS is the start of this node's granted, not yet committed
	// attempt (as either endpoint), pinning the log prune; +Inf when
	// none. One pin suffices: a node is an endpoint of at most one
	// inflight job.
	pinS float64
}

// relayCtx locates one hop exchange inside a multi-hop (and possibly
// bulk) transfer; see the StageEvent relay fields. txID additionally
// tags the exchange's events with the job's handle ID.
type relayCtx struct {
	hop, pathHops     int
	bulkPkt, bulkPkts int
	txID              uint64
}

// newNodeMessenger wires a messenger with the network's retry budget.
func newNodeMessenger(proto *phy.Protocol, id DeviceID, retries int) *app.Messenger {
	ms := app.NewMessenger(proto, id)
	ms.Retries = retries
	return ms
}

// ID returns the node's device ID.
func (nd *Node) ID() DeviceID { return nd.id }

// Index returns the node's index in the shared medium (join order),
// the key used by ContentionResult.PerNode.
func (nd *Node) Index() int { return nd.idx }

// Position returns where the node currently sits (position epochs —
// SetPosition, Network.AdvanceMotion — move it).
func (nd *Node) Position() Position {
	nd.net.mu.Lock()
	defer nd.net.mu.Unlock()
	return nd.net.pos[nd.idx]
}

// ClockS returns the node's virtual clock: the time its next
// transmission becomes ready.
func (nd *Node) ClockS() float64 {
	nd.net.mu.Lock()
	defer nd.net.mu.Unlock()
	return nd.clockS
}

// backoffQuantumS is the node's retransmission backoff quantum above
// the MAC: its last committed attempt's actual on-air duration (the
// adaptive quantum, see WithAdaptiveBackoff) when one exists, else
// the conservative full-band exchange airtime. The stream transport
// and the relay retry loops scale their virtual-clock retransmission
// floors by it.
func (nd *Node) backoffQuantumS() float64 {
	nd.net.mu.Lock()
	defer nd.net.mu.Unlock()
	if nd.adaptAirtimeS > 0 {
		return nd.adaptAirtimeS
	}
	return nd.airtimeS
}

// AdvanceClock idles the node until atS on the shared virtual
// timeline: its next transmission becomes ready no earlier than atS.
// The clock never moves backward — a time at or before the current
// clock is a no-op — so callers can replay an offered-load schedule
// ("a message arrives at t") without tracking how far the node's own
// traffic already pushed it. Advancing an otherwise idle node also
// unpins the envelope and waveform logs, which are pruned at the
// minimum virtual time any node could still act at.
func (nd *Node) AdvanceClock(atS float64) {
	nd.net.mu.Lock()
	defer nd.net.mu.Unlock()
	if atS > nd.clockS {
		nd.clockS = atS
	}
}

// onStage routes protocol stage events to the node's trace, falling
// back to the network-wide trace, stamping the relay hop context on
// the way through. The node trace is serialized by the dispatch gate
// (one inflight job per node); the shared network trace is serialized
// explicitly, since exchanges on non-interfering pairs run in
// parallel.
func (nd *Node) onStage(ev phy.StageEvent) {
	ev.Hop = nd.relay.hop
	ev.PathHops = nd.relay.pathHops
	ev.BulkPkt = nd.relay.bulkPkt
	ev.BulkPkts = nd.relay.bulkPkts
	ev.TxID = nd.relay.txID
	switch {
	case nd.trace != nil:
		nd.trace.OnStage(ev)
	case nd.net.cfg.trace != nil:
		nd.net.traceMu.Lock()
		//aqualint:callback-under-lock Trace documents OnStage as quick and never re-entering the session, node or network; traceMu is the leaf of the lock order and only serializes the shared trace across parallel exchanges
		nd.net.cfg.trace.OnStage(ev)
		nd.net.traceMu.Unlock()
	}
}

// MediumTo returns the two-direction medium between this node and
// dst, built from their geometry: Forward carries this node's voice,
// Backward the destination's. It is the bridge to the two-endpoint
// API — a Session can run over it directly, making SimulatedWater +
// Session the 2-node special case of a Network.
//
// The medium realizes the same channel Node.Send uses (same seeds)
// but owns fresh link state, so driving it concurrently with network
// traffic is safe; it bypasses the MAC and the envelope accounting.
func (nd *Node) MediumTo(dst DeviceID) (Medium, error) {
	n := nd.net
	n.mu.Lock()
	defer n.mu.Unlock()
	peer, err := n.peerLocked(nd, dst)
	if err != nil {
		return nil, err
	}
	return n.links.DetachedPair(nd.idx, peer.idx)
}

// peerLocked resolves a destination ID against the joined-node table
// with the taxonomy every pair lookup shares: ErrUnknownDevice for a
// device that never joined, ErrBadDeviceID for the node itself (a
// device cannot be its own peer — previously MediumTo(self) leaked a
// raw internal "no link" error instead). Callers hold n.mu.
func (n *Network) peerLocked(nd *Node, dst DeviceID) (*Node, error) {
	peer, ok := n.nodes[dst]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownDevice, dst)
	}
	if peer == nd {
		return nil, fmt.Errorf("%w: node %d cannot pair with itself", ErrBadDeviceID, dst)
	}
	if n.departed[peer.idx] {
		return nil, fmt.Errorf("%w: destination %d", ErrNodeLeft, dst)
	}
	return peer, nil
}

// Send delivers one or two codebook messages to dst through the full
// adaptive protocol, gated per attempt by the carrier-sense MAC on
// the network's shared virtual timeline, and blocks until done: it is
// SendAsync followed by waiting on the handle. The send is a TxNormal
// job like any other — it takes its (priority, enqueue-sequence) turn
// behind conflicting queued jobs, its stage events carry its TxID, and
// its completion lands on Deliveries. Each physical attempt is
// registered with the envelope medium, so CollisionStats accounts for
// it and other nodes' carrier sense hears it; under
// WaveformContention the attempt's stage waveforms additionally go on
// the air sample-for-sample, corrupting (and corrupted by) whatever
// overlaps them.
//
// Errors wrap the public taxonomy: ErrBadMessage (zero, >2 or unknown
// messages), ErrUnknownDevice, ErrBadDeviceID (dst is the node
// itself), ErrNodeLeft (either end left, or Leave aborted the send),
// ErrQueueFull (the node's transmit queue is at capacity),
// ErrChannelBusy (no MAC grant within the network's access deadline;
// errors.As a *ChannelBusyError for the busy-until time), ErrNoACK
// (all attempts went unacknowledged; the returned SendResult still
// describes them), or — when ctx is cancelled between attempts — an
// error wrapping both ErrTxCancelled and ctx's error. Like any queued
// job's, a ctx that ends while the send still waits in the queue
// withdraws it at once, before it ever reaches the radio. A nil ctx
// means context.Background().
func (nd *Node) Send(ctx context.Context, dst DeviceID, msgs ...uint8) (SendResult, error) {
	h, err := nd.SendAsync(ctx, dst, msgs...)
	if err != nil {
		return SendResult{}, err
	}
	<-h.done
	return h.res, h.err
}

// sendWith runs one dispatched job on its node's transmit daemon —
// the full send machinery: j.rc stamps stage events with the hop and
// job context, j.notB floors the first attempt's ready time without
// advancing the node's clock (a queued job's arrival or a relayed
// packet's possession instant), j.raw (when non-nil) substitutes an
// arbitrary 16-bit payload for the codebook pair, and endS reports
// when the final on-air attempt left the air (the instant a
// store-and-forward relay can possess the payload).
func (nd *Node) sendWith(j *txJob) (_ SendResult, endS float64, _ error) {
	nd.relay = j.rc
	defer func() { nd.relay = relayCtx{} }()

	n := nd.net
	peer := j.dst
	n.mu.Lock()
	if n.departed[nd.idx] {
		n.mu.Unlock()
		return SendResult{}, 0, fmt.Errorf("%w: source %d", ErrNodeLeft, nd.id)
	}
	if n.departed[peer.idx] {
		n.mu.Unlock()
		return SendResult{}, 0, fmt.Errorf("%w: destination %d", ErrNodeLeft, peer.id)
	}
	var xmed phy.Medium
	if n.bank != nil {
		xmed = &waveSlot{net: n, a: nd.idx, b: peer.idx, aID: nd.id, bID: peer.id}
	} else {
		pair, err := n.links.Pair(nd.idx, peer.idx)
		if err != nil {
			n.mu.Unlock()
			return SendResult{}, 0, err
		}
		xmed = pair
	}
	clock := max(nd.clockS, j.notB)
	n.mu.Unlock()

	// Each attempt carrier-senses until the MAC grants the channel and
	// goes on the air after its exchange (OnAttempt) with its actual
	// duration; the dispatch gate keeps conflicting exchanges out for
	// the job's whole life.
	granted := false
	var lastStartS, lastDurS float64
	nd.msgr.Gate = func(readyS float64) (float64, error) {
		start, err := n.beginAttempt(j.ctx, nd, peer, readyS)
		granted = err == nil
		return start, err
	}
	// After each exchange the band — and with it the true on-air
	// duration — is known; register the attempt in envelope mode so
	// collision accounting and other nodes' carrier sense see it.
	nd.msgr.OnAttempt = func(startS float64, res Result) {
		// Exchanges that aborted before the feedback round never put a
		// data section on the air; reserve the full-band estimate.
		durS := nd.airtimeS
		if res.FeedbackDecoded {
			durS = nd.proto.PacketAirtimeS(res.FeedbackBand)
		}
		n.commitAttempt(nd, peer, startS, durS)
		granted = false
		lastStartS, lastDurS = startS, durS
	}
	defer func() {
		nd.msgr.Gate, nd.msgr.OnAttempt = nil, nil
		if granted {
			// The exchange errored between grant and commit; release
			// the attempt's worker slot and prune pin.
			n.abortAttempt(nd, peer)
		}
	}()

	var res SendResult
	var err error
	if j.raw != nil {
		res, err = nd.msgr.SendRaw(xmed, peer.tone, *j.raw, clock)
	} else {
		res, err = nd.msgr.Send(xmed, peer.tone, j.first, j.second, clock)
	}
	if res.Attempts > 0 && lastDurS > 0 {
		// Advance past the last attempt's actual airtime.
		endS = lastStartS + lastDurS
		n.mu.Lock()
		nd.clockS = endS + interSendGapS
		n.mu.Unlock()
	}
	return res, endS, err
}
