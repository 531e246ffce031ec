package aquago

import (
	"context"
	"errors"
	"fmt"
	"sort"
)

// This file is the store-and-forward relay layer over routing
// (route.go): walking a path hop by hop on the shared virtual
// timeline. Every hop is a full carrier-sense exchange queued on the
// sending relay's transmit queue (txq.go) like any other transmission,
// and its forward cannot start before the packet physically reached
// it (the previous hop's last attempt left the air, plus a
// turnaround). SendVia walks its path one TxNormal job at a time,
// waiting for each. Bulk transfer chunks an arbitrary payload into the
// protocol's 16-bit packets and runs on one engine, bulkPipeline:
// every hop of every packet is a TxBulk job on the sending relay's
// transmit queue, forwarded by a completion continuation. SendBulkVia
// keeps one packet in flight and maintains its route under motion;
// SendBulkViaPipelined keeps two and overlaps them on non-interfering
// hops. Every packet of every hop runs the full adaptive exchange, so
// the band re-adapts per packet as the channel evolves — the
// AquaScope-style workload.

// relayTurnaroundS is a relay's store-and-forward processing pause:
// the gap between hearing a packet's last sample and being ready to
// contend for the next hop (matches the protocol's inter-send gap).
const relayTurnaroundS = interSendGapS

// RelayResult reports one multi-hop message delivery (SendVia).
type RelayResult struct {
	// Path is the walked relay path (source first, destination last).
	Path []DeviceID
	// Hops holds the per-hop send results, in path order. On failure
	// it covers the hops up to and including the failed one.
	Hops []SendResult
	// Attempts totals the physical transmission attempts across hops.
	Attempts int
	// DeliveredS is the virtual time the payload's last sample reached
	// the destination (zero when the transfer died mid-path).
	DeliveredS float64
}

// BulkResult reports a bulk payload transfer (SendBulk, SendBulkVia
// and their pipelined forms).
type BulkResult struct {
	// Path is the relay path as last walked: under motion (position
	// epochs) SendBulkVia re-routes mid-transfer when its next hop goes
	// inaudible or departs, so the final path may differ from the one
	// the transfer started on.
	Path []DeviceID
	// Packets is how many 2-byte protocol packets the payload split
	// into; DeliveredPackets how many arrived end-to-end as a
	// contiguous prefix (a failed transfer stops counting at the first
	// undeliverable packet).
	Packets, DeliveredPackets int
	// DeliveredBytes counts payload bytes that reached the
	// destination; Received holds them, hop-conserved by
	// construction: a hop only continues when its receiver's decode
	// was bit-exact (phy.Result.Delivered), so a relay never forwards
	// — and the destination never accumulates — corrupted bytes.
	DeliveredBytes int
	Received       []byte
	// Attempts totals physical transmission attempts across all
	// packets and hops, the link layer's own retries included.
	Attempts int
	// Retries counts relay-layer retransmissions: hop jobs re-queued
	// after a transient failure (lost ACK, busy channel) under the
	// network's bulk retry budget (WithBulkRetries). Zero on a
	// transfer that never lost a packet.
	Retries int
	// Reroutes counts mid-transfer route repairs: hops whose next node
	// had moved out of earshot (or departed) by the time the packet
	// reached them, spliced onto a fresh routed path to the
	// destination. Always zero on a static network (SendBulkVia only
	// checks once a position epoch has occurred) and in the pipelined
	// transfer, whose path is fixed at launch.
	Reroutes int
	// Bands records the band each delivered packet's final hop used —
	// the per-packet re-adaptation trace (bands differ as the channel
	// evolves between packets).
	Bands []Band
	// PacketEndS records the virtual time each delivered packet's last
	// sample reached the destination, in packet order (parallel to
	// Bands). Progressive workloads read time-to-first-byte off it.
	PacketEndS []float64
	// StartS/EndS bound the transfer on the virtual timeline: the
	// source's clock when the transfer began, and the instant the last
	// delivered packet reached the destination.
	StartS, EndS float64
}

// validatePathLocked resolves an explicit relay path against the
// joined-node table: at least two nodes, every ID joined
// (ErrUnknownDevice), and no node visited twice (ErrBadPath — a
// repeated relay is a routing loop). Audibility is deliberately NOT
// enforced: an explicit path is the caller's override, and a hop
// beyond the carrier-sense range simply behaves like the real thing
// (the MAC cannot defer to it, the receiver probably cannot decode
// it). Callers hold n.mu.
func (n *Network) validatePathLocked(path []DeviceID) ([]*Node, error) {
	if len(path) < 2 {
		return nil, fmt.Errorf("%w: need source and destination, got %d node(s)", ErrBadPath, len(path))
	}
	nodes := make([]*Node, len(path))
	seen := make(map[DeviceID]bool, len(path))
	for i, id := range path {
		nd, ok := n.nodes[id]
		if !ok {
			return nil, fmt.Errorf("%w: %d (hop %d of path %v)", ErrUnknownDevice, id, i, path)
		}
		if seen[id] {
			return nil, fmt.Errorf("%w: node %d repeats in %v", ErrBadPath, id, path)
		}
		seen[id] = true
		nodes[i] = nd
	}
	return nodes, nil
}

// resolvePath validates an explicit path and returns its nodes.
func (n *Network) resolvePath(path []DeviceID) ([]*Node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.validatePathLocked(path)
}

// hopFailed decides whether a hop send left the payload at the next
// node. The store-and-forward criterion is possession, not
// acknowledgment: a hop whose every attempt went unACKed but whose
// payload decoded (ErrNoACK with Delivered — the two-generals cost)
// still armed the relay, so the transfer continues.
func hopFailed(res SendResult, err error) error {
	switch {
	case err != nil && !errors.Is(err, ErrNoACK):
		return err
	case !res.Delivered:
		if err != nil {
			return err
		}
		return ErrNoACK
	}
	return nil
}

// retryFloorS is the one retransmission-floor rule of the bulk relay
// and the stream: the virtual-clock ready floor for retransmission
// try+1 of a send from nd that failed at endS is an exponential backoff
// quantumS·2^min(try, streamBackoffCap) from the attempt's end — or
// from the MAC's busy-until time when the channel never granted
// access, or the node's own clock when the send never reached the air
// at all. A zero quantumS means the node's backoff quantum (its
// adapted airtime when one exists, else the full-band worst case).
func retryFloorS(nd *Node, endS float64, ferr error, try int, quantumS float64) float64 {
	floor := endS
	var busy *ChannelBusyError
	if errors.As(ferr, &busy) && busy.BusyUntilS > floor {
		floor = busy.BusyUntilS
	}
	if floor == 0 {
		floor = nd.ClockS()
	}
	exp := try
	if exp > streamBackoffCap {
		exp = streamBackoffCap
	}
	if quantumS == 0 {
		quantumS = nd.backoffQuantumS()
	}
	return floor + quantumS*float64(int(1)<<exp)
}

// SendVia delivers one or two codebook messages along an explicit
// relay path: path[0] transmits to path[1], which stores and forwards
// to path[2], and so on, each hop re-entering the carrier-sense MAC
// on the shared virtual timeline (a relay cannot contend before the
// packet physically reached it). Each hop is a TxNormal job on its
// sender's transmit queue, so it gets a TxID and appears on
// Deliveries. Stage events carry the hop context
// (StageEvent.Hop/PathHops), so a Trace sees the transfer walk the
// path in order.
//
// Path errors wrap ErrBadPath/ErrUnknownDevice. A hop failure returns
// a *RelayError naming the hop, wrapping the hop's own error
// (ErrNoACK, ErrChannelBusy, ErrQueueFull, ErrBadMessage for a bad
// message set, a cancelled context, ...); the returned RelayResult
// still describes the hops that ran. Use Route to compute a path, or
// Node.SendBulk for the automatic bulk flavor. A nil ctx means
// context.Background().
func (n *Network) SendVia(ctx context.Context, path []DeviceID, msgs ...uint8) (RelayResult, error) {
	nodes, err := n.resolvePath(path)
	if err != nil {
		return RelayResult{}, err
	}
	out := RelayResult{Path: append([]DeviceID(nil), path...)}
	hops := len(path) - 1
	for h := 0; h < hops; h++ {
		var res SendResult
		var endS float64
		handle, err := nodes[h].enqueue(ctx, TxJob{Dst: path[h+1], Msgs: msgs, Priority: TxNormal}, relayCtx{hop: h, pathHops: hops})
		if err == nil {
			<-handle.done
			res, endS, err = handle.res, handle.endS, handle.err
		}
		out.Hops = append(out.Hops, res)
		out.Attempts += res.Attempts
		if ferr := hopFailed(res, err); ferr != nil {
			return out, &RelayError{Hop: h, From: path[h], To: path[h+1], Path: out.Path, Err: ferr}
		}
		if h+1 < hops {
			// The next relay possesses the payload once the last
			// attempt's final sample arrived; it may contend after a
			// turnaround.
			nodes[h+1].AdvanceClock(endS + relayTurnaroundS)
		} else {
			out.DeliveredS = endS
		}
	}
	return out, nil
}

// SendBulkVia transfers an arbitrary payload along an explicit relay
// path, one packet in flight: the payload chunks into 2-byte protocol
// packets, and each packet store-and-forwards down the path before the
// next one leaves the source — every hop a full adaptive exchange
// (fresh SNR estimate, fresh band), so the transfer re-adapts per
// packet and per hop. A relay forwards a packet only once its own
// receiver decoded it bit-exactly, so payload bytes are conserved hop
// to hop. Stage events carry both the hop and the packet context
// (StageEvent.BulkPkt/BulkPkts).
//
// Every hop is a TxBulk job on the sending relay's transmit queue (the
// engine SendBulkViaPipelined runs with a wider window), so the
// transfer's hops appear on Deliveries, carry StageEvent.TxID, yield to
// queued TxNormal traffic at each hop, and a full source queue fails
// the transfer with a *RelayError wrapping ErrQueueFull. A forward's
// job is floored at the instant the packet reached the relay plus a
// turnaround (TxJob.NotBeforeS).
//
// A hop send that fails transiently — every attempt unACKed and
// undecoded, or the MAC never granting the channel — is retransmitted
// up to the network's bulk retry budget (WithBulkRetries, default
// DefaultBulkRetries), each retry re-entering the relay's queue after
// an exponentially backed virtual-clock floor; BulkResult.Retries
// counts them. Only an exhausted budget (or a non-transient failure:
// context cancelled, node left) kills the transfer.
//
// Under motion the transfer maintains its own route: before each hop
// job (and each retry), if a position epoch has moved the next node
// out of earshot of the packet's holder — or the next node departed —
// the remainder of the path is replaced by a fresh routed path from
// the holder to the destination (BulkResult.Reroutes counts these;
// Path reports the path as last walked). A spliced path may revisit an
// earlier node — physically honest store-and-forward when geometry
// shifted under the transfer. On a static network no epoch has
// occurred and no check runs. A repair that finds no route
// (ErrNoRoute) or a departed destination (ErrNodeLeft) kills the
// transfer like any hop failure.
//
// Odd-length payloads pad the final packet on the air; the pad byte
// never reaches Received. Errors follow SendVia's contract, with
// RelayError.Pkt naming the packet the path died on; the BulkResult
// reports everything delivered before that. A nil ctx means
// context.Background().
func (n *Network) SendBulkVia(ctx context.Context, path []DeviceID, payload []byte) (BulkResult, error) {
	return n.sendBulk(ctx, path, payload, 1)
}

// SendBulk transfers an arbitrary payload to dst over the network's
// routed relay path (Route under the WithRouting policy; the direct
// single hop when dst is audible and the policy favors it). See
// SendBulkVia for the transfer semantics and error contract; routing
// failures additionally wrap ErrNoRoute.
func (nd *Node) SendBulk(ctx context.Context, dst DeviceID, payload []byte) (BulkResult, error) {
	path, err := nd.net.Route(nd.id, dst)
	if err != nil {
		return BulkResult{}, err
	}
	return nd.net.SendBulkVia(ctx, path, payload)
}

// pipelineWindow is how many packets SendBulkViaPipelined keeps
// admitted ahead: two keeps the source daemon busy across a completion
// boundary while bounding every queue on the path to O(window) jobs.
const pipelineWindow = 2

// SendBulkViaPipelined is SendBulkVia with packets overlapping on the
// path: a packet is admitted at the source as soon as its predecessor
// clears hop 0, so packet p+1 crosses earlier hops while packet p
// crosses later ones, and non-interfering hops genuinely overlap on
// the air (on a long line, hops three apart clear each other's
// carrier-sense range). The per-hop semantics — possession criterion,
// byte conservation, band re-adaptation per packet and hop, turnaround
// before forwarding, TxBulk priority, the retry budget — are
// SendBulkVia's, and on paths where every hop interferes the result
// converges to the one-packet transfer's.
//
// A hop whose budget runs out stops admission, withdraws the failed
// packet's successors, lets already-ahead packets finish, and returns
// a *RelayError naming the first failed packet and hop; Received then
// holds the contiguous delivered prefix — a packet that was already
// past the failed hop, or even delivered end-to-end behind the
// failure, never counts as delivered payload. Cancelling ctx aborts
// the transfer the same way.
//
// Unlike SendBulkVia, the pipelined transfer's path is fixed at
// launch: packets at different hops would otherwise disagree about
// the path, and a splice racing in-flight jobs would break the
// deterministic dispatch order. Under motion, re-route between
// pipelined transfers (Route reflects each position epoch); a hop
// whose geometry walked away mid-transfer fails through the normal
// retry budget.
func (n *Network) SendBulkViaPipelined(ctx context.Context, path []DeviceID, payload []byte) (BulkResult, error) {
	return n.sendBulk(ctx, path, payload, pipelineWindow)
}

// SendBulkPipelined is SendBulk through the pipelined transfer: route
// to dst, then SendBulkViaPipelined along the path.
func (nd *Node) SendBulkPipelined(ctx context.Context, dst DeviceID, payload []byte) (BulkResult, error) {
	path, err := nd.net.Route(nd.id, dst)
	if err != nil {
		return BulkResult{}, err
	}
	return nd.net.SendBulkViaPipelined(ctx, path, payload)
}

// bulkPipeline coordinates one bulk transfer: every hop of every
// packet is a queued job, and each completion's continuation
// (txJob.after, under the queue lock) forwards the packet to the next
// hop and admits the next packet at the source. With a window of one
// the next packet waits for its predecessor's delivery; wider windows
// overlap packets wherever hops do not interfere, while the dispatch
// gate keeps interfering hops in deterministic (priority, seq) order.
type bulkPipeline struct {
	n       *Network
	ctx     context.Context
	nodes   []*Node
	path    []DeviceID
	payload []byte
	hops    int
	// window is how many packets may be in flight: 1 for SendBulkVia
	// (which alone maintains its route under motion), pipelineWindow
	// for SendBulkViaPipelined.
	window int

	out BulkResult
	// nextPkt is the next packet index to admit at hop 0; admission is
	// windowed so the source queue holds at most the window regardless
	// of payload size.
	nextPkt int
	// outstanding counts packets not yet terminal (delivered, failed,
	// or abandoned); done closes when it reaches zero.
	outstanding int
	done        chan struct{}
	finished    bool
	// active maps packet index -> its current hop's handle.
	active map[int]*TxHandle
	// hopTries counts a packet's retransmissions on its *current* hop
	// (cleared when the packet advances); pkts records each packet's
	// end-to-end outcome for the contiguous-prefix finalize.
	hopTries map[int]int
	pkts     []bulkPktRecord

	failed           bool
	cancelling       bool
	failPkt, failHop int
	failErr          error
}

// bulkPktRecord is one packet's end-to-end outcome. Deliveries are
// recorded here rather than appended to Received directly: packets
// complete in packet order on the final hop, but a failure recorded at
// a low packet index must not let a higher packet that was already
// past the failed hop count as delivered payload — the finalize walks
// the records and keeps only the contiguous delivered prefix.
type bulkPktRecord struct {
	delivered bool
	chunk     [2]byte
	padded    bool
	band      Band
	endS      float64
}

// sendBulk runs one bulk transfer with up to window packets in flight
// and blocks until it drains.
func (n *Network) sendBulk(ctx context.Context, path []DeviceID, payload []byte, window int) (BulkResult, error) {
	nodes, err := n.resolvePath(path)
	if err != nil {
		return BulkResult{}, err
	}
	if len(payload) == 0 {
		return BulkResult{}, fmt.Errorf("%w: empty bulk payload", ErrBadMessage)
	}
	tr := &bulkPipeline{
		n: n, ctx: ctx, nodes: nodes,
		path: append([]DeviceID(nil), path...), payload: payload,
		hops:     len(path) - 1,
		window:   window,
		done:     make(chan struct{}),
		active:   make(map[int]*TxHandle),
		hopTries: make(map[int]int),
	}
	tr.out = BulkResult{
		Path:    tr.path,
		Packets: (len(payload) + 1) / 2,
		StartS:  nodes[0].ClockS(),
	}
	tr.pkts = make([]bulkPktRecord, tr.out.Packets)
	tr.outstanding = tr.out.Packets
	n.tx.mu.Lock()
	for i := 0; i < min(window, n.cfg.txQueueCap) && !tr.failed; i++ {
		tr.admitLocked()
	}
	n.txEvaluateLocked()
	tr.finishIfDoneLocked()
	n.tx.mu.Unlock()
	// Every admitted job carries ctx, and failures stop admission, so
	// the transfer always drains: no select on ctx needed here.
	<-tr.done
	tr.finalize()
	if tr.failed {
		return tr.out, &RelayError{
			Hop: tr.failHop, From: tr.path[tr.failHop], To: tr.path[tr.failHop+1],
			Path: tr.out.Path, Pkt: tr.failPkt, Err: tr.failErr,
		}
	}
	return tr.out, nil
}

// chunk extracts packet p's 2-byte payload chunk and whether its
// second byte is padding.
func (tr *bulkPipeline) chunk(p int) (chunk [2]byte, padded bool) {
	chunk[0] = tr.payload[2*p]
	padded = 2*p+2 > len(tr.payload)
	if !padded {
		chunk[1] = tr.payload[2*p+1]
	}
	return chunk, padded
}

// admitLocked enqueues the next packet's hop-0 job (tx.mu held).
func (tr *bulkPipeline) admitLocked() {
	if tr.nextPkt >= tr.out.Packets || tr.failed {
		return
	}
	p := tr.nextPkt
	tr.nextPkt++
	tr.enqueueHopLocked(0, p, 0)
}

// enqueueHopLocked queues packet p's hop job with the given ready
// floor, after route maintenance; a failed repair or an enqueue
// rejection (queue full, node left) is a hop failure (tx.mu held).
func (tr *bulkPipeline) enqueueHopLocked(hop, p int, notBeforeS float64) {
	err := tr.rerouteLocked(hop)
	var h *TxHandle
	if err == nil {
		chunk, padded := tr.chunk(p)
		raw := chunk
		rc := relayCtx{hop: hop, pathHops: tr.hops, bulkPkt: p, bulkPkts: tr.out.Packets}
		h, err = tr.n.txEnqueueLocked(
			tr.nodes[hop], tr.nodes[hop+1], TxBulk, notBeforeS, &raw, 0, 0,
			rc, tr.ctx, nil, tr.hopDone(hop, p, chunk, padded))
	}
	if err != nil {
		tr.outstanding--
		tr.recordFailureLocked(p, hop, err)
		tr.finishIfDoneLocked()
		return
	}
	tr.active[p] = h
}

// rerouteLocked is the one-packet transfer's route maintenance,
// run before every hop job and retry: rerouteBulkHop's splice becomes
// the transfer's path. Safe only with one packet in flight, so wider
// windows keep their launch path (tx.mu held).
func (tr *bulkPipeline) rerouteLocked(hop int) error {
	if tr.window > 1 {
		return nil
	}
	spliced, changed, err := tr.n.rerouteBulkHop(tr.nodes, hop)
	if err != nil || !changed {
		return err
	}
	tr.nodes = spliced
	tr.hops = len(spliced) - 1
	tr.path = make([]DeviceID, len(spliced))
	for i, nd := range spliced {
		tr.path[i] = nd.id
	}
	tr.out.Path = tr.path
	tr.out.Reroutes++
	return nil
}

// rerouteBulkHop is the relay layer's route maintenance under motion:
// called with a bulk transfer's current node path and the hop about to
// run, it checks — only once a position epoch has occurred, so static
// transfers never pay or change — whether nodes[h+1] is still a
// viable next hop (not departed, within earshot of nodes[h], the
// packet's holder). If not, it returns the path re-spliced at h: the
// walked prefix through nodes[h] plus a fresh routed path from there
// to the destination. The splice may revisit an earlier node — under
// changed geometry that is honest store-and-forward, not a loop (the
// no-repeat rule guards explicit caller paths only). A departed
// destination returns ErrNodeLeft; an unreachable one ErrNoRoute.
func (n *Network) rerouteBulkHop(nodes []*Node, h int) ([]*Node, bool, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.geoEpoch == 0 {
		return nodes, false, nil
	}
	cur, next := nodes[h], nodes[h+1]
	if !n.departed[next.idx] && n.audibleLocked(cur.idx, next.idx) {
		return nodes, false, nil
	}
	dst := nodes[len(nodes)-1]
	if n.departed[dst.idx] {
		return nodes, false, fmt.Errorf("%w: destination %d", ErrNodeLeft, dst.id)
	}
	idxPath, err := n.routeLocked(cur.idx, dst.idx)
	if err != nil {
		return nodes, false, err
	}
	spliced := make([]*Node, 0, h+len(idxPath))
	spliced = append(spliced, nodes[:h+1]...)
	for _, idx := range idxPath[1:] {
		spliced = append(spliced, n.order[idx])
	}
	return spliced, true, nil
}

// hopDone builds the continuation for packet p's hop job. It runs
// under tx.mu inside completion processing, atomically before any
// newly unblocked job dispatches.
func (tr *bulkPipeline) hopDone(hop, p int, chunk [2]byte, padded bool) func(TxDelivery) {
	return func(d TxDelivery) {
		tr.out.Attempts += d.Result.Attempts
		delete(tr.active, p)
		ferr := hopFailed(d.Result, d.Err)
		if ferr == nil && (hop == 0 && tr.window > 1 || hop+1 == tr.hops && tr.window == 1) {
			// The packet freed its window slot — it cleared the source's
			// hop, or, one packet in flight, reached the destination:
			// admit the next packet. Deferred so a forward in the switch
			// below enqueues FIRST and takes the older dispatch key —
			// otherwise the source's ever-younger hop-0 jobs would starve
			// every relay behind them and the pipeline would degenerate
			// into "blast hop 0, then drain".
			defer tr.admitLocked()
		}
		switch {
		case ferr != nil && tr.failed && p > tr.failPkt:
			// The transfer already died at an earlier packet while this
			// one was on the air; abandon it rather than retry.
			tr.outstanding--
		case ferr != nil && streamRetryable(ferr) && tr.hopTries[p] < tr.n.cfg.bulkRetries:
			// Transient loss: retransmit this hop under the budget,
			// re-entering the relay's queue with a backed-off floor so
			// the retry re-contends instead of hammering the channel.
			try := tr.hopTries[p]
			tr.hopTries[p] = try + 1
			tr.out.Retries++
			tr.enqueueHopLocked(hop, p, retryFloorS(tr.nodes[hop], d.EndS, ferr, try, 0))
		case ferr != nil:
			tr.outstanding--
			tr.recordFailureLocked(p, hop, ferr)
		case tr.failed && p > tr.failPkt:
			// The transfer already died at an earlier packet while this
			// one was on the air; abandon it.
			tr.outstanding--
		case hop+1 < tr.hops:
			// Forward: the next relay possesses the packet once the last
			// attempt's final sample arrived, and may contend after a
			// turnaround. The retry counter restarts per hop.
			delete(tr.hopTries, p)
			tr.enqueueHopLocked(hop+1, p, d.EndS+relayTurnaroundS)
		default:
			// Reached the destination. Record the outcome; the finalize
			// keeps only the contiguous delivered prefix, so a packet
			// that beat an earlier failure end-to-end never counts.
			tr.outstanding--
			delete(tr.hopTries, p)
			tr.pkts[p] = bulkPktRecord{
				delivered: true, chunk: chunk, padded: padded,
				band: d.Result.Last.Band, endS: d.EndS,
			}
		}
		tr.finishIfDoneLocked()
	}
}

// finalize folds the per-packet records into the public BulkResult
// after the pipeline drained: Received/Bands/PacketEndS accumulate
// the contiguous delivered prefix, in packet order, stopping at the
// first packet that is not delivered end-to-end (on a failed transfer
// that is at latest the failed packet). Runs unlocked — the transfer
// is done and the records are immutable.
func (tr *bulkPipeline) finalize() {
	for p := 0; p < tr.out.Packets; p++ {
		r := tr.pkts[p]
		if !r.delivered {
			break
		}
		tr.out.DeliveredPackets++
		tr.out.Received = append(tr.out.Received, r.chunk[0])
		tr.out.DeliveredBytes++
		if !r.padded {
			tr.out.Received = append(tr.out.Received, r.chunk[1])
			tr.out.DeliveredBytes++
		}
		tr.out.Bands = append(tr.out.Bands, r.band)
		tr.out.PacketEndS = append(tr.out.PacketEndS, r.endS)
		if r.endS > tr.out.EndS {
			tr.out.EndS = r.endS
		}
	}
}

// recordFailureLocked notes a hop failure, keeping the lowest failed
// packet as the transfer's reported failure, stopping admission, and
// withdrawing queued successors (tx.mu held).
func (tr *bulkPipeline) recordFailureLocked(p, hop int, err error) {
	switch {
	case !tr.failed:
		tr.failed = true
		tr.failPkt, tr.failHop, tr.failErr = p, hop, err
		// Unadmitted packets never run; account them terminal now.
		tr.outstanding -= tr.out.Packets - tr.nextPkt
		tr.nextPkt = tr.out.Packets
		tr.cancelTrailingLocked()
	case p < tr.failPkt:
		tr.failPkt, tr.failHop, tr.failErr = p, hop, err
		tr.cancelTrailingLocked()
	}
}

// cancelTrailingLocked withdraws every still-queued job of packets
// after the failed one; inflight jobs get their context cancelled and
// resolve through their own completions. Cancelling a queued job runs
// its continuation synchronously (which re-enters the failure path),
// so the scan restarts until a pass makes no change.
func (tr *bulkPipeline) cancelTrailingLocked() {
	if tr.cancelling {
		return
	}
	tr.cancelling = true
	for changed := true; changed; {
		changed = false
		// Withdrawals resolve handles and land on the delivery queue as
		// they run, so the scan order is user-visible (Deliveries,
		// OnDone order): cancel in packet-index order, not the map's
		// randomized one.
		pkts := make([]int, 0, len(tr.active))
		for p := range tr.active {
			pkts = append(pkts, p)
		}
		sort.Ints(pkts)
		for _, p := range pkts {
			h := tr.active[p]
			if p <= tr.failPkt {
				continue
			}
			if h.job.state == txQueued {
				tr.n.txCancelQueuedLocked(h.job, fmt.Errorf("%w: bulk transfer failed at packet %d", ErrTxCancelled, tr.failPkt))
				changed = true
				break
			}
			if h.job.state == txInflight && !h.job.cancelled {
				h.job.cancelled = true
				h.job.cancel()
			}
		}
	}
	tr.cancelling = false
}

// finishIfDoneLocked closes the transfer once every packet is
// terminal (tx.mu held).
func (tr *bulkPipeline) finishIfDoneLocked() {
	if tr.outstanding == 0 && !tr.finished {
		tr.finished = true
		close(tr.done)
	}
}
