package aquago

import (
	"context"
	"errors"
	"fmt"
)

// This file is the store-and-forward relay layer over routing
// (route.go): walking a path hop by hop on the shared virtual
// timeline. Every hop is a full carrier-sense exchange queued on the
// sending relay's transmit queue (txq.go) like any other transmission,
// and its forward cannot start before the packet physically reached
// it (the previous hop's last attempt left the air, plus a
// turnaround). SendVia walks its path one TxNormal job at a time,
// waiting for each. Bulk transfer chunks an arbitrary payload into the
// protocol's 16-bit packets and runs on the transfer engine
// (transfer.go) that also carries streams: SendBulkVia keeps one packet
// in flight and maintains its route under motion; SendBulkViaPipelined
// keeps two and overlaps them on non-interfering hops. Every packet of
// every hop runs the full adaptive exchange, so the band re-adapts per
// packet as the channel evolves — the AquaScope-style workload.

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
//
// A packet whose next queue is full — the source's at admission, a
// relay's for a forward or a retry — waits for the transfer's next
// completion rather than failing it: packets already ahead free that
// space as they dispatch. A packet waiting at a relay keeps its window
// slot, so no more than the window's packets wait. The transfer fails
// with a *RelayError wrapping ErrQueueFull only when nothing of it is
// queued or on the air to wait for (a source queue full of foreign
// traffic, say).
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
	t := n.newTransfer(ctx, nodes, payload, (len(payload)+1)/2)
	t.window, t.retries, t.sealed = window, n.cfg.bulkRetries, true
	startS := nodes[0].ClockS()
	n.tx.mu.Lock()
	t.pumpLocked()
	n.txEvaluateLocked()
	n.tx.mu.Unlock()
	// Every job carries the transfer's ctx and a failure stops
	// admission, so the transfer always drains: no select on ctx here.
	// Once done closes, nothing touches t again.
	<-t.done
	// A copy: Received must not alias the caller's payload.
	rx := append([]byte(nil), t.data[:min(2*t.front, len(t.data))]...)
	out := BulkResult{
		Path: t.path, Packets: len(t.units), DeliveredPackets: t.front,
		DeliveredBytes: len(rx), Received: rx,
		Attempts: t.attempts, Retries: t.retransmits, Reroutes: t.reroutes, StartS: startS,
	}
	for _, us := range t.units[:t.front] {
		out.Bands = append(out.Bands, us.band)
		out.PacketEndS = append(out.PacketEndS, us.endS)
		out.EndS = max(out.EndS, us.endS)
	}
	return out, t.err
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
