package aquago_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"aquago"
)

// relayLineSpacingM and relayCSRangeM shape the relay test topology:
// adjacent nodes are audible (and decode comfortably), skip-one
// neighbors are not, so every multi-node line *must* relay.
const (
	relayLineSpacingM = 25.0
	relayCSRangeM     = 30.0
)

// buildRelayLine joins hops+1 nodes on the X axis, spacing apart,
// clocks pinned to zero for deterministic timelines.
func buildRelayLine(t *testing.T, hops int, opts ...aquago.NetworkOption) (*aquago.Network, []*aquago.Node) {
	t.Helper()
	net, err := aquago.NewNetwork(aquago.Bridge,
		append([]aquago.NetworkOption{
			aquago.WithNetworkSeed(3),
			aquago.WithCSRange(relayCSRangeM),
		}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*aquago.Node, hops+1)
	for i := range nodes {
		nd, err := net.Join(aquago.DeviceID(i),
			aquago.Position{X: float64(i) * relayLineSpacingM, Z: 1},
			aquago.WithNodeClock(0))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	return net, nodes
}

// relayTrace records stage events with their relay context.
type relayTrace struct {
	mu     sync.Mutex
	events []aquago.StageEvent
}

func (rt *relayTrace) OnStage(ev aquago.StageEvent) {
	rt.mu.Lock()
	rt.events = append(rt.events, ev)
	rt.mu.Unlock()
}

// checkHopOrder asserts the trace walked the transfer in causal
// order: packets nondecreasing, and within one packet hops strictly
// walking 0, 1, ..., pathHops-1 (each hop seen, none skipped).
func checkHopOrder(t *testing.T, events []aquago.StageEvent, pathHops, pkts int) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("no stage events traced")
	}
	lastPkt, lastHop := 0, -1
	hopsSeen := map[[2]int]bool{}
	for i, ev := range events {
		if ev.PathHops != pathHops {
			t.Fatalf("event %d: PathHops = %d, want %d (%+v)", i, ev.PathHops, pathHops, ev)
		}
		if ev.BulkPkt < lastPkt {
			t.Fatalf("event %d: packet %d after packet %d", i, ev.BulkPkt, lastPkt)
		}
		if ev.BulkPkt > lastPkt {
			lastPkt, lastHop = ev.BulkPkt, -1
		}
		if ev.Hop < lastHop {
			t.Fatalf("event %d: hop %d after hop %d inside packet %d", i, ev.Hop, lastHop, lastPkt)
		}
		lastHop = ev.Hop
		hopsSeen[[2]int{ev.BulkPkt, ev.Hop}] = true
	}
	for p := 0; p < pkts; p++ {
		for h := 0; h < pathHops; h++ {
			if !hopsSeen[[2]int{p, h}] {
				t.Fatalf("packet %d hop %d emitted no stage events", p, h)
			}
		}
	}
}

// TestRelayScenarioMatrix is the end-to-end matrix: {2,3,5}-hop lines
// and a 3x3 grid, bulk payloads conserved byte-for-byte end to end,
// per-hop stage events in causal order, and the route pinned to the
// expected hop count.
func TestRelayScenarioMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full adaptive exchanges per hop")
	}
	payload := []byte("dive relay payload!") // 19 bytes -> 10 packets, odd tail
	for _, hops := range []int{2, 3, 5} {
		t.Run(map[int]string{2: "line-2hop", 3: "line-3hop", 5: "line-5hop"}[hops], func(t *testing.T) {
			trace := &relayTrace{}
			net, nodes := buildRelayLine(t, hops, aquago.WithNetworkTrace(trace))
			dst := aquago.DeviceID(hops)
			path, err := net.Route(0, dst)
			if err != nil {
				t.Fatal(err)
			}
			if len(path)-1 != hops {
				t.Fatalf("route %v has %d hops, want %d", path, len(path)-1, hops)
			}
			res, err := nodes[0].SendBulk(context.Background(), dst, payload)
			if err != nil {
				t.Fatalf("bulk transfer: %v (result %+v)", err, res)
			}
			if !bytes.Equal(res.Received, payload) {
				t.Fatalf("payload not conserved end to end:\nsent     %q\nreceived %q", payload, res.Received)
			}
			wantPkts := (len(payload) + 1) / 2
			if res.Packets != wantPkts || res.DeliveredPackets != wantPkts || res.DeliveredBytes != len(payload) {
				t.Fatalf("delivery accounting wrong: %+v (want %d packets, %d bytes)", res, wantPkts, len(payload))
			}
			if len(res.Bands) != wantPkts {
				t.Fatalf("per-packet band trace has %d entries, want %d", len(res.Bands), wantPkts)
			}
			if res.EndS <= res.StartS {
				t.Fatalf("transfer window degenerate: start %g, end %g", res.StartS, res.EndS)
			}
			if !reflect.DeepEqual(res.Path, path) {
				t.Fatalf("bulk walked %v, routed %v", res.Path, path)
			}
			checkHopOrder(t, trace.events, hops, wantPkts)
		})
	}

	t.Run("grid-3x3", func(t *testing.T) {
		// Corner to corner on a 3x3 grid: orthogonal neighbors audible,
		// diagonals (35.4 m) not, so the min-hop route has 4 hops.
		net, err := aquago.NewNetwork(aquago.Bridge,
			aquago.WithNetworkSeed(3), aquago.WithCSRange(relayCSRangeM))
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				if _, err := net.Join(aquago.DeviceID(3*r+c), aquago.Position{
					X: float64(c) * relayLineSpacingM,
					Y: float64(r) * relayLineSpacingM,
					Z: 1,
				}, aquago.WithNodeClock(0)); err != nil {
					t.Fatal(err)
				}
			}
		}
		path, err := net.Route(0, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(path)-1 != 4 {
			t.Fatalf("grid corner-to-corner route %v has %d hops, want 4", path, len(path)-1)
		}
		okMsg, _ := aquago.LookupMessage("OK?")
		res, err := net.SendVia(context.Background(), path, okMsg.ID)
		if err != nil {
			t.Fatalf("grid relay: %v (%+v)", err, res)
		}
		if len(res.Hops) != 4 || res.DeliveredS <= 0 {
			t.Fatalf("grid relay result wrong: %+v", res)
		}
		for h, hr := range res.Hops {
			if !hr.Delivered {
				t.Fatalf("grid hop %d not delivered: %+v", h, hr)
			}
		}
	})
}

// TestRelayBulkWaveform3Hop is the acceptance scenario: a 3-hop relay
// must deliver a bulk payload end to end under waveform-true
// contention, with per-hop stage events in order. Hop exchanges are
// sequential on the shared timeline, so carrier sense keeps the air
// clean and sample-level superposition corrupts nothing.
func TestRelayBulkWaveform3Hop(t *testing.T) {
	if testing.Short() {
		t.Skip("waveform exchanges are several times costlier")
	}
	payload := []byte("sos!") // 2 packets
	trace := &relayTrace{}
	net, nodes := buildRelayLine(t, 3,
		aquago.WithContentionMode(aquago.WaveformContention),
		aquago.WithNetworkTrace(trace))
	res, err := nodes[0].SendBulk(context.Background(), 3, payload)
	if err != nil {
		t.Fatalf("waveform bulk relay: %v (%+v)", err, res)
	}
	if !bytes.Equal(res.Received, payload) {
		t.Fatalf("waveform relay corrupted the payload: %q != %q", res.Received, payload)
	}
	if _, frac := net.CollisionStats(); frac != 0 {
		t.Fatalf("sequential relay hops should never collide (fraction %g)", frac)
	}
	checkHopOrder(t, trace.events, 3, 2)
}

// TestRelayFailureSurfacesRelayError: a transfer that dies mid-path
// must return a *RelayError carrying the failed hop (via errors.As)
// that also unwraps to the hop's underlying cause, and the BulkResult
// must report the partial delivery honestly.
func TestRelayFailureSurfacesRelayError(t *testing.T) {
	t.Run("dead-hop", func(t *testing.T) {
		// Explicit path whose middle hop spans 600 m: the preamble never
		// arrives, so the hop exhausts its attempts into ErrNoACK.
		net, err := aquago.NewNetwork(aquago.Bridge,
			aquago.WithNetworkSeed(3), aquago.WithNetworkRetries(0))
		if err != nil {
			t.Fatal(err)
		}
		for i, pos := range []aquago.Position{{X: 0, Z: 1}, {X: 25, Z: 1}, {X: 625, Z: 1}} {
			if _, err := net.Join(aquago.DeviceID(i), pos, aquago.WithNodeClock(0)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := net.SendBulkVia(context.Background(), []aquago.DeviceID{0, 1, 2}, []byte("hi"))
		if err == nil {
			t.Fatalf("600 m hop delivered?! %+v", res)
		}
		var hopErr *aquago.RelayError
		if !errors.As(err, &hopErr) {
			t.Fatalf("error %v does not carry *RelayError", err)
		}
		if hopErr.Hop != 1 || hopErr.From != 1 || hopErr.To != 2 || hopErr.Pkt != 0 {
			t.Fatalf("RelayError names the wrong hop: %+v", hopErr)
		}
		if !errors.Is(err, aquago.ErrNoACK) {
			t.Fatalf("RelayError does not unwrap to the hop's ErrNoACK: %v", err)
		}
		if res.DeliveredPackets != 0 || len(res.Received) != 0 {
			t.Fatalf("nothing should have arrived end to end: %+v", res)
		}
	})

	t.Run("cancel-mid-transfer", func(t *testing.T) {
		// Cancel the context once packet 1 goes on the air: packet 0 is
		// already delivered end to end, and the failure surfaces on
		// packet 1 with the partial result intact.
		ctx, cancel := context.WithCancel(context.Background())
		trace := aquago.TraceFunc(func(ev aquago.StageEvent) {
			if ev.BulkPkt == 1 {
				cancel()
			}
		})
		_, nodes := buildRelayLine(t, 2, aquago.WithNetworkTrace(trace))
		payload := []byte("abcd") // 2 packets
		res, err := nodes[0].SendBulk(ctx, 2, payload)
		if err == nil {
			t.Fatalf("cancelled transfer succeeded?! %+v", res)
		}
		var hopErr *aquago.RelayError
		if !errors.As(err, &hopErr) {
			t.Fatalf("error %v does not carry *RelayError", err)
		}
		if hopErr.Pkt != 1 {
			t.Fatalf("failure attributed to packet %d, want 1 (%+v)", hopErr.Pkt, hopErr)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RelayError does not unwrap to context.Canceled: %v", err)
		}
		if res.DeliveredPackets != 1 || !bytes.Equal(res.Received, payload[:2]) {
			t.Fatalf("partial delivery misreported: %+v", res)
		}
	})

	t.Run("bad-paths", func(t *testing.T) {
		net, nodes := buildRelayLine(t, 2)
		ctx := context.Background()
		okMsg, _ := aquago.LookupMessage("OK?")
		if _, err := nodes[0].SendBulk(ctx, 2, nil); !errors.Is(err, aquago.ErrBadMessage) {
			t.Fatalf("empty payload: %v", err)
		}
		if _, err := net.SendVia(ctx, []aquago.DeviceID{0}, okMsg.ID); !errors.Is(err, aquago.ErrBadPath) {
			t.Fatalf("single-node path: %v", err)
		}
		if _, err := net.SendVia(ctx, []aquago.DeviceID{0, 1, 0}, okMsg.ID); !errors.Is(err, aquago.ErrBadPath) {
			t.Fatalf("cyclic path: %v", err)
		}
		if _, err := net.SendVia(ctx, []aquago.DeviceID{0, 1}, okMsg.ID, okMsg.ID, okMsg.ID); !errors.Is(err, aquago.ErrBadMessage) {
			t.Fatalf("3-message relay: %v", err)
		}
	})
}

// TestBlockingSendsAcceptNilContext: Node.Send, Network.SendVia and
// Network.SendBulkVia treat a nil ctx as context.Background(), like
// Enqueue, SendBulkViaPipelined and OpenStream (they used to panic in
// the scheduler's per-attempt gate).
func TestBlockingSendsAcceptNilContext(t *testing.T) {
	net, nodes := buildRelayLine(t, 2)
	okMsg, _ := aquago.LookupMessage("OK?")
	//lint:ignore SA1012 a nil ctx is the case under test
	if _, err := nodes[0].Send(nil, 1, okMsg.ID); err != nil {
		t.Fatalf("Send(nil ctx): %v", err)
	}
	//lint:ignore SA1012 a nil ctx is the case under test
	if _, err := net.SendVia(nil, []aquago.DeviceID{0, 1, 2}, okMsg.ID); err != nil {
		t.Fatalf("SendVia(nil ctx): %v", err)
	}
	//lint:ignore SA1012 a nil ctx is the case under test
	if res, err := net.SendBulkVia(nil, []aquago.DeviceID{0, 1, 2}, []byte("hi")); err != nil || !bytes.Equal(res.Received, []byte("hi")) {
		t.Fatalf("SendBulkVia(nil ctx): %v (%+v)", err, res)
	}
}

// TestSendBulkViaHopsAreQueuedJobs: the one-packet transfer runs on
// the relays' transmit queues, so every hop of every packet surfaces
// on Deliveries as a TxBulk job, in packet-then-hop order, and its
// stage events carry the job's TxID.
func TestSendBulkViaHopsAreQueuedJobs(t *testing.T) {
	trace := &relayTrace{}
	net, _ := buildRelayLine(t, 2, aquago.WithNetworkTrace(trace))
	deliveries := net.Deliveries()
	res, err := net.SendBulkVia(context.Background(), []aquago.DeviceID{0, 1, 2}, []byte("abcd"))
	if err != nil {
		t.Fatalf("transfer: %v (%+v)", err, res)
	}
	want := [][2]aquago.DeviceID{{0, 1}, {1, 2}, {0, 1}, {1, 2}}
	ids := map[uint64]bool{}
	for i, hop := range want {
		d := <-deliveries
		if d.From != hop[0] || d.To != hop[1] || d.Priority != aquago.TxBulk || d.Err != nil {
			t.Fatalf("delivery %d: %d -> %d at %v (err %v), want %d -> %d at bulk",
				i, d.From, d.To, d.Priority, d.Err, hop[0], hop[1])
		}
		ids[d.TxID] = true
	}
	for _, ev := range trace.events {
		if !ids[ev.TxID] {
			t.Fatalf("stage event %+v carries TxID %d, not one of the transfer's jobs", ev, ev.TxID)
		}
	}
}
