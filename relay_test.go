package aquago_test

import (
	"bytes"
	"context"
	"errors"
	"io"
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

// TestBulkAndStreamQueueFull fills a source's transmit queue with
// conflicting jobs held behind an inflight one (a trace hook parks its
// exchange), so no transfer from that source can queue a job: both bulk
// relays fail at once with a *RelayError naming hop 0 and packet 0, and
// a stream with a *StreamError naming segment 0, both wrapping
// ErrQueueFull — none of them waits for queue space that only foreign
// traffic would free. Once the queue drains, a
// stream whose window exceeds the queue capacity still completes.
func TestBulkAndStreamQueueFull(t *testing.T) {
	okMsg, _ := aquago.LookupMessage("OK?")
	net, err := aquago.NewNetwork(aquago.Bridge, aquago.WithNetworkSeed(7), aquago.WithTxQueueCapacity(2))
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	held := make(chan struct{})
	var once, freeOnce sync.Once
	free := func() { freeOnce.Do(func() { close(release) }) }
	defer free()
	hold := aquago.TraceFunc(func(aquago.StageEvent) {
		once.Do(func() {
			close(held)
			<-release
		})
	})
	recv, err := net.Join(0, aquago.Position{X: 0, Z: 1})
	if err != nil {
		t.Fatal(err)
	}
	src, err := net.Join(1, aquago.Position{X: 5, Z: 1}, aquago.WithNodeTrace(hold))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, err := src.SendAsync(ctx, recv.ID(), okMsg.ID)
	if err != nil {
		t.Fatal(err)
	}
	<-held
	var fillers []*aquago.TxHandle
	for i := 0; i < 2; i++ {
		h, err := src.SendAsync(ctx, recv.ID(), okMsg.ID)
		if err != nil {
			t.Fatalf("filler %d: %v", i, err)
		}
		fillers = append(fillers, h)
	}

	path := []aquago.DeviceID{src.ID(), recv.ID()}
	for _, tc := range []struct {
		name string
		send func(context.Context, []aquago.DeviceID, []byte) (aquago.BulkResult, error)
	}{{"SendBulkVia", net.SendBulkVia}, {"SendBulkViaPipelined", net.SendBulkViaPipelined}} {
		res, err := tc.send(ctx, path, []byte("full"))
		var re *aquago.RelayError
		if !errors.As(err, &re) || !errors.Is(err, aquago.ErrQueueFull) || re.Hop != 0 || re.Pkt != 0 {
			t.Fatalf("%s into a full queue: err %v, want *RelayError{Hop: 0, Pkt: 0} wrapping ErrQueueFull", tc.name, err)
		}
		if res.DeliveredPackets != 0 || res.Attempts != 0 {
			t.Fatalf("%s into a full queue transmitted: %+v", tc.name, res)
		}
	}
	st, err := src.OpenStream(ctx, recv.ID())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write([]byte("full")); err != nil {
		t.Fatal(err)
	}
	if err := st.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	var serr *aquago.StreamError
	if err := st.Wait(ctx); !errors.As(err, &serr) || !errors.Is(err, aquago.ErrQueueFull) || serr.Seq != 0 {
		t.Fatalf("stream into a full queue: err %v, want *StreamError{Seq: 0} wrapping ErrQueueFull", err)
	}

	free()
	for _, h := range append([]*aquago.TxHandle{first}, fillers...) {
		if _, err := h.Wait(ctx); err != nil {
			t.Fatalf("held traffic: %v", err)
		}
	}
	payload := []byte("wider than the queue")
	wide, err := src.OpenStream(ctx, recv.ID(), aquago.WithStreamWindow(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wide.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := wide.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(wide)
	if err != nil {
		t.Fatal(err)
	}
	if err := wide.Wait(ctx); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("window 8 over a 2-job queue: %q, %v", got, err)
	}
	if err := net.Flush(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedWaitsAtFullRelayQueue: a pipelined packet whose forward
// finds the relay's queue full waits for the transfer's next
// completion instead of failing it. A trace hook holds packet 0 on
// hop 0 while a conversational job fills the relay's one-job queue;
// packet 0's forward then parks, packet 1 is admitted behind it, and
// the transfer still delivers the whole payload.
func TestPipelinedWaitsAtFullRelayQueue(t *testing.T) {
	okMsg, _ := aquago.LookupMessage("OK?")
	net, err := aquago.NewNetwork(aquago.Bridge, aquago.WithNetworkSeed(3),
		aquago.WithCSRange(relayCSRangeM), aquago.WithTxQueueCapacity(1))
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	held := make(chan struct{})
	var once, freeOnce sync.Once
	free := func() { freeOnce.Do(func() { close(release) }) }
	defer free()
	hold := aquago.TraceFunc(func(aquago.StageEvent) {
		once.Do(func() {
			close(held)
			<-release
		})
	})
	var nodes []*aquago.Node
	for i := 0; i < 3; i++ {
		var opts []aquago.NodeOption
		if i == 0 {
			opts = append(opts, aquago.WithNodeTrace(hold))
		}
		nd, err := net.Join(aquago.DeviceID(i), aquago.Position{X: float64(i) * relayLineSpacingM, Z: 1}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	ctx := context.Background()
	payload := []byte("relay!")
	type outcome struct {
		res aquago.BulkResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := net.SendBulkViaPipelined(ctx, []aquago.DeviceID{0, 1, 2}, payload)
		done <- outcome{res, err}
	}()
	<-held
	filler, err := nodes[1].SendAsync(ctx, 2, okMsg.ID)
	if err != nil {
		t.Fatalf("filling the relay's queue: %v", err)
	}
	free()
	out := <-done
	if out.err != nil || !bytes.Equal(out.res.Received, payload) {
		t.Fatalf("pipelined transfer past a full relay queue: %q, %v", out.res.Received, out.err)
	}
	if _, err := filler.Wait(ctx); err != nil {
		t.Fatalf("filler: %v", err)
	}
}

// TestPipelinedParkedForwardsStayWithinWindow: parked forwards are no
// hidden queue. The relay's one-job queue is kept full by
// conversational fillers, each re-enqueued from its predecessor's
// OnDone, so a forward finds it full at every completion of the
// transfer and parks. A parked forward keeps its packet's window slot:
// at every packet's first hop-0 exchange, the packets that aired hop 0
// but not yet hop 1 number at most the window (two) plus the relay's
// queue capacity (one), however the fillers and the transfer
// interleave.
func TestPipelinedParkedForwardsStayWithinWindow(t *testing.T) {
	const window, queueCap = 2, 1
	okMsg, _ := aquago.LookupMessage("OK?")
	net, err := aquago.NewNetwork(aquago.Bridge, aquago.WithNetworkSeed(3),
		aquago.WithCSRange(relayCSRangeM), aquago.WithTxQueueCapacity(queueCap))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	hop0, hop1 := map[int]bool{}, map[int]bool{}
	ahead := 0
	record := func(hop int) aquago.Trace {
		return aquago.TraceFunc(func(ev aquago.StageEvent) {
			if ev.BulkPkts == 0 || ev.Hop != hop {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if hop == 1 {
				hop1[ev.BulkPkt] = true
				return
			}
			if !hop0[ev.BulkPkt] {
				hop0[ev.BulkPkt] = true
				ahead = max(ahead, len(hop0)-len(hop1))
			}
		})
	}
	var nodes []*aquago.Node
	for i := 0; i < 3; i++ {
		var opts []aquago.NodeOption
		if i < 2 {
			opts = append(opts, aquago.WithNodeTrace(record(i)))
		}
		nd, err := net.Join(aquago.DeviceID(i), aquago.Position{X: float64(i) * relayLineSpacingM, Z: 1}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	ctx := context.Background()
	stopped := make(chan struct{})
	var refill func(aquago.TxDelivery)
	refill = func(aquago.TxDelivery) {
		select {
		case <-stopped:
			return
		default:
		}
		// A full queue (a forward got in first) ends the chain.
		_, _ = nodes[1].Enqueue(ctx, aquago.TxJob{Dst: 2, Msgs: []uint8{okMsg.ID}, Priority: aquago.TxNormal, OnDone: refill})
	}
	if _, err := nodes[1].Enqueue(ctx, aquago.TxJob{Dst: 2, Msgs: []uint8{okMsg.ID}, Priority: aquago.TxNormal, OnDone: refill}); err != nil {
		t.Fatal(err)
	}
	payload := []byte("a payload of twenty packets, forty bytes")
	res, err := net.SendBulkViaPipelined(ctx, []aquago.DeviceID{0, 1, 2}, payload)
	close(stopped)
	var re *aquago.RelayError
	switch {
	case err == nil && !bytes.Equal(res.Received, payload):
		t.Fatalf("clean finish delivered %q", res.Received)
	case err != nil && !(errors.As(err, &re) && errors.Is(err, aquago.ErrQueueFull)):
		t.Fatalf("want success or a *RelayError wrapping ErrQueueFull, got %v", err)
	case !bytes.Equal(res.Received, payload[:len(res.Received)]):
		t.Fatalf("received bytes are not a payload prefix: %q", res.Received)
	}
	if err := net.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	t.Logf("%d of %d packets aired hop 0, %d hop 1, at most %d ahead; err %v",
		len(hop0), len(payload)/2, len(hop1), ahead, err)
	if ahead > window+queueCap {
		t.Fatalf("%d packets aired hop 0 ahead of hop 1, want at most %d (window %d + relay queue %d)",
			ahead, window+queueCap, window, queueCap)
	}
}
