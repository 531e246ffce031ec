package aquago_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"aquago"
)

// drainDeliveries consumes the network's delivery queue into a
// time-ordered slice for later assertions. Call stop() only after the
// traffic of interest drained (Flush) — the collector keeps the pump
// from stalling on a full channel in the meantime.
func drainDeliveries(ch <-chan aquago.TxDelivery) (got func() []aquago.TxDelivery, stop func()) {
	var mu sync.Mutex
	var all []aquago.TxDelivery
	done := make(chan struct{})
	go func() {
		for {
			select {
			case d := <-ch:
				mu.Lock()
				all = append(all, d)
				mu.Unlock()
			case <-done:
				return
			}
		}
	}()
	got = func() []aquago.TxDelivery {
		mu.Lock()
		defer mu.Unlock()
		return append([]aquago.TxDelivery(nil), all...)
	}
	return got, func() { close(done) }
}

// TestSendAsyncMatchesBlockingSend pins the queued path to the
// blocking one: the same exchange on identically seeded networks
// produces byte-identical SendResults whether it ran through
// Node.Send or through the transmit queue.
func TestSendAsyncMatchesBlockingSend(t *testing.T) {
	okMsg, _ := aquago.LookupMessage("OK?")
	upMsg, _ := aquago.LookupMessage("Go up")

	_, _, a1, _ := buildTriangle(t, 17)
	blocking, err := a1.Send(context.Background(), 0, okMsg.ID, upMsg.ID)
	if err != nil {
		t.Fatal(err)
	}

	_, _, a2, _ := buildTriangle(t, 17)
	h, err := a2.SendAsync(context.Background(), 0, okMsg.ID, upMsg.ID)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(blocking, queued) {
		t.Fatalf("queued send diverged from blocking send:\nblocking %+v\nqueued   %+v", blocking, queued)
	}
	if h.TxID() == 0 {
		t.Fatal("handle TxID is 0; queued sends must stamp a nonzero ID")
	}
	if h.EndS() <= 0 {
		t.Fatalf("handle EndS = %g, want > 0 after delivery", h.EndS())
	}
}

// TestTxQueueFIFOWithinPriority enqueues a mixed-priority burst on
// one node and asserts the queue's ordering contract: within each
// priority, jobs complete in enqueue order, and a high-priority job
// enqueued last still overtakes queued bulk work.
func TestTxQueueFIFOWithinPriority(t *testing.T) {
	net, _, a, _ := buildTriangle(t, 23)
	ch := net.Deliveries()
	got, stop := drainDeliveries(ch)
	defer stop()

	okMsg, _ := aquago.LookupMessage("OK?")
	plan := []aquago.TxPriority{
		aquago.TxBulk, aquago.TxBulk, aquago.TxNormal,
		aquago.TxHigh, aquago.TxNormal, aquago.TxBulk,
	}
	ids := make(map[uint64]aquago.TxPriority, len(plan))
	var lastBulk, highID uint64
	for _, pri := range plan {
		h, err := a.Enqueue(context.Background(), aquago.TxJob{
			Dst: 0, Msgs: []uint8{okMsg.ID}, Priority: pri,
		})
		if err != nil {
			t.Fatalf("enqueue %v: %v", pri, err)
		}
		ids[h.TxID()] = pri
		if pri == aquago.TxBulk {
			lastBulk = h.TxID()
		}
		if pri == aquago.TxHigh {
			highID = h.TxID()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := net.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}

	deadline := time.Now().Add(10 * time.Second)
	var order []aquago.TxDelivery
	for len(order) < len(plan) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d deliveries arrived", len(order), len(plan))
		}
		order = got()
		time.Sleep(5 * time.Millisecond)
	}
	lastPerPri := map[aquago.TxPriority]uint64{}
	highPos, lastBulkPos := -1, -1
	for i, d := range order {
		if d.Err != nil {
			t.Fatalf("delivery %d (tx %d) failed: %v", i, d.TxID, d.Err)
		}
		if want, ok := ids[d.TxID]; !ok || want != d.Priority {
			t.Fatalf("delivery %d: unexpected tx %d priority %v", i, d.TxID, d.Priority)
		}
		if prev := lastPerPri[d.Priority]; d.TxID < prev {
			t.Fatalf("priority %v completed out of FIFO order: tx %d after tx %d", d.Priority, d.TxID, prev)
		}
		lastPerPri[d.Priority] = d.TxID
		if d.TxID == highID {
			highPos = i
		}
		if d.TxID == lastBulk {
			lastBulkPos = i
		}
	}
	if highPos > lastBulkPos {
		t.Fatalf("high-priority job completed at %d, after bulk job at %d", highPos, lastBulkPos)
	}
}

// TestEnqueueValidation walks the enqueue-time error taxonomy.
func TestEnqueueValidation(t *testing.T) {
	_, _, a, _ := buildTriangle(t, 5, aquago.WithTxQueueCapacity(1))
	okMsg, _ := aquago.LookupMessage("OK?")
	ctx := context.Background()

	if _, err := a.Enqueue(ctx, aquago.TxJob{Dst: 0}); !errors.Is(err, aquago.ErrBadMessage) {
		t.Fatalf("empty job: err = %v, want ErrBadMessage", err)
	}
	raw := [2]byte{1, 2}
	if _, err := a.Enqueue(ctx, aquago.TxJob{Dst: 0, Msgs: []uint8{okMsg.ID}, Raw: &raw}); !errors.Is(err, aquago.ErrBadMessage) {
		t.Fatalf("msgs+raw: err = %v, want ErrBadMessage", err)
	}
	if _, err := a.Enqueue(ctx, aquago.TxJob{Dst: 0, Msgs: []uint8{okMsg.ID}, Priority: aquago.TxPriority(9)}); !errors.Is(err, aquago.ErrBadMessage) {
		t.Fatalf("bad priority: err = %v, want ErrBadMessage", err)
	}
	if _, err := a.SendAsync(ctx, 99, okMsg.ID); !errors.Is(err, aquago.ErrUnknownDevice) {
		t.Fatalf("unknown dst: err = %v, want ErrUnknownDevice", err)
	}

	// Capacity 1: the first job dispatches straight to the daemon, the
	// second occupies the queue, the third must bounce.
	h1, err := a.SendAsync(ctx, 0, okMsg.ID)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := a.SendAsync(ctx, 0, okMsg.ID)
	if err != nil {
		t.Fatalf("second enqueue should queue, got %v", err)
	}
	if _, err := a.SendAsync(ctx, 0, okMsg.ID); !errors.Is(err, aquago.ErrQueueFull) {
		t.Fatalf("third enqueue: err = %v, want ErrQueueFull", err)
	}
	for _, h := range []*aquago.TxHandle{h1, h2} {
		if _, err := h.Wait(ctx); err != nil {
			t.Fatalf("tx %d: %v", h.TxID(), err)
		}
	}
}

// TestTxHandleCancelQueued cancels a job that never reached the radio
// and expects an immediate ErrTxCancelled with a zero result.
func TestTxHandleCancelQueued(t *testing.T) {
	_, _, a, _ := buildTriangle(t, 7)
	okMsg, _ := aquago.LookupMessage("OK?")
	ctx := context.Background()
	h1, err := a.SendAsync(ctx, 0, okMsg.ID)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := a.SendAsync(ctx, 0, okMsg.ID)
	if err != nil {
		t.Fatal(err)
	}
	h2.Cancel()
	res, err := h2.Wait(ctx)
	if !errors.Is(err, aquago.ErrTxCancelled) {
		t.Fatalf("cancelled job: err = %v, want ErrTxCancelled", err)
	}
	if res.Attempts != 0 || res.Delivered {
		t.Fatalf("cancelled-while-queued job has a nonzero result: %+v", res)
	}
	if res, err := h1.Wait(ctx); err != nil || !res.Delivered {
		t.Fatalf("inflight neighbor affected by cancel: %+v, %v", res, err)
	}
	h2.Cancel() // cancelling a done job is a no-op
}

// TestPipelinedBulkConservesBytes runs the pipelined transfer down a
// 3-hop line and checks the SendBulkVia conservation contract holds
// packet for packet.
func TestPipelinedBulkConservesBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full adaptive exchanges per hop")
	}
	payload := []byte("pipelined underwater bulk!") // 26 bytes -> 13 packets
	net, _ := buildRelayLine(t, 3)
	res, err := net.SendBulkViaPipelined(context.Background(),
		[]aquago.DeviceID{0, 1, 2, 3}, payload)
	if err != nil {
		t.Fatalf("pipelined transfer: %v (result %+v)", err, res)
	}
	if !bytes.Equal(res.Received, payload) {
		t.Fatalf("payload not conserved:\nsent     %q\nreceived %q", payload, res.Received)
	}
	wantPkts := (len(payload) + 1) / 2
	if res.Packets != wantPkts || res.DeliveredPackets != wantPkts || res.DeliveredBytes != len(payload) {
		t.Fatalf("delivery accounting wrong: %+v", res)
	}
	if len(res.Bands) != wantPkts {
		t.Fatalf("band trace has %d entries, want %d", len(res.Bands), wantPkts)
	}
	if res.EndS <= res.StartS {
		t.Fatalf("transfer window degenerate: start %g end %g", res.StartS, res.EndS)
	}
}

// TestPipelinedBulkWorkerInvariance is the queued-path determinism
// golden: the same pipelined transfer on 1 scheduler worker and on 8
// is deep-equal, with and without the p-persistent MAC and adaptive
// backoff quanta.
func TestPipelinedBulkWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full adaptive exchanges per hop")
	}
	payload := []byte("worker invariance")
	variants := []struct {
		name string
		opts []aquago.NetworkOption
	}{
		{"classic", nil},
		{"ppersistent-adaptive", []aquago.NetworkOption{
			aquago.WithPPersistence(0.7), aquago.WithAdaptiveBackoff(),
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			run := func(workers int) aquago.BulkResult {
				net, _ := buildRelayLine(t, 3,
					append([]aquago.NetworkOption{aquago.WithNetworkWorkers(workers)}, v.opts...)...)
				res, err := net.SendBulkViaPipelined(context.Background(),
					[]aquago.DeviceID{0, 1, 2, 3}, payload)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return res
			}
			one, eight := run(1), run(8)
			if !reflect.DeepEqual(one, eight) {
				t.Fatalf("pipelined transfer is worker-count dependent:\n1 worker:  %+v\n8 workers: %+v", one, eight)
			}
		})
	}
}

// TestPipelinedBulkMidTransferCancel cancels the transfer context
// after the first packets deliver and expects a clean abort: a
// RelayError wrapping ErrTxCancelled, and Received a contiguous
// prefix of the payload.
func TestPipelinedBulkMidTransferCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full adaptive exchanges per hop")
	}
	payload := make([]byte, 32) // 16 packets
	for i := range payload {
		payload[i] = byte(i + 1)
	}
	net, _ := buildRelayLine(t, 2)
	ch := net.Deliveries()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		finals := 0
		for d := range ch {
			if d.To == 2 && d.Err == nil {
				finals++
				if finals == 2 {
					cancel()
				}
			}
		}
	}()
	res, err := net.SendBulkViaPipelined(ctx, []aquago.DeviceID{0, 1, 2}, payload)
	if err == nil {
		t.Fatalf("cancelled transfer returned no error: %+v", res)
	}
	var rerr *aquago.RelayError
	if !errors.As(err, &rerr) {
		t.Fatalf("err = %v (%T), want *RelayError", err, err)
	}
	if !errors.Is(err, aquago.ErrTxCancelled) && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want to wrap ErrTxCancelled or context.Canceled", err)
	}
	if res.DeliveredPackets >= res.Packets {
		t.Fatalf("transfer completed despite cancellation: %+v", res)
	}
	if !bytes.Equal(res.Received, payload[:res.DeliveredBytes]) {
		t.Fatalf("Received is not a contiguous payload prefix:\nwant %v\ngot  %v", payload[:res.DeliveredBytes], res.Received)
	}
}

// TestConcurrentEnqueuers hammers the queue from racing goroutines:
// everything must complete and drain, and per-node FIFO must hold for
// whatever interleaving the race produced.
func TestConcurrentEnqueuers(t *testing.T) {
	net, _, a, b := buildTriangle(t, 31)
	okMsg, _ := aquago.LookupMessage("OK?")
	const perNode = 4
	var wg sync.WaitGroup
	var mu sync.Mutex
	handles := make(map[aquago.DeviceID][]*aquago.TxHandle)
	for _, nd := range []*aquago.Node{a, b} {
		wg.Add(1)
		go func(nd *aquago.Node) {
			defer wg.Done()
			for i := 0; i < perNode; i++ {
				h, err := nd.SendAsync(context.Background(), 0, okMsg.ID)
				if err != nil {
					t.Errorf("node %d enqueue %d: %v", nd.ID(), i, err)
					return
				}
				mu.Lock()
				handles[nd.ID()] = append(handles[nd.ID()], h)
				mu.Unlock()
			}
		}(nd)
	}
	wg.Wait()
	ctx, cancelFlush := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancelFlush()
	if err := net.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for id, hs := range handles {
		var lastEnd float64
		for i, h := range hs {
			res, err := h.Wait(context.Background())
			if err != nil || !res.Delivered {
				t.Fatalf("node %d job %d: %+v, %v", id, i, res, err)
			}
			// Per-node FIFO: each job's exchange ends after its
			// predecessor's on the virtual timeline.
			if h.EndS() <= lastEnd {
				t.Fatalf("node %d job %d ended at %g, not after predecessor's %g", id, i, h.EndS(), lastEnd)
			}
			lastEnd = h.EndS()
		}
	}
}

// TestNodeLeave drains the departing node's queue with ErrNodeLeft
// and fails later traffic from and to it.
func TestNodeLeave(t *testing.T) {
	_, _, a, b := buildTriangle(t, 13)
	okMsg, _ := aquago.LookupMessage("OK?")
	ctx := context.Background()

	h1, err := a.SendAsync(ctx, 0, okMsg.ID)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := a.SendAsync(ctx, 0, okMsg.ID)
	if err != nil {
		t.Fatal(err)
	}
	a.Leave()
	a.Leave() // idempotent
	if _, err := h2.Wait(ctx); !errors.Is(err, aquago.ErrNodeLeft) {
		t.Fatalf("queued job on departed node: err = %v, want ErrNodeLeft", err)
	}
	// The inflight job races Leave: either it finished cleanly or the
	// abort reached it.
	if _, err := h1.Wait(ctx); err != nil && !errors.Is(err, aquago.ErrNodeLeft) {
		t.Fatalf("inflight job on departed node: err = %v, want nil or ErrNodeLeft", err)
	}

	if _, err := a.Send(ctx, 0, okMsg.ID); !errors.Is(err, aquago.ErrNodeLeft) {
		t.Fatalf("blocking send from departed node: err = %v, want ErrNodeLeft", err)
	}
	if _, err := b.Send(ctx, a.ID(), okMsg.ID); !errors.Is(err, aquago.ErrNodeLeft) {
		t.Fatalf("blocking send to departed node: err = %v, want ErrNodeLeft", err)
	}
	if _, err := b.SendAsync(ctx, a.ID(), okMsg.ID); !errors.Is(err, aquago.ErrNodeLeft) {
		t.Fatalf("enqueue to departed node: err = %v, want ErrNodeLeft", err)
	}
}

// TestAsyncOptionValidation pins NewNetwork's rejection of bad async
// configuration.
func TestAsyncOptionValidation(t *testing.T) {
	bad := []struct {
		name string
		opt  aquago.NetworkOption
	}{
		{"zero queue capacity", aquago.WithTxQueueCapacity(0)},
		{"negative queue capacity", aquago.WithTxQueueCapacity(-4)},
		{"zero delivery buffer", aquago.WithDeliveryBuffer(0)},
		{"negative persistence", aquago.WithPPersistence(-0.1)},
		{"persistence above one", aquago.WithPPersistence(1.5)},
		{"NaN persistence", aquago.WithPPersistence(math.NaN())},
	}
	for _, tc := range bad {
		if _, err := aquago.NewNetwork(aquago.Bridge, tc.opt); err == nil {
			t.Errorf("%s: NewNetwork accepted it", tc.name)
		}
	}
	if _, err := aquago.NewNetwork(aquago.Bridge,
		aquago.WithPPersistence(1), aquago.WithTxQueueCapacity(1), aquago.WithDeliveryBuffer(1)); err != nil {
		t.Errorf("valid edge configuration rejected: %v", err)
	}
}

// TestPPersistentNetworkDeterministic runs contending senders under
// the p-persistent MAC twice with the same seed and expects identical
// results — the per-node slotted coin flips are seeded draws, not
// wall-clock noise.
func TestPPersistentNetworkDeterministic(t *testing.T) {
	run := func() map[aquago.DeviceID]aquago.SendResult {
		_, _, a, b := buildTriangle(t, 41,
			aquago.WithPPersistence(0.5), aquago.WithAdaptiveBackoff())
		return concurrentSends(t, a, b)
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("p-persistent MAC results differ across identical runs:\n%+v\n%+v", first, second)
	}
	for id, res := range first {
		if !res.Delivered {
			t.Fatalf("node %d failed to deliver under p-persistence: %+v", id, res)
		}
	}
}

// TestDeliveriesCarryTxIDs checks the delivery queue surfaces the
// same completions the handles resolve with, keyed by TxID.
func TestDeliveriesCarryTxIDs(t *testing.T) {
	net, _, a, b := buildTriangle(t, 43)
	ch := net.Deliveries()
	got, stop := drainDeliveries(ch)
	defer stop()
	okMsg, _ := aquago.LookupMessage("OK?")
	var want []uint64
	for i, nd := range []*aquago.Node{a, b, a} {
		h, err := nd.SendAsync(context.Background(), 0, okMsg.ID)
		if err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		want = append(want, h.TxID())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := net.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ds := got()
		if len(ds) == len(want) {
			seen := map[uint64]bool{}
			for _, d := range ds {
				seen[d.TxID] = true
				if d.Err != nil {
					t.Fatalf("tx %d delivery error: %v", d.TxID, d.Err)
				}
			}
			for _, id := range want {
				if !seen[id] {
					t.Fatalf("tx %d never appeared on the delivery queue (%v)", id, ds)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivery queue stalled: %d of %d arrived", len(ds), len(want))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBlockingSendIsQueuedJob pins the blocking Send to the transmit
// queue: its stage events carry its nonzero TxID and its completion
// lands on Deliveries. Racing a conflicting queued job (both address
// node 0) it waits its turn at the dispatch gate, so the two never
// overlap even with free worker slots, and the outcome is the one a
// single worker gives.
func TestBlockingSendIsQueuedJob(t *testing.T) {
	okMsg, _ := aquago.LookupMessage("OK?")
	upMsg, _ := aquago.LookupMessage("Go up")
	type outcome struct {
		Blocking, Queued aquago.SendResult
		BlockingID       uint64
		EventIDs         []uint64
		Delivered        map[uint64]aquago.SendResult
	}
	run := func(workers int) (outcome, aquago.SchedulerStats) {
		var mu sync.Mutex
		var out outcome
		net, recv, a, b := buildTriangle(t, 5,
			aquago.WithNetworkWorkers(workers),
			aquago.WithNetworkTrace(aquago.TraceFunc(func(ev aquago.StageEvent) {
				mu.Lock()
				out.EventIDs = append(out.EventIDs, ev.TxID)
				mu.Unlock()
			})))
		deliveries := net.Deliveries()
		ctx := context.Background()
		h, err := b.SendAsync(ctx, recv.ID(), upMsg.ID)
		if err != nil {
			t.Fatal(err)
		}
		if out.Blocking, err = a.Send(ctx, recv.ID(), okMsg.ID); err != nil {
			t.Fatalf("blocking send: %v", err)
		}
		if out.Queued, err = h.Wait(ctx); err != nil {
			t.Fatalf("queued send: %v", err)
		}
		if err := net.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		out.Delivered = make(map[uint64]aquago.SendResult)
		for len(out.Delivered) < 2 {
			select {
			case d := <-deliveries:
				out.Delivered[d.TxID] = d.Result
			case <-time.After(30 * time.Second):
				t.Fatalf("only %d of 2 deliveries arrived", len(out.Delivered))
			}
		}
		// TxIDs are handed out in enqueue order: the blocking send
		// enqueued right after the async one.
		out.BlockingID = h.TxID() + 1
		return out, net.SchedulerStats()
	}

	par, st := run(4)
	if st.MaxConcurrent != 1 {
		t.Fatalf("conflicting blocking and queued sends overlapped: MaxConcurrent = %d", st.MaxConcurrent)
	}
	if len(par.EventIDs) == 0 {
		t.Fatal("no stage events traced")
	}
	for _, id := range par.EventIDs {
		if id == 0 {
			t.Fatal("a blocking send's stage event carries TxID 0")
		}
	}
	res, ok := par.Delivered[par.BlockingID]
	if !ok {
		t.Fatalf("blocking send (TxID %d) missing from Deliveries: %v", par.BlockingID, par.Delivered)
	}
	if !reflect.DeepEqual(res, par.Blocking) {
		t.Fatalf("delivery %+v differs from Send's result %+v", res, par.Blocking)
	}
	ser, _ := run(1)
	if !reflect.DeepEqual(par, ser) {
		t.Fatalf("worker count changed the outcome:\nworkers=4: %+v\nworkers=1: %+v", par, ser)
	}
}
