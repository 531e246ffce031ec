package aquago_test

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"aquago"
)

// linkOutcomeDigest pins the simulated outcomes of a fixed link
// scenario: one Session sending a fixed message list over Lake
// channels at 5, 15 and 30 m. The DSP kernels under it (FFTs,
// convolution, correlation, noise synthesis) may be rewritten for
// speed, but every attempt count, delivery, ACK, band and decoded
// byte must stay the same. Only a deliberate re-baseline, stated as
// such in the change that makes it, may update this value.
const linkOutcomeDigest = "ebffbb964da6d28e"

func TestLinkOutcomesPinned(t *testing.T) {
	ranges := []float64{5, 15, 30}
	msgs := []uint8{0, 3, 7, 12, 19, 1, 5, 9, 14, 2, 11, 16, 4, 8, 13, 6, 10, 15}
	s, err := aquago.Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for i, msg := range msgs {
		med, err := aquago.SimulatedWater(aquago.Lake, aquago.AtDistance(ranges[i%len(ranges)]),
			aquago.WithSeed(int64(1+i%6)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Send(med, 2, msg, aquago.NoMessage)
		t.Logf("%d m msg %d: attempts %d delivered %t acked %t band %d-%d decoded %x err %v",
			int(ranges[i%len(ranges)]), msg, res.Attempts, res.Delivered, res.Acknowledged,
			res.Last.Band.Lo, res.Last.Band.Hi, res.Last.Decoded, err)
		fmt.Fprintf(h, "%d:%d/%d/%t/%t/%d-%d/%x/%v|", i, msg, res.Attempts, res.Delivered, res.Acknowledged,
			res.Last.Band.Lo, res.Last.Band.Hi, res.Last.Decoded, err)
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != linkOutcomeDigest {
		t.Fatalf("link outcome digest %s, pinned %s", got, linkOutcomeDigest)
	}
}

// bulkRelayOutcomeDigest pins the relay layer's simulated outcomes:
// the lossy Bridge line at two seeds through both bulk engines, with
// and without a retry budget, plus a sequential transfer that splices
// its route mid-path. Every BulkResult field and the failure's
// *RelayError (fields and error class) feed the digest, so a rewrite
// of the relay engine must reproduce each transfer exactly.
const bulkRelayOutcomeDigest = "55eacd60b39ab14c"

// relayErrClass names the first sentinel err wraps, for the digest;
// error strings are deliberately left out.
func relayErrClass(err error) string {
	for _, c := range []struct {
		name string
		err  error
	}{
		{"noack", aquago.ErrNoACK},
		{"busy", aquago.ErrChannelBusy},
		{"cancelled", aquago.ErrTxCancelled},
		{"left", aquago.ErrNodeLeft},
		{"noroute", aquago.ErrNoRoute},
		{"full", aquago.ErrQueueFull},
	} {
		if errors.Is(err, c.err) {
			return c.name
		}
	}
	if err == nil {
		return "nil"
	}
	return "other"
}

// hashBulkOutcome folds one transfer's result and error into h.
func hashBulkOutcome(h io.Writer, res aquago.BulkResult, err error) {
	fmt.Fprintf(h, "path=%v pkts=%d/%d bytes=%d rx=%x attempts=%d retries=%d reroutes=%d start=%x end=%x|",
		res.Path, res.DeliveredPackets, res.Packets, res.DeliveredBytes, res.Received,
		res.Attempts, res.Retries, res.Reroutes, math.Float64bits(res.StartS), math.Float64bits(res.EndS))
	for i, b := range res.Bands {
		fmt.Fprintf(h, "%d-%d@%x,", b.Lo, b.Hi, math.Float64bits(res.PacketEndS[i]))
	}
	var re *aquago.RelayError
	if errors.As(err, &re) {
		fmt.Fprintf(h, "|relay hop=%d %d->%d path=%v pkt=%d", re.Hop, re.From, re.To, re.Path, re.Pkt)
	}
	fmt.Fprintf(h, "|class=%s\n", relayErrClass(err))
}

func TestBulkRelayOutcomesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs nine bulk relay transfers")
	}
	payload := []byte("progressive image!") // 18 bytes -> 9 packets
	ctx := context.Background()
	h := fnv.New64a()
	for _, seed := range []int64{14, 24} {
		for _, pipelined := range []bool{false, true} {
			for _, opts := range [][]aquago.NetworkOption{nil, {aquago.WithBulkRetries(0)}} {
				net, path := buildLossyLine(t, seed, opts...)
				send := net.SendBulkVia
				if pipelined {
					send = net.SendBulkViaPipelined
				}
				res, err := send(ctx, path, payload)
				t.Logf("seed %d pipelined=%v retries0=%v: %d/%d pkts, %d retries, err %v",
					seed, pipelined, opts != nil, res.DeliveredPackets, res.Packets, res.Retries, err)
				fmt.Fprintf(h, "seed=%d pipelined=%v retries0=%v ", seed, pipelined, opts != nil)
				hashBulkOutcome(h, res, err)
			}
		}
	}

	// A stale path: node 2 drifted out of earshot after the caller
	// routed, so the transfer splices at hop 1 onto the spare node 4.
	net, err := aquago.NewNetwork(aquago.Bridge, aquago.WithNetworkSeed(5), aquago.WithCSRange(30))
	if err != nil {
		t.Fatal(err)
	}
	for i, pos := range []aquago.Position{{X: 0, Z: 1}, {X: 25, Z: 1}, {X: 50, Z: 1}, {X: 75, Z: 1}, {X: 50, Y: 10, Z: 1}} {
		if _, err := net.Join(aquago.DeviceID(i), pos, aquago.WithNodeClock(0)); err != nil {
			t.Fatal(err)
		}
	}
	drifter, _ := net.Node(2)
	if err := drifter.SetPosition(aquago.Position{X: 50, Y: -200, Z: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := net.SendBulkVia(ctx, []aquago.DeviceID{0, 1, 2, 3}, payload[:8])
	t.Logf("stale path: walked %v, %d reroutes, %d/%d pkts, err %v", res.Path, res.Reroutes, res.DeliveredPackets, res.Packets, err)
	if res.Reroutes == 0 {
		t.Fatalf("stale path did not splice: %+v", res)
	}
	fmt.Fprint(h, "stale ")
	hashBulkOutcome(h, res, err)

	if got := fmt.Sprintf("%016x", h.Sum64()); got != bulkRelayOutcomeDigest {
		t.Fatalf("bulk relay outcome digest %s, pinned %s", got, bulkRelayOutcomeDigest)
	}
}
