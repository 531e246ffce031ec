package aquago_test

import (
	"fmt"
	"hash/fnv"
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
