package exp

import (
	"math"
	"testing"
)

func TestMobilityValidate(t *testing.T) {
	good := MobilityPoint{Hops: 3, PayloadBytes: 8, DriftSpeedMS: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("good point rejected: %v", err)
	}
	pipe := good
	pipe.Pipelined = true
	if err := pipe.Validate(); err != nil {
		t.Fatalf("pipelined point rejected: %v", err)
	}
	bad := []struct {
		name string
		mut  func(*MobilityPoint)
	}{
		{"one hop", func(p *MobilityPoint) { p.Hops = 1 }},
		{"too many nodes", func(p *MobilityPoint) { p.Hops = 60 }},
		{"negative spacing", func(p *MobilityPoint) { p.SpacingM = -1 }},
		{"deaf line", func(p *MobilityPoint) { p.CSRangeM = 10; p.SpacingM = 25 }},
		{"no payload", func(p *MobilityPoint) { p.PayloadBytes = 0 }},
		{"payload over cap", func(p *MobilityPoint) { p.PayloadBytes = maxBulkBytes + 1 }},
		{"sub-packet chunk", func(p *MobilityPoint) { p.ChunkBytes = 1 }},
		{"NaN drift", func(p *MobilityPoint) { p.DriftSpeedMS = math.NaN() }},
		{"negative drift", func(p *MobilityPoint) { p.DriftSpeedMS = -0.5 }},
		{"boat drift", func(p *MobilityPoint) { p.DriftSpeedMS = maxDriftSpeedMS + 1 }},
	}
	for _, tc := range bad {
		p := good
		tc.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, p)
		}
	}
}

// TestMobilityDriftingDiverReroutes pins the harness's core behavior:
// a fast drift delivers the whole payload anyway, repairs the route
// at least once, and ends on a shorter path than it started
// (everything is deterministic, so these are exact expectations, not
// tendencies).
func TestMobilityDriftingDiverReroutes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-chunk relay transfer in -short mode")
	}
	pt := MobilityPoint{
		Hops:         3,
		PayloadBytes: 24,
		ChunkBytes:   4,
		DriftSpeedMS: 2,
		Seed:         3,
	}
	res, err := RunMobilityPoint(pt)
	if err != nil {
		t.Fatalf("drifting transfer failed: %v (result %+v)", err, res)
	}
	if res.DeliveredBytes != pt.PayloadBytes {
		t.Errorf("delivered %d of %d bytes", res.DeliveredBytes, pt.PayloadBytes)
	}
	if res.Epochs == 0 {
		t.Error("no position epochs applied — the diver never moved")
	}
	if res.Reroutes == 0 {
		t.Error("no route repairs at 2 m/s over a 3-hop line")
	}
	if res.FinalHops >= res.InitialHops {
		t.Errorf("route did not shorten: %d -> %d hops", res.InitialHops, res.FinalHops)
	}

	// The static baseline never moves, never repairs.
	pt.DriftSpeedMS = 0
	static, err := RunMobilityPoint(pt)
	if err != nil {
		t.Fatalf("static transfer failed: %v", err)
	}
	if static.Epochs != 0 || static.Reroutes != 0 {
		t.Errorf("static run moved: %d epochs, %d reroutes", static.Epochs, static.Reroutes)
	}
	if static.DeliveredBytes != pt.PayloadBytes {
		t.Errorf("static run delivered %d of %d bytes", static.DeliveredBytes, pt.PayloadBytes)
	}
}

// TestMobilityRelayFailureIsAnOutcome: the full-size sweep's
// sequential 0.5 m/s point loses hop 0->1 of its 6-hop path after the
// retry budget is spent. The point reports that as a Failed outcome
// over the delivered prefix instead of an error that would abort the
// whole experiment.
func TestMobilityRelayFailureIsAnOutcome(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-chunk relay transfer in -short mode")
	}
	res, err := RunMobilityPoint(MobilityPoint{
		Hops:         6,
		PayloadBytes: 48,
		ChunkBytes:   4,
		DriftSpeedMS: 0.5,
		Seed:         1 + 2*5407, // the full-size sweep's seed for this point
	})
	if err != nil {
		t.Fatalf("relay failure surfaced as an error: %v", err)
	}
	if !res.Failed || res.DeliveredPackets >= res.Packets {
		t.Fatalf("want a failed point with a partial delivery, got %+v", res)
	}
	if res.DeliveredBytes > 0 && !(res.LatencyS > 0 && res.GoodputBPS > 0) {
		t.Fatalf("delivered %d bytes but no goodput window: %+v", res.DeliveredBytes, res)
	}
}

// TestMobilityDeterminismAcrossWorkers pins the drifting-diver
// transfer — motion epochs, route repairs and all — as worker-count
// invariant, for both the sequential and the pipelined relay (the CI
// race job runs this under -race).
func TestMobilityDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated relay transfers in -short mode")
	}
	for _, pipelined := range []bool{false, true} {
		pt := MobilityPoint{
			Hops:         3,
			PayloadBytes: 16,
			ChunkBytes:   4,
			DriftSpeedMS: 2,
			Seed:         9,
			Pipelined:    pipelined,
		}
		pt.Workers = 1
		serial, err := RunMobilityPoint(pt)
		if err != nil {
			t.Fatalf("pipelined=%v serial: %v", pipelined, err)
		}
		pt.Workers = 0 // one per core
		parallel, err := RunMobilityPoint(pt)
		if err != nil {
			t.Fatalf("pipelined=%v parallel: %v", pipelined, err)
		}
		if sk, pk := serial.DeterministicKey(), parallel.DeterministicKey(); sk != pk {
			t.Fatalf("pipelined=%v: workers changed results:\n  serial:   %s\n  parallel: %s",
				pipelined, sk, pk)
		}
		if serial.DeliveredBytes != pt.PayloadBytes {
			t.Fatalf("pipelined=%v: delivered %d of %d bytes", pipelined,
				serial.DeliveredBytes, pt.PayloadBytes)
		}
	}
}
