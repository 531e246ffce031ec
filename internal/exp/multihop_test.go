package exp

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"aquago"
)

// tinyMultiHopSweep is the relay golden workload: small enough for
// repeated -race runs, wide enough to cross both contention modes, a
// genuine multi-hop line, a grid, and a pod topology of isolated
// collision domains.
func tinyMultiHopSweep() multiHopSweep {
	return multiHopSweep{
		envHops:      []int{1, 3},
		waveHops:     []int{2},
		payloadBytes: 6,
		utils:        []float64{0.5},
		loadTopos: []MultiHopLoadPoint{
			{Topo: "line", A: 4},
			{Topo: "pods", A: 2, B: 3},
		},
		targetMsgs: 6,
		pipeHops:   []int{1, 3},
	}
}

// TestMultiHopGoldenSeedsWorkers extends the macload seeds×workers
// pattern to the relay harness: for fixed seeds the full report —
// bulk goodput/latency per hop count in both contention modes, plus
// the relayed offered-load tables — must be deeply equal whether the
// measurement points run serially (Workers: 1) or fan out across the
// experiment pool (Workers: 4). Inside each point the live Network
// runs its own dispatch gate, so this additionally pins that relay
// forwarding respects the gate's order deterministically.
func TestMultiHopGoldenSeedsWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the tiny relay sweep several times")
	}
	for _, seed := range []int64{3, 11} {
		serial, err := multiHopReport(RunConfig{Seed: seed, Quick: true, Workers: 1}, tinyMultiHopSweep())
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		parallel, err := multiHopReport(RunConfig{Seed: seed, Quick: true, Workers: 4}, tinyMultiHopSweep())
		if err != nil {
			t.Fatalf("seed %d parallel: %v", seed, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("seed %d: Workers:1 and Workers:4 reports differ\nserial:   %+v\nparallel: %+v",
				seed, serial, parallel)
		}
		// The tables must not be vacuous: goodput present for both
		// contention modes and for the relayed-load axis.
		var envSeen, waveSeen, loadSeen, pipeSeen bool
		for _, s := range serial.Series {
			if !strings.Contains(s.Name, "goodput") {
				continue
			}
			if len(s.X) == 0 {
				t.Fatalf("seed %d: empty goodput series %q", seed, s.Name)
			}
			switch {
			case strings.Contains(s.Name, "pipelined"):
				pipeSeen = true
			case strings.Contains(s.Name, "envelope"):
				envSeen = true
			case strings.Contains(s.Name, "waveform"):
				waveSeen = true
			case strings.Contains(s.Name, "offered load"):
				loadSeen = true
			}
		}
		if !envSeen || !waveSeen || !loadSeen || !pipeSeen {
			t.Fatalf("seed %d: goodput series missing an axis (envelope %v, waveform %v, load %v, pipelined %v)",
				seed, envSeen, waveSeen, loadSeen, pipeSeen)
		}
	}
}

// TestMultiHopBulkConservation: the bulk point must deliver every
// packet and divide goodput by roughly the hop count (store and
// forward: each hop retransmits the full payload).
func TestMultiHopBulkConservation(t *testing.T) {
	one, err := RunMultiHopPoint(MultiHopPoint{
		Hops: 1, PayloadBytes: 6, Mode: aquago.EnvelopeContention, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	three, err := RunMultiHopPoint(MultiHopPoint{
		Hops: 3, PayloadBytes: 6, Mode: aquago.EnvelopeContention, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []MultiHopResult{one, three} {
		if r.DeliveredPackets != r.Packets || r.Packets != 3 {
			t.Fatalf("bulk transfer dropped packets: %+v", r)
		}
		if r.GoodputBPS <= 0 || r.LatencyS <= 0 {
			t.Fatalf("degenerate measurement: %+v", r)
		}
	}
	if three.Hops != 3 || one.Hops != 1 {
		t.Fatalf("routes have wrong hop counts: %+v / %+v", one, three)
	}
	// 3 hops means >= 3x the transmissions; allow protocol slack but
	// pin the ordering.
	if !(three.LatencyS > 2*one.LatencyS) || !(three.GoodputBPS < one.GoodputBPS/2) {
		t.Fatalf("store-and-forward cost not visible: 1 hop %+v vs 3 hops %+v", one, three)
	}
}

// TestMultiHopPointValidate walks the rejection paths shared with
// cmd/aquanet relay.
func TestMultiHopPointValidate(t *testing.T) {
	good := MultiHopPoint{Hops: 3, PayloadBytes: 16, Mode: aquago.EnvelopeContention}
	cases := []struct {
		name    string
		mutate  func(*MultiHopPoint)
		wantErr string
	}{
		{"valid", func(*MultiHopPoint) {}, ""},
		{"max hops", func(p *MultiHopPoint) { p.Hops = 59 }, ""},
		{"zero hops", func(p *MultiHopPoint) { p.Hops = 0 }, "at least one hop"},
		{"too many hops", func(p *MultiHopPoint) { p.Hops = 60 }, "60-device limit"},
		{"NaN spacing", func(p *MultiHopPoint) { p.SpacingM = math.NaN() }, "not a usable distance"},
		{"negative spacing", func(p *MultiHopPoint) { p.SpacingM = -4 }, "not a usable distance"},
		{"deaf range", func(p *MultiHopPoint) { p.SpacingM = 25; p.CSRangeM = 10 }, "no route exists"},
		{"no payload", func(p *MultiHopPoint) { p.PayloadBytes = 0 }, "need a payload"},
		{"huge payload", func(p *MultiHopPoint) { p.PayloadBytes = maxBulkBytes + 1 }, "cap"},
		{"bad mode", func(p *MultiHopPoint) { p.Mode = aquago.ContentionMode(9) }, "unknown contention mode"},
		{"bad policy", func(p *MultiHopPoint) { p.Policy = aquago.RoutingPolicy(7) }, "unknown routing policy"},
	}
	for _, tc := range cases {
		p := good
		tc.mutate(&p)
		err := p.Validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: error expected, got nil", tc.name)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestMultiHopLoadPointValidate covers the load-point rejections.
func TestMultiHopLoadPointValidate(t *testing.T) {
	good := MultiHopLoadPoint{Topo: "line", A: 4, RateHz: 0.05, DurationS: 60}
	cases := []struct {
		name    string
		mutate  func(*MultiHopLoadPoint)
		wantErr string
	}{
		{"valid line", func(*MultiHopLoadPoint) {}, ""},
		{"valid grid", func(p *MultiHopLoadPoint) { p.Topo = "grid"; p.A, p.B = 3, 3 }, ""},
		{"valid pods", func(p *MultiHopLoadPoint) { p.Topo = "pods"; p.A, p.B = 2, 3 }, ""},
		{"bad topo", func(p *MultiHopLoadPoint) { p.Topo = "torus" }, "unknown topology"},
		{"single node line", func(p *MultiHopLoadPoint) { p.A = 1 }, "at least two"},
		{"thin grid", func(p *MultiHopLoadPoint) { p.Topo = "grid"; p.A, p.B = 3, 1 }, "at least two"},
		{"too many nodes", func(p *MultiHopLoadPoint) { p.Topo = "grid"; p.A, p.B = 8, 8 }, "60-device"},
		{"NaN rate", func(p *MultiHopLoadPoint) { p.RateHz = math.NaN() }, "not usable"},
		{"zero duration", func(p *MultiHopLoadPoint) { p.DurationS = 0 }, "not usable"},
		{"schedule blow-up", func(p *MultiHopLoadPoint) { p.RateHz = 1e4; p.DurationS = 1e4 }, "cap"},
	}
	for _, tc := range cases {
		p := good
		tc.mutate(&p)
		err := p.Validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: error expected, got nil", tc.name)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestMultiHopPodsDeliverLocally: on isolated pods every arrival
// finds a pod-local route, and relayed traffic reaches the scheduler.
func TestMultiHopPodsDeliverLocally(t *testing.T) {
	res, err := RunMultiHopLoadPoint(MultiHopLoadPoint{
		Topo: "pods", A: 2, B: 3,
		RateHz:    0.3,
		DurationS: 12,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredMsgs == 0 || res.NoRoutes != 0 {
		t.Fatalf("pod-local traffic should deliver with zero NoRoutes: %+v", res)
	}
	if res.Sched.Committed == 0 || res.Sched.AirtimeS <= 0 {
		t.Fatalf("scheduler counters not accounted: %+v", res.Sched)
	}
}

// TestMultiHopPipelinedOutpacesSequential pins the tentpole claim:
// on the 3-hop line, the pipelined transfer over per-relay transmit
// queues with the p-persistent MAC and adaptive backoff quanta
// delivers everything and beats the sequential store-and-forward
// goodput.
func TestMultiHopPipelinedOutpacesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full adaptive exchanges per hop")
	}
	base := MultiHopPoint{
		Hops: 3, PayloadBytes: 8, Mode: aquago.EnvelopeContention,
		Seed: 1,
	}
	seq, err := RunMultiHopPoint(base)
	if err != nil {
		t.Fatal(err)
	}
	pipe := base
	pipe.Pipelined = true
	pipe.Persist = 0.7
	pipe.AdaptiveBackoff = true
	pip, err := RunMultiHopPoint(pipe)
	if err != nil {
		t.Fatal(err)
	}
	if pip.DeliveredPackets != pip.Packets {
		t.Fatalf("pipelined transfer dropped packets: %+v", pip)
	}
	if pip.GoodputBPS <= seq.GoodputBPS {
		t.Fatalf("pipelined goodput %.2f bps does not beat sequential %.2f bps",
			pip.GoodputBPS, seq.GoodputBPS)
	}
	t.Logf("3-hop envelope bulk: pipelined %.2f bps vs sequential %.2f bps", pip.GoodputBPS, seq.GoodputBPS)
}

// TestMultiHopPipelinedValidate covers the pipelined point's error
// paths.
func TestMultiHopPipelinedValidate(t *testing.T) {
	base := MultiHopPoint{Hops: 2, PayloadBytes: 4, Mode: aquago.EnvelopeContention}
	for _, persist := range []float64{math.NaN(), -0.2, 1.3} {
		p := base
		p.Persist = persist
		if err := p.Validate(); err == nil {
			t.Fatalf("persistence %v accepted", persist)
		}
	}
	ok := base
	ok.Pipelined, ok.Persist = true, 1
	if err := ok.Validate(); err != nil {
		t.Fatalf("minimal pipelined point rejected: %v", err)
	}
}
