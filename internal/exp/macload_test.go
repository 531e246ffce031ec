package exp

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"aquago"
)

// tinyMacLoadSweep is the golden regression workload: small enough to
// run repeatedly under -race, wide enough to cross every moving part —
// both contention modes, two carrier-sense variants, an overload
// point, and a multi-pod spatial-reuse case whose pods send
// concurrently.
func tinyMacLoadSweep() macLoadSweep {
	return macLoadSweep{
		envNodes:   []int{4},
		waveNodes:  []int{3},
		utils:      []float64{0.4, 1.3},
		variants:   []int{0, 1},
		targetMsgs: 6,
		reusePods:  []int{2},
		reuseUtil:  0.5,
	}
}

// normalizeSched zeroes the wall-clock observation fields so
// deep-equality compares only the deterministic part of a result.
func normalizeSched(r MacLoadResult) MacLoadResult {
	r.Sched.ConflictEdges = 0
	r.Sched.MaxConcurrent = 0
	r.Sched.Workers = 0
	return r
}

// TestMacLoadGoldenSeedsWorkers extends the PR 3 seeds×workers pattern
// to the goodput harness. The tiny sweep's full report — goodput,
// latency and collision tables in both contention modes — must be
// deeply equal whether the measurement points run serially
// (Workers: 1) or fan out across the experiment pool (Workers: 4);
// inside each point the live Network runs its default all-cores
// scheduler, so network-level concurrency must not leak in either.
func TestMacLoadGoldenSeedsWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the tiny sweep several times")
	}
	for _, seed := range []int64{3, 11} {
		serial, err := macLoadReport(RunConfig{Seed: seed, Quick: true, Workers: 1}, tinyMacLoadSweep())
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		parallel, err := macLoadReport(RunConfig{Seed: seed, Quick: true, Workers: 4}, tinyMacLoadSweep())
		if err != nil {
			t.Fatalf("seed %d parallel: %v", seed, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("seed %d: Workers:1 and Workers:4 reports differ\nserial:   %+v\nparallel: %+v",
				seed, serial, parallel)
		}
		// The tables must not be vacuous: goodput present in both modes.
		var envSeen, waveSeen bool
		for _, s := range serial.Series {
			if !strings.HasPrefix(s.Name, "goodput ") {
				continue
			}
			if len(s.X) == 0 {
				t.Fatalf("seed %d: empty goodput series %q", seed, s.Name)
			}
			if strings.Contains(s.Name, "envelope") {
				envSeen = true
			}
			if strings.Contains(s.Name, "waveform") {
				waveSeen = true
			}
		}
		if !envSeen || !waveSeen {
			t.Fatalf("seed %d: goodput series missing a contention mode (envelope %v, waveform %v)",
				seed, envSeen, waveSeen)
		}
	}
}

// TestMacLoadQueuedGoldenSeedsWorkers is the queued-driver golden:
// single load points driven through the transmit queues must produce
// deeply equal measurements across network worker counts (1 vs 8),
// for several seeds, in both contention modes — the dispatch gate's
// determinism contract, pinned end to end.
func TestMacLoadQueuedGoldenSeedsWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs live-network load points repeatedly")
	}
	cases := []struct {
		mode aquago.ContentionMode
		name string
		size int
		rate float64
		dur  float64
	}{
		{aquago.EnvelopeContention, "envelope", 4, 0.05, 60},
		{aquago.WaveformContention, "waveform", 3, 0.04, 50},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{3, 11} {
				var ref MacLoadResult
				for i, workers := range []int{1, 8} {
					got, err := RunMacLoadPoint(MacLoadPoint{
						Pods: 1, PodSize: tc.size,
						RateHz: tc.rate, DurationS: tc.dur,
						Mode:         tc.mode,
						CarrierSense: true,
						Seed:         seed,
						Retries:      -1,
						Workers:      workers,
					})
					if err != nil {
						t.Fatalf("seed %d workers %d: %v", seed, workers, err)
					}
					got = normalizeSched(got)
					if got.OfferedMsgs == 0 {
						t.Fatalf("seed %d: schedule offered no messages", seed)
					}
					if got.DeliveredMsgs == 0 {
						t.Fatalf("seed %d: nothing delivered: %+v", seed, got)
					}
					if i == 0 {
						ref = got
						continue
					}
					if !reflect.DeepEqual(ref, got) {
						t.Fatalf("seed %d: load is worker-count dependent\nworkers=1: %+v\nworkers=%d: %+v",
							seed, ref, workers, got)
					}
				}
			}
		})
	}
}

// TestMacLoadPoissonProperties is the offered-load generator's
// property suite: for any seed, the offered bits total equals the sum
// over nodes of what each node generated (the merge drops and invents
// nothing), arrivals are in-window and strictly increasing, the draw
// is deterministic per seed, and the empirical inter-arrival mean
// reproduces the configured Poisson rate within tolerance.
func TestMacLoadPoissonProperties(t *testing.T) {
	const (
		nodes = 7
		rate  = 2.0
		dur   = 400.0
	)
	for _, seed := range []int64{1, 2, 19, 104729} {
		perNode := poissonArrivals(nodes, rate, dur, seed)
		merged := mergeArrivals(perNode)

		perNodeBits := 0
		for n, times := range perNode {
			perNodeBits += len(times) * messageBits
			last := -1.0
			for _, at := range times {
				if at < 0 || at >= dur {
					t.Fatalf("seed %d node %d: arrival %g outside [0, %g)", seed, n, at, dur)
				}
				if at <= last {
					t.Fatalf("seed %d node %d: arrivals not strictly increasing (%g after %g)", seed, n, at, last)
				}
				last = at
			}
		}
		if total := len(merged) * messageBits; total != perNodeBits {
			t.Fatalf("seed %d: merged schedule offers %d bits, per-node streams generated %d", seed, total, perNodeBits)
		}
		if got := offeredBits(perNode); got != perNodeBits {
			t.Fatalf("seed %d: offeredBits %d != per-node sum %d", seed, got, perNodeBits)
		}
		for i := 1; i < len(merged); i++ {
			a, b := merged[i-1], merged[i]
			if b.atS < a.atS || (b.atS == a.atS && b.node <= a.node) {
				t.Fatalf("seed %d: merge not (time, node)-ordered at %d: %+v then %+v", seed, i, a, b)
			}
		}

		// Empirical rate: pooled inter-arrival gaps (including each
		// node's gap from 0) must average 1/rate. With ~nodes*rate*dur
		// samples the relative standard error is ~1/sqrt(5600) ≈ 1.3%,
		// so 6% is a > 4-sigma allowance.
		var gapSum float64
		var gaps int
		for _, times := range perNode {
			prev := 0.0
			for _, at := range times {
				gapSum += at - prev
				prev = at
				gaps++
			}
		}
		mean := gapSum / float64(gaps)
		if want := 1 / rate; math.Abs(mean-want) > 0.06*want {
			t.Fatalf("seed %d: mean inter-arrival %g s, want %g ± 6%%", seed, mean, want)
		}

		if again := poissonArrivals(nodes, rate, dur, seed); !reflect.DeepEqual(perNode, again) {
			t.Fatalf("seed %d: generator is not deterministic", seed)
		}
	}
	a := poissonArrivals(nodes, rate, dur, 5)
	b := poissonArrivals(nodes, rate, dur, 6)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical arrival streams")
	}
}

// TestMacLoadPointValidate walks the rejection paths surfaced by the
// CLIs (aquanet load, aquabench -macload flags funnel into the same
// config type).
func TestMacLoadPointValidate(t *testing.T) {
	good := MacLoadPoint{
		Pods: 1, PodSize: 5, RateHz: 0.1, DurationS: 60,
		Mode: aquago.EnvelopeContention,
	}
	cases := []struct {
		name    string
		mutate  func(*MacLoadPoint)
		wantErr string
	}{
		{"valid", func(*MacLoadPoint) {}, ""},
		{"max nodes", func(p *MacLoadPoint) { p.PodSize = 60; p.RateHz = 0.01 }, ""},
		{"zero pods", func(p *MacLoadPoint) { p.Pods = 0 }, "at least one pod"},
		{"one-node pod", func(p *MacLoadPoint) { p.PodSize = 1 }, "at least 2 nodes"},
		{"over 60 nodes", func(p *MacLoadPoint) { p.PodSize = 61 }, "60-device network limit"},
		{"over 60 across pods", func(p *MacLoadPoint) { p.Pods = 7; p.PodSize = 9 }, "60-device network limit"},
		{"NaN rate", func(p *MacLoadPoint) { p.RateHz = math.NaN() }, "not a finite number"},
		{"infinite rate", func(p *MacLoadPoint) { p.RateHz = math.Inf(1) }, "not a finite number"},
		{"negative rate", func(p *MacLoadPoint) { p.RateHz = -0.5 }, "must be positive"},
		{"zero rate", func(p *MacLoadPoint) { p.RateHz = 0 }, "must be positive"},
		{"NaN duration", func(p *MacLoadPoint) { p.DurationS = math.NaN() }, "not a finite time"},
		{"negative duration", func(p *MacLoadPoint) { p.DurationS = -1 }, "must be positive"},
		{"zero duration", func(p *MacLoadPoint) { p.DurationS = 0 }, "must be positive"},
		{"schedule blow-up", func(p *MacLoadPoint) { p.RateHz = 1000; p.DurationS = 1e5 }, "cap"},
		{"bad mode", func(p *MacLoadPoint) { p.Mode = aquago.ContentionMode(9) }, "unknown contention mode"},
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

// TestMacLoadSpatialReuseBatchesPods: with pods beyond each other's
// carrier-sense range, the transmit queues' dispatch gate lets the
// pods share the air, so doubling the pods (and the offered load)
// must raise delivered goodput well past the single pod's — at seed 7
// two pods deliver 21.33 bps against one pod's 12.00 bps — and the
// gate must dispatch the two pods' exchanges together.
func TestMacLoadSpatialReuseBatchesPods(t *testing.T) {
	pt := MacLoadPoint{
		Pods: 1, PodSize: 3,
		RateHz:       0.3,
		DurationS:    12,
		Mode:         aquago.EnvelopeContention,
		CarrierSense: true,
		CSRangeM:     40,
		Seed:         7,
		Retries:      -1,
	}
	one, err := RunMacLoadPoint(pt)
	if err != nil {
		t.Fatal(err)
	}
	// Results are worker-count invariant, so the two-pod point runs on
	// two worker slots: the goodput figures are the same as on one,
	// and the slots let the gate's concurrency show.
	pt.Pods = 2
	pt.Workers = 2
	res, err := RunMacLoadPoint(pt)
	if err != nil {
		t.Fatal(err)
	}
	if res.GoodputBPS <= 1.5*one.GoodputBPS {
		t.Fatalf("two isolated pods deliver %.2f bps, not past 1.5x one pod's %.2f bps", res.GoodputBPS, one.GoodputBPS)
	}
	// Goodput is simulated time, and every node keeps its own clock, so
	// it would look the same if the dispatch gate serialized the pods.
	// That the gate really ran them side by side shows only in wall
	// time: two exchanges on worker slots at once. Both pods' heads
	// dispatch in one gate pass, so this is observed on every run
	// tried (also at GOMAXPROCS=1), and never when the interference
	// rule is forced to "always conflict"; a few reruns absorb an
	// unlucky goroutine schedule.
	for try := 1; res.Sched.MaxConcurrent < 2; try++ {
		if try == 3 {
			t.Fatalf("the dispatch gate never ran the two inaudible pods' exchanges at once in %d runs: %+v", try, res.Sched)
		}
		if res, err = RunMacLoadPoint(pt); err != nil {
			t.Fatal(err)
		}
	}
	if res.Sched.Granted < res.Sched.Committed || res.Sched.Committed == 0 {
		t.Fatalf("scheduler counters inconsistent: %+v", res.Sched)
	}
	if res.Sched.AirtimeS <= 0 {
		t.Fatalf("committed airtime not accounted: %+v", res.Sched)
	}
	if res.DeliveredMsgs == 0 {
		t.Fatalf("nothing delivered at light load: %+v", res)
	}
}
