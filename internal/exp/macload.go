package exp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"aquago"

	"aquago/internal/modem"
	"aquago/internal/phy"
)

func init() {
	register("macload", MacLoadGoodput)
	register("macsir", MacCaptureSIR)
}

// This file is the MAC goodput harness: the paper stops at Fig 19
// collision fractions, but with waveform-true contention and the
// conflict-graph scheduler (PR 3) the interesting question — how many
// bits per second actually get through as offered load rises — is
// cheap to answer. The harness drives a live Network of N nodes with
// per-node Poisson offered load (loadgen.go), sweeps the load axis in
// both contention modes and per carrier-sense variant, and reports
// delivered goodput, per-message latency percentiles, collision
// fraction and scheduler counters. A companion capture-effect study
// (MacCaptureSIR) bins overlapped waveform exchanges by
// signal-to-interference ratio at the receiver and emits the
// empirical SIR survival curve that envelope mode's all-or-nothing
// collision counting cannot see.

// podGapM separates pod origins: far enough that no carrier-sense
// range used by the harness lets pods hear each other.
const podGapM = 500.0

// maxOfferedMsgs bounds one point's schedule so a misconfigured rate
// or duration cannot allocate unbounded arrivals.
const maxOfferedMsgs = 200000

// MacLoadPoint parameterizes one offered-load measurement on a live
// Network: Pods islands of PodSize nodes each (pods sit podGapM apart
// so a finite carrier-sense range isolates them; traffic stays within
// a pod), every node offering Poisson messages at RateHz over
// DurationS virtual seconds.
type MacLoadPoint struct {
	// Pods and PodSize set the topology: Pods*PodSize nodes total
	// (at most 60, the network's device-ID space). One pod is the
	// paper's single collision domain; several pods plus a finite
	// CSRangeM exercise the conflict-graph scheduler's spatial reuse.
	Pods, PodSize int
	// RateHz is each node's Poisson message rate (messages per virtual
	// second).
	RateHz float64
	// DurationS is the arrival window; traffic may drain later.
	DurationS float64
	// Mode selects envelope or waveform contention.
	Mode aquago.ContentionMode
	// CarrierSense/PreambleAware pick the MAC variant (both false =
	// the paper's no-carrier-sense baseline).
	CarrierSense  bool
	PreambleAware bool
	// CSRangeM bounds carrier-sense audibility (0 = unlimited).
	CSRangeM float64
	// Seed drives arrivals, destinations, channels and MAC backoffs.
	Seed int64
	// Retries is each node's extra attempt budget (< 0 = network
	// default).
	Retries int
	// Workers sizes the network's conflict-graph scheduler pool
	// (0 = one per core). Results are worker-count independent.
	Workers int
	// Env is the deployment site (zero value = Bridge).
	Env aquago.Environment
}

// Validate rejects parameter combinations that cannot run or would
// silently degenerate; cmd/aquanet load surfaces these to users.
func (p MacLoadPoint) Validate() error {
	nodes := p.Pods * p.PodSize
	switch {
	case p.Pods < 1:
		return fmt.Errorf("macload: need at least one pod, got %d", p.Pods)
	case p.PodSize < 2:
		return fmt.Errorf("macload: a pod needs at least 2 nodes to exchange messages, got %d", p.PodSize)
	case nodes > 60:
		return fmt.Errorf("macload: %d nodes exceed the 60-device network limit", nodes)
	case math.IsNaN(p.RateHz) || math.IsInf(p.RateHz, 0):
		return fmt.Errorf("macload: offered rate %v is not a finite number", p.RateHz)
	case p.RateHz <= 0:
		return fmt.Errorf("macload: offered rate must be positive, got %g msg/s", p.RateHz)
	case math.IsNaN(p.DurationS) || math.IsInf(p.DurationS, 0):
		return fmt.Errorf("macload: duration %v is not a finite time", p.DurationS)
	case p.DurationS <= 0:
		return fmt.Errorf("macload: duration must be positive, got %g s", p.DurationS)
	case float64(nodes)*p.RateHz*p.DurationS > maxOfferedMsgs:
		return fmt.Errorf("macload: %g expected messages exceed the %d cap (lower -rate or -duration)",
			float64(nodes)*p.RateHz*p.DurationS, maxOfferedMsgs)
	case p.Mode != aquago.EnvelopeContention && p.Mode != aquago.WaveformContention:
		return fmt.Errorf("macload: unknown contention mode %d", p.Mode)
	}
	return nil
}

// MacLoadResult reports one offered-load measurement. Every field
// except Sched.ConflictEdges, Sched.MaxConcurrent and Sched.Workers is
// a deterministic function of the point's parameters (the golden
// seeds×workers test pins the report built from them).
type MacLoadResult struct {
	Nodes int
	// OfferedMsgs counts generated arrivals; DeliveredMsgs the ones
	// whose payload reached the destination; BusyDrops the sends that
	// never won the MAC within the access deadline; NoACKs the sends
	// whose every attempt went unacknowledged.
	OfferedMsgs, DeliveredMsgs, BusyDrops, NoACKs int
	// OfferedBPS is the offered load (bits/s over the arrival window);
	// GoodputBPS the delivered rate (bits/s over the makespan).
	OfferedBPS, GoodputBPS float64
	// Latency percentiles over delivered messages: arrival to the end
	// of the final on-air attempt, in virtual seconds.
	LatencyP50S, LatencyP90S, LatencyP99S float64
	// CollisionFraction is the envelope ledger's transmitter-side
	// accounting (meaningful within one collision domain).
	CollisionFraction float64
	// MakespanS is when the last attempt left the air (at least
	// DurationS).
	MakespanS float64
	// Sched snapshots the network's scheduler counters (Granted,
	// Committed and AirtimeS are deterministic; ConflictEdges and
	// MaxConcurrent are wall-clock observations).
	Sched aquago.SchedulerStats
}

// loadMsg is one scheduled offered message with its resolved
// destination and payload.
type loadMsg struct {
	arrival
	dst           int
	first, second uint8
}

// podPositions lays out pods*podSize nodes: pod origins podGapM apart
// on the X axis, and within each pod a sunflower spiral of radius
// podRadiusM — every intra-pod distance stays within the protocol's
// working range while spacing grows no tighter than a few meters.
func podPositions(pods, podSize int) []aquago.Position {
	const podRadiusM = 14.0
	const goldenAngle = 2.399963229728653
	out := make([]aquago.Position, 0, pods*podSize)
	for p := 0; p < pods; p++ {
		ox := float64(p) * podGapM
		for j := 0; j < podSize; j++ {
			r := podRadiusM * math.Sqrt((float64(j)+0.5)/float64(podSize))
			th := float64(j) * goldenAngle
			out = append(out, aquago.Position{
				X: ox + r*math.Cos(th),
				Y: r * math.Sin(th),
				Z: 1,
			})
		}
	}
	return out
}

// buildSchedule merges per-node Poisson arrivals into one time-ordered
// message schedule, assigning each message a destination drawn from
// the sender's own pod and a payload of two codebook hand signals.
func buildSchedule(p MacLoadPoint) []loadMsg {
	nodes := p.Pods * p.PodSize
	perNode := poissonArrivals(nodes, p.RateHz, p.DurationS, p.Seed)
	merged := mergeArrivals(perNode)
	numMsgs := len(aquago.Codebook())
	rng := rand.New(rand.NewSource(p.Seed*7907 + 3))
	out := make([]loadMsg, len(merged))
	for i, a := range merged {
		pod := a.node / p.PodSize
		dst := pod*p.PodSize + rng.Intn(p.PodSize-1)
		if dst >= a.node {
			dst++ // skip self, stay in pod
		}
		out[i] = loadMsg{
			arrival: a,
			dst:     dst,
			first:   uint8(rng.Intn(numMsgs)),
			second:  uint8(rng.Intn(numMsgs)),
		}
	}
	return out
}

// fullBandAirtime lazily computes the default full-band exchange
// airtime — the harness's unit for converting target channel
// utilization into per-node message rates.
var fullBandAirtime = sync.OnceValues(func() (float64, error) {
	m, err := modem.New(modem.DefaultConfig())
	if err != nil {
		return 0, err
	}
	return phy.New(m, phy.Options{}).PacketAirtimeS(modem.FullBand(m.Config())), nil
})

// RunMacLoadPoint drives one offered-load measurement on a live
// Network through the per-node transmit queues: this one goroutine
// enqueues the whole schedule in arrival order, each job floored at
// its arrival instant (NotBeforeS), then waits the handles out. That
// single-goroutine enqueue pattern is what the queue's dispatch gate
// turns into a worker-count-invariant execution — interfering sends
// run one at a time in arrival order, non-interfering ones (separate
// pods) concurrently — so the harness restates no interference rule
// of its own. Each queue is sized to the whole schedule, so
// ErrQueueFull cannot occur.
//
// One corner differs from blocking Sends behind AdvanceClock(arrival),
// and no test reaches it: when a send ends ErrChannelBusy with zero
// attempts, AdvanceClock would still have moved the sender's clock to
// the arrival instant, while a NotBeforeS floor does not. Under the
// 300 s access deadline no sweep or golden point produces a busy drop.
func RunMacLoadPoint(p MacLoadPoint) (MacLoadResult, error) {
	if err := p.Validate(); err != nil {
		return MacLoadResult{}, err
	}
	env := p.Env
	if env.Name == "" {
		env = aquago.Bridge
	}
	schedule := buildSchedule(p)
	opts := []aquago.NetworkOption{
		aquago.WithNetworkSeed(p.Seed),
		aquago.WithContentionMode(p.Mode),
		aquago.WithCSRange(p.CSRangeM),
		aquago.WithNetworkWorkers(p.Workers),
		aquago.WithTxQueueCapacity(max(1, len(schedule))),
	}
	if !p.CarrierSense {
		opts = append(opts, aquago.WithoutCarrierSense())
	}
	if p.PreambleAware {
		opts = append(opts, aquago.WithPreambleAwareSense())
	}
	if p.Retries >= 0 {
		opts = append(opts, aquago.WithNetworkRetries(p.Retries))
	}

	// The probe records when the last committed attempt left the air —
	// the makespan. Probe calls are serialized by the network; the lock
	// orders them against the read after the handles resolve.
	var probeMu sync.Mutex
	maxFinish := 0.0
	opts = append(opts, aquago.WithExchangeProbe(func(ev aquago.ExchangeEvent) {
		probeMu.Lock()
		if end := ev.StartS + ev.AirtimeS; end > maxFinish {
			maxFinish = end
		}
		probeMu.Unlock()
	}))

	net, err := aquago.NewNetwork(env, opts...)
	if err != nil {
		return MacLoadResult{}, err
	}
	positions := podPositions(p.Pods, p.PodSize)
	nodes := make([]*aquago.Node, len(positions))
	for i, pos := range positions {
		nd, err := net.Join(aquago.DeviceID(i), pos, aquago.WithNodeClock(0))
		if err != nil {
			return MacLoadResult{}, err
		}
		nodes[i] = nd
	}

	res := MacLoadResult{
		Nodes:       len(positions),
		OfferedMsgs: len(schedule),
		OfferedBPS:  float64(len(schedule)*messageBits) / p.DurationS,
		MakespanS:   p.DurationS,
	}
	ctx := context.Background()
	handles := make([]*aquago.TxHandle, len(schedule))
	for i, m := range schedule {
		h, err := nodes[m.node].Enqueue(ctx, aquago.TxJob{
			Dst:        aquago.DeviceID(m.dst),
			Msgs:       []uint8{m.first, m.second},
			Priority:   aquago.TxNormal,
			NotBeforeS: m.atS,
		})
		if err != nil {
			return MacLoadResult{}, fmt.Errorf("macload: enqueue node %d at %.2fs: %w", m.node, m.atS, err)
		}
		handles[i] = h
	}
	var latencies []float64
	for i, h := range handles {
		m := schedule[i]
		sres, err := h.Wait(ctx)
		switch {
		case err == nil || errors.Is(err, aquago.ErrNoACK):
			if errors.Is(err, aquago.ErrNoACK) {
				res.NoACKs++
			}
			if sres.Delivered {
				res.DeliveredMsgs++
				if sres.Attempts > 0 {
					latencies = append(latencies, h.EndS()-m.atS)
				}
			}
		case errors.Is(err, aquago.ErrChannelBusy):
			res.BusyDrops++
		default:
			return MacLoadResult{}, fmt.Errorf("macload: node %d -> %d at %.2fs: %w", m.node, m.dst, m.atS, err)
		}
	}

	probeMu.Lock()
	if maxFinish > res.MakespanS {
		res.MakespanS = maxFinish
	}
	probeMu.Unlock()
	res.GoodputBPS = float64(res.DeliveredMsgs*messageBits) / res.MakespanS
	_, res.CollisionFraction = net.CollisionStats()
	res.Sched = net.SchedulerStats()
	res.LatencyP50S = percentile(latencies, 0.50)
	res.LatencyP90S = percentile(latencies, 0.90)
	res.LatencyP99S = percentile(latencies, 0.99)
	return res, nil
}

// percentile returns the q-quantile of samples (0 for none), nearest
// rank on a sorted copy.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1))]
}

// csVariant is one carrier-sense configuration of the sweep.
type csVariant struct {
	name          string
	carrierSense  bool
	preambleAware bool
}

var csVariants = []csVariant{
	{"no-cs", false, false},
	{"energy-cs", true, false},
	{"preamble-cs", true, true},
}

// macLoadSweep parameterizes the goodput harness; the golden test runs
// a reduced copy directly.
type macLoadSweep struct {
	// envNodes / waveNodes list single-pod node counts per mode
	// (waveform is several times costlier per exchange, so its list is
	// shorter).
	envNodes, waveNodes []int
	// utils are the offered channel-utilization targets the load axis
	// sweeps: offered airtime (full-band exchanges) over elapsed time,
	// aggregated across nodes. > 1 is deliberate overload.
	utils []float64
	// variants indexes csVariants.
	variants []int
	// targetMsgs sizes each point's arrival window.
	targetMsgs int
	// reusePods, when non-empty, adds the spatial-reuse series: pods
	// of 5 at reuseUtil offered utilization per pod, carrier-sense
	// range bounded so pods are independent collision domains.
	reusePods []int
	reuseUtil float64
}

func defaultMacLoadSweep(quick bool) macLoadSweep {
	if quick {
		return macLoadSweep{
			envNodes:   []int{5, 15},
			waveNodes:  []int{5},
			utils:      []float64{0.15, 0.45, 0.9, 1.6},
			variants:   []int{0, 1},
			targetMsgs: 10,
			reusePods:  []int{1, 3},
			reuseUtil:  0.6,
		}
	}
	return macLoadSweep{
		envNodes:   []int{5, 15, 30, 60},
		waveNodes:  []int{5, 15},
		utils:      logspace(0.08, 2.0, 12),
		variants:   []int{0, 1, 2},
		targetMsgs: 48,
		reusePods:  []int{1, 2, 4, 8},
		reuseUtil:  0.6,
	}
}

// logspace returns n log-spaced values from lo to hi inclusive.
func logspace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		f := float64(i) / float64(n-1)
		out[i] = lo * math.Pow(hi/lo, f)
	}
	return out
}

// sweepPoint maps one sweep coordinate onto a runnable MacLoadPoint:
// the utilization target u converts to a per-node rate via the
// full-band exchange airtime, and the arrival window stretches to an
// expected targetMsgs messages.
func sweepPoint(seed int64, nodes int, u float64, v csVariant, mode aquago.ContentionMode, targetMsgs int) (MacLoadPoint, error) {
	airtime, err := fullBandAirtime()
	if err != nil {
		return MacLoadPoint{}, err
	}
	rate := u / (airtime * float64(nodes))
	return MacLoadPoint{
		Pods: 1, PodSize: nodes,
		RateHz:        rate,
		DurationS:     float64(targetMsgs) / (rate * float64(nodes)),
		Mode:          mode,
		CarrierSense:  v.carrierSense,
		PreambleAware: v.preambleAware,
		Seed:          seed,
		Retries:       -1,
	}, nil
}

// MacLoadGoodput is the goodput-vs-offered-load harness: delivered
// bits per second against offered bits per second, per node count,
// contention mode and carrier-sense variant, plus a spatial-reuse
// series that scales independent pods across the conflict-graph
// scheduler.
func MacLoadGoodput(cfg RunConfig) (Report, error) {
	cfg = cfg.withDefaults()
	return macLoadReport(cfg, defaultMacLoadSweep(cfg.Quick))
}

// macLoadReport runs a sweep on the experiment worker pool (one job
// per measurement point) and assembles the report.
func macLoadReport(cfg RunConfig, sw macLoadSweep) (Report, error) {
	rep := Report{
		ID:    "macload",
		Title: "MAC goodput vs offered load (Poisson per-node traffic, live Network)",
	}
	type coord struct {
		mode    aquago.ContentionMode
		nodes   int
		variant int
		u       float64
	}
	var coords []coord
	for _, n := range sw.envNodes {
		for _, v := range sw.variants {
			for _, u := range sw.utils {
				coords = append(coords, coord{aquago.EnvelopeContention, n, v, u})
			}
		}
	}
	for _, n := range sw.waveNodes {
		for _, v := range sw.variants {
			if csVariants[v].preambleAware {
				// Preamble-aware sensing only changes envelope
				// accounting of the quiet window; skip the costly
				// waveform copy of a near-identical curve.
				continue
			}
			for _, u := range sw.utils {
				coords = append(coords, coord{aquago.WaveformContention, n, v, u})
			}
		}
	}

	results, err := parallelMap(cfg.Workers, len(coords), func(i int) (MacLoadResult, error) {
		c := coords[i]
		pt, err := sweepPoint(cfg.Seed+int64(i)*2999, c.nodes, c.u, csVariants[c.variant], c.mode, sw.targetMsgs)
		if err != nil {
			return MacLoadResult{}, err
		}
		return RunMacLoadPoint(pt)
	})
	if err != nil {
		return rep, err
	}

	modeName := map[aquago.ContentionMode]string{
		aquago.EnvelopeContention: "envelope",
		aquago.WaveformContention: "waveform",
	}
	// One goodput series per (mode, N, variant), assembled in coord
	// order; a latency and a collision series ride along per curve.
	type key struct {
		mode    aquago.ContentionMode
		nodes   int
		variant int
	}
	curves := make(map[key][]int) // coord indices in sweep order
	var keys []key
	for i, c := range coords {
		k := key{c.mode, c.nodes, c.variant}
		if _, ok := curves[k]; !ok {
			keys = append(keys, k)
		}
		curves[k] = append(curves[k], i)
	}
	for _, k := range keys {
		label := fmt.Sprintf("N=%d %s %s", k.nodes, modeName[k.mode], csVariants[k.variant].name)
		good := Series{Name: "goodput " + label, XLabel: "offered bps", YLabel: "goodput bps"}
		lat := Series{Name: "latency p90 " + label, XLabel: "offered bps", YLabel: "p90 latency s"}
		coll := Series{Name: "collision fraction " + label, XLabel: "offered bps", YLabel: "collision fraction"}
		peak := 0.0
		for _, i := range curves[k] {
			r := results[i]
			good.X = append(good.X, r.OfferedBPS)
			good.Y = append(good.Y, r.GoodputBPS)
			lat.X = append(lat.X, r.OfferedBPS)
			lat.Y = append(lat.Y, r.LatencyP90S)
			coll.X = append(coll.X, r.OfferedBPS)
			coll.Y = append(coll.Y, r.CollisionFraction)
			if r.GoodputBPS > peak {
				peak = r.GoodputBPS
			}
		}
		rep.Series = append(rep.Series, good, lat, coll)
		last := results[curves[k][len(curves[k])-1]]
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%s: peak goodput %.1f bps; at top load %.1f bps offered -> %.1f bps, p90 latency %.1f s, collisions %.0f%%, %d/%d delivered (%d busy-drops)",
			label, peak, last.OfferedBPS, last.GoodputBPS, last.LatencyP90S,
			100*last.CollisionFraction, last.DeliveredMsgs, last.OfferedMsgs, last.BusyDrops))
	}

	// Spatial reuse: independent pods on the conflict-graph scheduler.
	if len(sw.reusePods) > 0 {
		airtime, err := fullBandAirtime()
		if err != nil {
			return rep, err
		}
		const podSize = 5
		rate := sw.reuseUtil / (airtime * float64(podSize))
		reuse, err := parallelMap(cfg.Workers, len(sw.reusePods), func(i int) (MacLoadResult, error) {
			return RunMacLoadPoint(MacLoadPoint{
				Pods: sw.reusePods[i], PodSize: podSize,
				RateHz:       rate,
				DurationS:    float64(sw.targetMsgs) / (rate * float64(podSize)),
				Mode:         aquago.EnvelopeContention,
				CarrierSense: true,
				CSRangeM:     40,
				Seed:         cfg.Seed + int64(i)*6607,
				Retries:      -1,
			})
		})
		if err != nil {
			return rep, err
		}
		s := Series{Name: "spatial reuse: goodput vs pods (5 nodes/pod, energy-cs, 40 m cs range)",
			XLabel: "pods", YLabel: "goodput bps"}
		for i, r := range reuse {
			s.X = append(s.X, float64(sw.reusePods[i]))
			s.Y = append(s.Y, r.GoodputBPS)
		}
		rep.Series = append(rep.Series, s)
		lastIdx := len(reuse) - 1
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"spatial reuse: %d pods reach %.1f bps vs %.1f bps for one",
			sw.reusePods[lastIdx], reuse[lastIdx].GoodputBPS, reuse[0].GoodputBPS))
	}
	return rep, nil
}

// captureRun is one forced two-exchange overlap: an interferer pair at
// interfererM from the victim's receiver goes on the air first, and
// the victim exchange is pushed onto the air one sense interval later
// (the scoped commit frontier guarantees the overlap). In waveform
// mode the victim's receive windows mix the interferer's actual
// samples; the SIR probe records each window's signal and interference
// power.
type captureOutcome struct {
	MinSIRdB  float64 // worst window at the victim's receiver (+Inf if never hit)
	Delivered bool
	Collided  bool // envelope ledger counted the overlap
}

func captureRun(interfererM float64, seed int64, mode aquago.ContentionMode) (captureOutcome, error) {
	const victimRx = aquago.DeviceID(0)
	var mu sync.Mutex
	minSIR := math.Inf(1)
	opts := []aquago.NetworkOption{
		aquago.WithNetworkSeed(seed),
		aquago.WithContentionMode(mode),
		aquago.WithoutCarrierSense(),
		aquago.WithNetworkRetries(0),
		aquago.WithNetworkWorkers(1),
		aquago.WithSIRProbe(func(s aquago.SIRSample) {
			if s.Rx != victimRx || s.InterferencePower <= 0 {
				return
			}
			mu.Lock()
			if db := s.SIRdB(); db < minSIR {
				minSIR = db
			}
			mu.Unlock()
		}),
	}
	net, err := aquago.NewNetwork(aquago.Bridge, opts...)
	if err != nil {
		return captureOutcome{}, err
	}
	// Victim pair: 1 -> 0 over 5 m. Interferer pair: 2 -> 3, the
	// interfering transmitter interfererM from the victim's receiver.
	layout := []aquago.Position{
		{X: 0, Z: 1},
		{X: 5, Z: 1},
		{X: -interfererM, Z: 1},
		{X: -interfererM - 5, Z: 1},
	}
	nodes := make([]*aquago.Node, len(layout))
	for i, pos := range layout {
		if nodes[i], err = net.Join(aquago.DeviceID(i), pos, aquago.WithNodeClock(0)); err != nil {
			return captureOutcome{}, err
		}
	}
	numMsgs := len(aquago.Codebook())
	rng := rand.New(rand.NewSource(seed*557 + 1))
	msg := func() uint8 { return uint8(rng.Intn(numMsgs)) }
	ctx := context.Background()
	// Interferer first: its waves are committed traffic when the victim
	// exchange — pushed one sense interval into them by the commit
	// frontier — opens its windows.
	if _, err := nodes[2].Send(ctx, 3, msg(), msg()); err != nil && !errors.Is(err, aquago.ErrNoACK) {
		return captureOutcome{}, err
	}
	vres, err := nodes[1].Send(ctx, 0, msg(), msg())
	if err != nil && !errors.Is(err, aquago.ErrNoACK) {
		return captureOutcome{}, err
	}
	_, frac := net.CollisionStats()
	return captureOutcome{MinSIRdB: minSIR, Delivered: vres.Delivered, Collided: frac > 0}, nil
}

// MacCaptureSIR is the capture-effect study: the same forced overlap
// across interferer distances and seeds, binned by the worst
// signal-to-interference ratio any victim receive window saw. The
// waveform survival curve shows graded capture — exchanges above an
// SIR threshold decode through the collision — where envelope mode's
// transmitter-side ledger counts every overlap as a collision and
// delivers regardless.
func MacCaptureSIR(cfg RunConfig) (Report, error) {
	cfg = cfg.withDefaults()
	rep := Report{
		ID:    "macsir",
		Title: "Capture effect: SIR survival of overlapped waveform exchanges",
	}
	distances := []float64{6, 9, 14, 20, 30, 45, 70, 100}
	seedsPer := 4
	if cfg.Quick {
		distances = []float64{6, 12, 25, 50, 100}
		seedsPer = 2
	}
	type job struct {
		dM   float64
		seed int64
		mode aquago.ContentionMode
	}
	var jobs []job
	for _, mode := range []aquago.ContentionMode{aquago.WaveformContention, aquago.EnvelopeContention} {
		for di, d := range distances {
			for s := 0; s < seedsPer; s++ {
				jobs = append(jobs, job{dM: d, seed: cfg.Seed + int64(di)*131 + int64(s)*17, mode: mode})
			}
		}
	}
	outs, err := parallelMap(cfg.Workers, len(jobs), func(i int) (captureOutcome, error) {
		return captureRun(jobs[i].dM, jobs[i].seed, jobs[i].mode)
	})
	if err != nil {
		return rep, err
	}

	// Waveform: empirical survival curve over observed SIR. Sort the
	// overlapped samples by SIR; at each observed threshold x, report
	// the delivered fraction among samples with SIR >= x.
	type sample struct {
		sir       float64
		delivered bool
	}
	var wave []sample
	var clean, cleanDelivered int
	envDelivered, envCollided, envTotal := 0, 0, 0
	for i, o := range outs {
		if jobs[i].mode == aquago.EnvelopeContention {
			envTotal++
			if o.Delivered {
				envDelivered++
			}
			if o.Collided {
				envCollided++
			}
			continue
		}
		if math.IsInf(o.MinSIRdB, 1) {
			// No victim window ever mixed interference (no overlap
			// materialized); excluded from the curve, counted here so
			// the cap is not silent.
			clean++
			if o.Delivered {
				cleanDelivered++
			}
			continue
		}
		wave = append(wave, sample{sir: o.MinSIRdB, delivered: o.Delivered})
	}
	sort.Slice(wave, func(i, j int) bool { return wave[i].sir < wave[j].sir })
	surv := Series{Name: "waveform survival: delivered fraction above SIR threshold",
		XLabel: "min-window SIR dB", YLabel: "delivered fraction"}
	suffixDelivered := 0
	ys := make([]float64, len(wave))
	for i := len(wave) - 1; i >= 0; i-- {
		if wave[i].delivered {
			suffixDelivered++
		}
		ys[i] = float64(suffixDelivered) / float64(len(wave)-i)
	}
	for i, s := range wave {
		surv.X = append(surv.X, s.sir)
		surv.Y = append(surv.Y, ys[i])
	}
	rep.Series = append(rep.Series, surv)

	// Headline: the lowest SIR that still delivered, and the highest
	// that did not — the empirical capture threshold band.
	lowestOK, highestDead := math.Inf(1), math.Inf(-1)
	delivered := 0
	for _, s := range wave {
		if s.delivered {
			delivered++
			if s.sir < lowestOK {
				lowestOK = s.sir
			}
		} else if s.sir > highestDead {
			highestDead = s.sir
		}
	}
	if len(wave) > 0 {
		note := fmt.Sprintf("waveform: %d/%d overlapped exchanges delivered", delivered, len(wave))
		if delivered > 0 && delivered < len(wave) {
			note += fmt.Sprintf("; highest lost SIR %.1f dB, lowest surviving %.1f dB", highestDead, lowestOK)
		}
		rep.Notes = append(rep.Notes, note)
	}
	if clean > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"waveform: %d runs saw no interference in any victim window (%d delivered); excluded from the curve",
			clean, cleanDelivered))
	}
	if envTotal > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"envelope (all-or-nothing): same scenarios count %d/%d collisions yet deliver %d/%d — no SIR dependence by construction",
			envCollided, envTotal, envDelivered, envTotal))
	}
	return rep, nil
}
