package exp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"aquago"
)

func init() {
	register("multihop", MultiHop)
}

// This file is the multi-hop relay harness: the paper's protocol is
// single-hop, but the routing/relay subsystem (route.go, relay.go)
// makes the scaling question measurable — what do relaying and
// store-and-forward bulk transfer cost in goodput and end-to-end
// latency as hop count grows, and how does a relay topology carry
// offered load? The load axis reuses the Poisson arrival schedules
// from loadgen.go and relays each message with a blocking SendVia in
// arrival order.

// maxBulkBytes bounds one bulk transfer so a misconfigured CLI cannot
// queue an unbounded packet train.
const maxBulkBytes = 4096

// relaySpacingM is the default distance between adjacent relay-line
// nodes, and the spacing of every load topology's line and grid.
const relaySpacingM = 25

// loadCSRangeM bounds audibility on every load topology: on a line or
// grid only adjacent nodes hear each other, and a pod (14 m radius)
// is one collision domain.
const loadCSRangeM = 1.2 * relaySpacingM

// pipePersist is the pipelined series' p-persistent transmit
// probability.
const pipePersist = 0.7

// MultiHopPoint parameterizes one bulk relay transfer on a line of
// Hops+1 nodes, SpacingM apart, with carrier sense bounded to
// CSRangeM so only adjacent nodes are audible and the route must
// relay (CSRangeM 0 derives a just-past-adjacent default).
type MultiHopPoint struct {
	// Hops is the relay path length (nodes = Hops + 1).
	Hops int
	// SpacingM separates adjacent line nodes (default relaySpacingM).
	SpacingM float64
	// CSRangeM bounds audibility; 0 derives 1.2 * SpacingM so exactly
	// the adjacent nodes hear each other.
	CSRangeM float64
	// PayloadBytes sizes the bulk payload (ceil(n/2) packets).
	PayloadBytes int
	// Mode selects envelope or waveform contention.
	Mode aquago.ContentionMode
	// Policy selects the routing policy (MinHop default).
	Policy aquago.RoutingPolicy
	// Seed drives channels, MAC backoffs and the payload bytes.
	Seed int64
	// Env is the deployment site (zero value = Bridge).
	Env aquago.Environment
	// Trace, when non-nil, observes every hop exchange's stage events
	// (cmd/aquanet relay prints per-hop progress through it). It does
	// not influence results.
	Trace aquago.Trace
	// Pipelined runs the transfer through the async transmit
	// subsystem (SendBulkViaPipelined): every relay store-and-forwards
	// from its own transmit queue, so packets overlap wherever hops do
	// not interfere.
	Pipelined bool
	// Persist, in (0, 1], switches the MAC to p-persistent slotted
	// contention with that transmit probability (0 keeps the paper's
	// accumulating random backoff).
	Persist float64
	// AdaptiveBackoff scales each node's backoff quantum to its last
	// committed exchange's actual airtime instead of the full-band
	// worst case.
	AdaptiveBackoff bool
}

// withDefaults resolves the derived knobs.
func (p MultiHopPoint) withDefaults() MultiHopPoint {
	if p.SpacingM == 0 {
		p.SpacingM = relaySpacingM
	}
	if p.CSRangeM == 0 {
		p.CSRangeM = 1.2 * p.SpacingM
	}
	return p
}

// Validate rejects parameter combinations that cannot run;
// cmd/aquanet relay surfaces these to users.
func (p MultiHopPoint) Validate() error {
	p = p.withDefaults()
	switch {
	case p.Hops < 1:
		return fmt.Errorf("multihop: need at least one hop, got %d", p.Hops)
	case p.Hops > 59:
		return fmt.Errorf("multihop: %d hops need %d nodes, over the 60-device limit", p.Hops, p.Hops+1)
	case math.IsNaN(p.SpacingM) || math.IsInf(p.SpacingM, 0) || p.SpacingM <= 0:
		return fmt.Errorf("multihop: node spacing %v m is not a usable distance", p.SpacingM)
	case math.IsNaN(p.CSRangeM) || math.IsInf(p.CSRangeM, 0) || p.CSRangeM < 0:
		return fmt.Errorf("multihop: carrier-sense range %v m is not a usable distance", p.CSRangeM)
	case p.CSRangeM < p.SpacingM:
		return fmt.Errorf("multihop: carrier-sense range %g m below the %g m spacing leaves adjacent nodes deaf — no route exists", p.CSRangeM, p.SpacingM)
	case p.PayloadBytes < 1:
		return fmt.Errorf("multihop: need a payload, got %d bytes", p.PayloadBytes)
	case p.PayloadBytes > maxBulkBytes:
		return fmt.Errorf("multihop: %d payload bytes exceed the %d cap", p.PayloadBytes, maxBulkBytes)
	case p.Mode != aquago.EnvelopeContention && p.Mode != aquago.WaveformContention:
		return fmt.Errorf("multihop: unknown contention mode %d", p.Mode)
	case p.Policy != aquago.MinHop && p.Policy != aquago.MinETX:
		return fmt.Errorf("multihop: unknown routing policy %d", int(p.Policy))
	case math.IsNaN(p.Persist) || p.Persist < 0 || p.Persist > 1:
		return fmt.Errorf("multihop: transmit persistence %v outside (0, 1]", p.Persist)
	}
	return nil
}

// MultiHopResult reports one bulk relay transfer. Every field is a
// deterministic function of the point (relay hops walk sequentially,
// so no scheduler interleaving can leak in).
type MultiHopResult struct {
	Hops, Packets, DeliveredPackets int
	// Attempts totals physical transmissions across packets and hops
	// (Packets * Hops when nothing retried).
	Attempts int
	// LatencyS is arrival-to-last-sample end-to-end time of the whole
	// payload; GoodputBPS the delivered payload bits over it.
	LatencyS, GoodputBPS float64
}

// RunMultiHopPoint routes a bulk payload down a relay line and
// measures it.
func RunMultiHopPoint(p MultiHopPoint) (MultiHopResult, error) {
	if err := p.Validate(); err != nil {
		return MultiHopResult{}, err
	}
	p = p.withDefaults()
	env := p.Env
	if env.Name == "" {
		env = aquago.Bridge
	}
	opts := []aquago.NetworkOption{
		aquago.WithNetworkSeed(p.Seed),
		aquago.WithContentionMode(p.Mode),
		aquago.WithCSRange(p.CSRangeM),
		aquago.WithRouting(p.Policy),
	}
	if p.Trace != nil {
		opts = append(opts, aquago.WithNetworkTrace(p.Trace))
	}
	if p.Persist > 0 {
		opts = append(opts, aquago.WithPPersistence(p.Persist))
	}
	if p.AdaptiveBackoff {
		opts = append(opts, aquago.WithAdaptiveBackoff())
	}
	net, err := aquago.NewNetwork(env, opts...)
	if err != nil {
		return MultiHopResult{}, err
	}
	nodes := make([]*aquago.Node, p.Hops+1)
	for i := range nodes {
		nd, err := net.Join(aquago.DeviceID(i),
			aquago.Position{X: float64(i) * p.SpacingM, Z: 1},
			aquago.WithNodeClock(0))
		if err != nil {
			return MultiHopResult{}, err
		}
		nodes[i] = nd
	}
	payload := make([]byte, p.PayloadBytes)
	rand.New(rand.NewSource(p.Seed*9241 + 5)).Read(payload)

	send := nodes[0].SendBulk
	if p.Pipelined {
		send = nodes[0].SendBulkPipelined
	}
	res, err := send(context.Background(), aquago.DeviceID(p.Hops), payload)
	out := MultiHopResult{
		Hops:             len(res.Path) - 1,
		Packets:          res.Packets,
		DeliveredPackets: res.DeliveredPackets,
		Attempts:         res.Attempts,
	}
	if err != nil {
		return out, fmt.Errorf("multihop: %d-hop bulk transfer: %w", p.Hops, err)
	}
	out.LatencyS = res.EndS - res.StartS
	if out.LatencyS > 0 {
		out.GoodputBPS = float64(8*res.DeliveredBytes) / out.LatencyS
	}
	return out, nil
}

// MultiHopLoadPoint parameterizes offered load over a relay topology
// at the Bridge site in envelope mode: every node offers Poisson
// single-packet messages to seeded random destinations, each delivered
// over its routed relay path.
type MultiHopLoadPoint struct {
	// Topo picks the geometry: "line" (A nodes in a row), "grid"
	// (A x B lattice), or "pods" (A pods of B nodes, podGapM apart —
	// mostly-direct routes within several independent collision
	// domains). Line and grid nodes sit relaySpacingM apart.
	Topo string
	A, B int
	// RateHz is each node's Poisson message rate; DurationS the
	// arrival window.
	RateHz    float64
	DurationS float64
	// Seed drives arrivals, destinations, channels and MAC backoffs.
	Seed int64
}

// nodes counts the topology's nodes.
func (p MultiHopLoadPoint) nodes() int {
	if p.Topo == "line" {
		return p.A
	}
	return p.A * p.B
}

// topoPositions lays the load topologies out.
func (p MultiHopLoadPoint) topoPositions() ([]aquago.Position, error) {
	switch p.Topo {
	case "line":
		out := make([]aquago.Position, p.A)
		for i := range out {
			out[i] = aquago.Position{X: float64(i) * relaySpacingM, Z: 1}
		}
		return out, nil
	case "grid":
		out := make([]aquago.Position, 0, p.A*p.B)
		for r := 0; r < p.A; r++ {
			for c := 0; c < p.B; c++ {
				out = append(out, aquago.Position{
					X: float64(c) * relaySpacingM,
					Y: float64(r) * relaySpacingM,
					Z: 1,
				})
			}
		}
		return out, nil
	case "pods":
		return podPositions(p.A, p.B), nil
	}
	return nil, fmt.Errorf("multihop: unknown topology %q (line, grid, pods)", p.Topo)
}

// Validate rejects unusable load points.
func (p MultiHopLoadPoint) Validate() error {
	nodes := p.nodes()
	switch {
	case p.Topo != "line" && p.Topo != "grid" && p.Topo != "pods":
		return fmt.Errorf("multihop: unknown topology %q (line, grid, pods)", p.Topo)
	case p.Topo == "line" && p.A < 2, p.Topo != "line" && (p.A < 1 || p.B < 2):
		return fmt.Errorf("multihop: topology %q needs at least two reachable nodes (A=%d B=%d)", p.Topo, p.A, p.B)
	case nodes > 60:
		return fmt.Errorf("multihop: %d nodes exceed the 60-device network limit", nodes)
	case math.IsNaN(p.RateHz) || math.IsInf(p.RateHz, 0) || p.RateHz <= 0:
		return fmt.Errorf("multihop: offered rate %v msg/s is not usable", p.RateHz)
	case math.IsNaN(p.DurationS) || math.IsInf(p.DurationS, 0) || p.DurationS <= 0:
		return fmt.Errorf("multihop: duration %v s is not usable", p.DurationS)
	case float64(nodes)*p.RateHz*p.DurationS > maxOfferedMsgs:
		return fmt.Errorf("multihop: %g expected messages exceed the %d cap",
			float64(nodes)*p.RateHz*p.DurationS, maxOfferedMsgs)
	}
	return nil
}

// MultiHopLoadResult reports one relayed offered-load measurement.
// Everything except Sched.ConflictEdges/MaxConcurrent/Workers is
// deterministic.
type MultiHopLoadResult struct {
	Nodes int
	// OfferedMsgs counts arrivals; DeliveredMsgs the ones whose
	// payload walked their whole relay path; BusyDrops transfers that
	// died on a hop's MAC deadline; NoACKs transfers that died with a
	// hop's attempts exhausted; NoRoutes arrivals whose endpoints the
	// audibility graph does not connect (counted, not errored — a
	// partitioned pair is a property of the topology, not a failure of
	// the driver).
	OfferedMsgs, DeliveredMsgs, BusyDrops, NoACKs, NoRoutes int
	// TotalHops sums the delivered messages' path hops (TotalHops /
	// DeliveredMsgs = mean route length).
	TotalHops int
	// OfferedBPS is offered load over the arrival window; GoodputBPS
	// delivered end-to-end bits over the makespan.
	OfferedBPS, GoodputBPS float64
	// Latency percentiles over delivered messages, arrival to the
	// payload's last sample at the final destination.
	LatencyP50S, LatencyP90S, LatencyP99S float64
	// MakespanS is when the last relayed delivery completed.
	MakespanS float64
	// Sched snapshots the network's scheduler counters.
	Sched aquago.SchedulerStats
}

// relayMsg is one scheduled relayed message with its resolved path.
type relayMsg struct {
	arrival
	dst           int
	path          []aquago.DeviceID
	first, second uint8
}

// RunMultiHopLoadPoint drives Poisson offered load over a relay
// topology: routes are resolved up front, then each message is
// relayed with a blocking SendVia, one at a time in arrival order on
// this goroutine — a deterministic drive for any worker count.
func RunMultiHopLoadPoint(p MultiHopLoadPoint) (MultiHopLoadResult, error) {
	if err := p.Validate(); err != nil {
		return MultiHopLoadResult{}, err
	}
	positions, err := p.topoPositions()
	if err != nil {
		return MultiHopLoadResult{}, err
	}
	net, err := aquago.NewNetwork(aquago.Bridge,
		aquago.WithNetworkSeed(p.Seed), aquago.WithCSRange(loadCSRangeM))
	if err != nil {
		return MultiHopLoadResult{}, err
	}
	nodes := make([]*aquago.Node, len(positions))
	for i, pos := range positions {
		nd, err := net.Join(aquago.DeviceID(i), pos, aquago.WithNodeClock(0))
		if err != nil {
			return MultiHopLoadResult{}, err
		}
		nodes[i] = nd
	}

	// Schedule: merged Poisson arrivals, destinations drawn uniformly
	// among each source's *routable* peers (a pod topology partitions
	// the audibility graph — offering a message across a partition
	// would measure the topology, not the relay), routes resolved up
	// front.
	reachable := make([][]int, len(nodes))
	for src := range nodes {
		for dst := range nodes {
			if src == dst {
				continue
			}
			_, err := net.Route(aquago.DeviceID(src), aquago.DeviceID(dst))
			switch {
			case err == nil:
				reachable[src] = append(reachable[src], dst)
			case errors.Is(err, aquago.ErrNoRoute):
			default:
				return MultiHopLoadResult{}, err
			}
		}
	}
	perNode := poissonArrivals(len(nodes), p.RateHz, p.DurationS, p.Seed)
	merged := mergeArrivals(perNode)
	numMsgs := len(aquago.Codebook())
	rng := rand.New(rand.NewSource(p.Seed*7907 + 3))
	res := MultiHopLoadResult{
		Nodes:       len(nodes),
		OfferedMsgs: len(merged),
		OfferedBPS:  float64(len(merged)*messageBits) / p.DurationS,
		MakespanS:   p.DurationS,
	}
	var schedule []relayMsg
	for _, a := range merged {
		m := relayMsg{
			arrival: a,
			first:   uint8(rng.Intn(numMsgs)),
			second:  uint8(rng.Intn(numMsgs)),
		}
		reach := reachable[a.node]
		if len(reach) == 0 {
			res.NoRoutes++
			continue
		}
		m.dst = reach[rng.Intn(len(reach))]
		path, err := net.Route(aquago.DeviceID(a.node), aquago.DeviceID(m.dst))
		if err != nil {
			return MultiHopLoadResult{}, err
		}
		m.path = path
		schedule = append(schedule, m)
	}

	var latencies []float64
	makespan := p.DurationS
	ctx := context.Background()
	for _, m := range schedule {
		nodes[m.node].AdvanceClock(m.atS)
		rres, err := net.SendVia(ctx, m.path, m.first, m.second)
		switch {
		case err == nil:
			res.DeliveredMsgs++
			res.TotalHops += len(m.path) - 1
			latencies = append(latencies, rres.DeliveredS-m.atS)
			if rres.DeliveredS > makespan {
				makespan = rres.DeliveredS
			}
		case errors.Is(err, aquago.ErrChannelBusy):
			res.BusyDrops++
		case errors.Is(err, aquago.ErrNoACK):
			res.NoACKs++
		default:
			return MultiHopLoadResult{}, fmt.Errorf("multihop: %d -> %d at %.2fs: %w", m.node, m.dst, m.atS, err)
		}
	}

	res.MakespanS = makespan
	res.GoodputBPS = float64(res.DeliveredMsgs*messageBits) / res.MakespanS
	res.Sched = net.SchedulerStats()
	res.LatencyP50S = percentile(latencies, 0.50)
	res.LatencyP90S = percentile(latencies, 0.90)
	res.LatencyP99S = percentile(latencies, 0.99)
	return res, nil
}

// multiHopSweep parameterizes the harness; the golden test runs a
// reduced copy directly.
type multiHopSweep struct {
	// envHops / waveHops list the bulk-transfer hop counts per mode.
	envHops, waveHops []int
	// payloadBytes sizes each bulk transfer.
	payloadBytes int
	// utils are offered channel-utilization targets for the load axis.
	utils []float64
	// loadTopos names the load topologies to sweep.
	loadTopos []MultiHopLoadPoint
	// targetMsgs sizes each load point's arrival window.
	targetMsgs int
	// pipeHops lists hop counts for the pipelined-bulk series
	// (envelope mode, async transmit queues, the p-persistent slotted
	// MAC at pipePersist and adaptive backoff quanta); empty skips it.
	pipeHops []int
}

func defaultMultiHopSweep(quick bool) multiHopSweep {
	line := MultiHopLoadPoint{Topo: "line", A: 5}
	grid := MultiHopLoadPoint{Topo: "grid", A: 3, B: 3}
	pods := MultiHopLoadPoint{Topo: "pods", A: 3, B: 4}
	if quick {
		return multiHopSweep{
			envHops:      []int{1, 2, 3},
			waveHops:     []int{2, 3},
			payloadBytes: 8,
			utils:        []float64{0.3, 0.9},
			loadTopos:    []MultiHopLoadPoint{{Topo: "line", A: 4}, grid, pods},
			targetMsgs:   10,
			pipeHops:     []int{1, 2, 3},
		}
	}
	return multiHopSweep{
		envHops:      []int{1, 2, 3, 4, 5},
		waveHops:     []int{1, 2, 3},
		payloadBytes: 24,
		utils:        logspace(0.1, 1.5, 8),
		loadTopos:    []MultiHopLoadPoint{line, grid, pods},
		targetMsgs:   24,
		pipeHops:     []int{1, 2, 3, 4, 5},
	}
}

// MultiHop is the multi-hop relay harness: bulk-transfer goodput and
// end-to-end latency versus hop count (per contention mode), and
// relayed goodput versus offered load over line, grid and pod
// topologies.
func MultiHop(cfg RunConfig) (Report, error) {
	cfg = cfg.withDefaults()
	return multiHopReport(cfg, defaultMultiHopSweep(cfg.Quick))
}

// multiHopReport runs the sweep on the experiment worker pool.
func multiHopReport(cfg RunConfig, sw multiHopSweep) (Report, error) {
	rep := Report{
		ID:    "multihop",
		Title: "Multi-hop relay: bulk goodput/latency vs hop count, relayed goodput vs offered load",
	}
	modeName := map[aquago.ContentionMode]string{
		aquago.EnvelopeContention: "envelope",
		aquago.WaveformContention: "waveform",
	}

	// Axis 1: bulk transfer vs hop count.
	type hopCoord struct {
		mode aquago.ContentionMode
		hops int
	}
	var hopCoords []hopCoord
	for _, h := range sw.envHops {
		hopCoords = append(hopCoords, hopCoord{aquago.EnvelopeContention, h})
	}
	for _, h := range sw.waveHops {
		hopCoords = append(hopCoords, hopCoord{aquago.WaveformContention, h})
	}
	hopResults, err := parallelMap(cfg.Workers, len(hopCoords), func(i int) (MultiHopResult, error) {
		c := hopCoords[i]
		return RunMultiHopPoint(MultiHopPoint{
			Hops:         c.hops,
			PayloadBytes: sw.payloadBytes,
			Mode:         c.mode,
			Seed:         cfg.Seed + int64(i)*3571,
		})
	})
	if err != nil {
		return rep, err
	}
	for _, mode := range []aquago.ContentionMode{aquago.EnvelopeContention, aquago.WaveformContention} {
		good := Series{Name: fmt.Sprintf("bulk goodput vs hops (%s)", modeName[mode]),
			XLabel: "hops", YLabel: "goodput bps"}
		lat := Series{Name: fmt.Sprintf("bulk e2e latency vs hops (%s)", modeName[mode]),
			XLabel: "hops", YLabel: "latency s"}
		for i, c := range hopCoords {
			if c.mode != mode {
				continue
			}
			r := hopResults[i]
			good.X = append(good.X, float64(c.hops))
			good.Y = append(good.Y, r.GoodputBPS)
			lat.X = append(lat.X, float64(c.hops))
			lat.Y = append(lat.Y, r.LatencyS)
		}
		if len(good.X) == 0 {
			continue
		}
		rep.Series = append(rep.Series, good, lat)
		first, last := 0, len(good.X)-1
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%s bulk (%d B): %.0f hop(s) %.1f bps / %.1f s -> %.0f hops %.1f bps / %.1f s (last/first goodput %.2f)",
			modeName[mode], sw.payloadBytes, good.X[first], good.Y[first], lat.Y[first],
			good.X[last], good.Y[last], lat.Y[last], good.Y[last]/good.Y[first]))
	}

	// Axis 1b: the same envelope bulk transfers through the async
	// transmit subsystem — pipelined store-and-forward from per-relay
	// queues, the p-persistent slotted MAC and adaptive backoff quanta.
	if len(sw.pipeHops) > 0 {
		pipeResults, err := parallelMap(cfg.Workers, len(sw.pipeHops), func(i int) (MultiHopResult, error) {
			return RunMultiHopPoint(MultiHopPoint{
				Hops:         sw.pipeHops[i],
				PayloadBytes: sw.payloadBytes,
				Mode:         aquago.EnvelopeContention,
				// Seed matches the sequential envelope point at the same
				// index, so the two series differ only in machinery.
				Seed:            cfg.Seed + int64(i)*3571,
				Pipelined:       true,
				Persist:         pipePersist,
				AdaptiveBackoff: true,
			})
		})
		if err != nil {
			return rep, err
		}
		good := Series{Name: "pipelined bulk goodput vs hops (envelope)",
			XLabel: "hops", YLabel: "goodput bps"}
		lat := Series{Name: "pipelined bulk e2e latency vs hops (envelope)",
			XLabel: "hops", YLabel: "latency s"}
		for i, h := range sw.pipeHops {
			good.X = append(good.X, float64(h))
			good.Y = append(good.Y, pipeResults[i].GoodputBPS)
			lat.X = append(lat.X, float64(h))
			lat.Y = append(lat.Y, pipeResults[i].LatencyS)
		}
		rep.Series = append(rep.Series, good, lat)
		// Headline the deepest hop count both series cover.
		seq := map[int]float64{}
		for i, c := range hopCoords {
			if c.mode == aquago.EnvelopeContention {
				seq[c.hops] = hopResults[i].GoodputBPS
			}
		}
		for i := len(sw.pipeHops) - 1; i >= 0; i-- {
			h := sw.pipeHops[i]
			if s, ok := seq[h]; ok {
				rep.Notes = append(rep.Notes, fmt.Sprintf(
					"pipelined envelope bulk (%d B, persist %.2g, adaptive quanta): %d hops %.1f bps vs %.1f bps sequential",
					sw.payloadBytes, pipePersist, h, pipeResults[i].GoodputBPS, s))
				break
			}
		}
	}

	// Axis 2: relayed offered load per topology.
	airtime, err := fullBandAirtime()
	if err != nil {
		return rep, err
	}
	type loadCoord struct {
		topo int
		u    float64
	}
	var loadCoords []loadCoord
	for t := range sw.loadTopos {
		for _, u := range sw.utils {
			loadCoords = append(loadCoords, loadCoord{t, u})
		}
	}
	loadResults, err := parallelMap(cfg.Workers, len(loadCoords), func(i int) (MultiHopLoadResult, error) {
		c := loadCoords[i]
		pt := sw.loadTopos[c.topo]
		nodes := pt.nodes()
		rate := c.u / (airtime * float64(nodes))
		pt.RateHz = rate
		pt.DurationS = float64(sw.targetMsgs) / (rate * float64(nodes))
		pt.Seed = cfg.Seed + int64(i)*4391
		return RunMultiHopLoadPoint(pt)
	})
	if err != nil {
		return rep, err
	}
	for t, topo := range sw.loadTopos {
		label := fmt.Sprintf("%s %dx%d", topo.Topo, topo.A, topo.B)
		if topo.Topo == "line" {
			label = fmt.Sprintf("line %d", topo.A)
		}
		good := Series{Name: "relayed goodput vs offered load (" + label + ")",
			XLabel: "offered bps", YLabel: "goodput bps"}
		lat := Series{Name: "relayed latency p90 (" + label + ")",
			XLabel: "offered bps", YLabel: "p90 latency s"}
		var last MultiHopLoadResult
		for i, c := range loadCoords {
			if c.topo != t {
				continue
			}
			r := loadResults[i]
			good.X = append(good.X, r.OfferedBPS)
			good.Y = append(good.Y, r.GoodputBPS)
			lat.X = append(lat.X, r.OfferedBPS)
			lat.Y = append(lat.Y, r.LatencyP90S)
			last = r
		}
		rep.Series = append(rep.Series, good, lat)
		meanHops := 0.0
		if last.DeliveredMsgs > 0 {
			meanHops = float64(last.TotalHops) / float64(last.DeliveredMsgs)
		}
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%s: top load %.1f bps offered -> %.1f bps delivered end-to-end (%d/%d msgs, mean %.1f hops, %d busy-drops, %d no-ACK, p90 %.1f s)",
			label, last.OfferedBPS, last.GoodputBPS, last.DeliveredMsgs, last.OfferedMsgs,
			meanHops, last.BusyDrops, last.NoACKs, last.LatencyP90S))
	}
	return rep, nil
}
