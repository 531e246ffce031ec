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
	register("scale", Scale)
}

// This file is the harbor-scale harness: the paper evaluates up to 60
// devices (the modem's 60-tone address pool), but with a bounded
// carrier-sense range the network reuses tones spatially and the
// interesting question becomes systems-level — does the simulator
// still admit, route and schedule when the water holds a thousand or
// ten thousand devices? The harness lays out a harbor: a lattice of
// pods (boats, reef stations) whose members sit within one
// carrier-sense range of each other, adjacent pods barely audible,
// distant pods silent. Cross-harbor messages then relay pod to pod,
// and the harness records their virtual-time outcomes: how many
// arrive, over how many relay hops, when the last one lands and how
// many exchanges the scheduler committed on the way. The host cost of
// building and routing such a harbor is aquaperf's harbor workload.

// maxScaleNodes bounds one harbor so a misconfigured CLI cannot ask
// for millions of joins; 60 tones per pod also caps pods at
// MaxNetworkDevices/60.
const maxScaleNodes = 12000

// maxScaleMsgs bounds the relayed traffic of one point.
const maxScaleMsgs = 2000

// scalePodColors is the 2x2 tone-coloring of the pod lattice: pods at
// even/odd lattice parity draw tones from disjoint quarters of the
// 60-tone space, so any two pods close enough to hear each other
// (lattice distance 1, or a diagonal) never share a tone, while pods
// two steps apart — the nearest same-color pairs — sit beyond
// audibility by construction. Hence PodSize may use at most a quarter
// of the tone space.
const (
	scalePodColors  = 4
	scaleMaxPodSize = 60 / scalePodColors // 15
)

// Pod geometry in units of the carrier-sense range r: pod centers
// scaleSpacing*r apart, members on a circle of scaleRadius*r. The
// constants are chosen so the lattice is connected but sparse:
//
//   - within a pod every pair is audible (diameter 0.3 r < r);
//   - axis-adjacent pods are always connected (members at equal pod
//     phase sit exactly 0.9 r apart, and facing members as close as
//     0.6 r);
//   - the nearest same-color pods (two lattice steps, 1.8 r) keep
//     every cross pair at >= 1.5 r — inaudible, so tone reuse is safe;
//   - diagonal pods may brush audibility (1.27 r - 0.3 r < r), which
//     is fine: diagonals differ in both parities, so never in color.
const (
	scaleSpacing = 0.9
	scaleRadius  = 0.15
)

// ScalePoint parameterizes one harbor: a PodsX x PodsY lattice of
// pods with PodSize devices each, carrier sense bounded to CSRangeM,
// and Msgs relayed west-to-east cross-harbor transfers.
type ScalePoint struct {
	// PodsX, PodsY size the pod lattice.
	PodsX, PodsY int
	// PodSize is devices per pod (1..15; the 2x2 tone coloring grants
	// each pod a quarter of the 60-tone space).
	PodSize int
	// CSRangeM bounds audibility (default 30 m — the protocol's
	// comfortable per-hop working range; MinHop picks hops near the
	// bound); the whole geometry scales with it.
	CSRangeM float64
	// Msgs is how many cross-harbor messages to relay (default 8):
	// each runs from a random west-column pod member to a random
	// east-column pod member over the routed path.
	Msgs int
	// Seed drives channels, MAC backoffs, member/message draws.
	Seed int64
	// Retries is each node's extra attempt budget (< 0 = default).
	Retries int
	// Workers sizes the network's scheduler pool (deterministic fields
	// of the result are worker-count independent).
	Workers int
	// Env is the deployment site (zero value = Bridge).
	Env aquago.Environment
}

// withDefaults resolves derived knobs.
func (p ScalePoint) withDefaults() ScalePoint {
	if p.CSRangeM == 0 {
		p.CSRangeM = 30
	}
	if p.Msgs == 0 {
		p.Msgs = 8
	}
	return p
}

// Validate rejects harbors that cannot be built; cmd/aquanet -scale
// surfaces these to users.
func (p ScalePoint) Validate() error {
	q := p.withDefaults()
	nodes := q.PodsX * q.PodsY * q.PodSize
	switch {
	case q.PodsX < 2:
		return fmt.Errorf("scale: need at least two pod columns for cross-harbor traffic, got %d", q.PodsX)
	case q.PodsY < 1:
		return fmt.Errorf("scale: need at least one pod row, got %d", q.PodsY)
	case q.PodSize < 1 || q.PodSize > scaleMaxPodSize:
		return fmt.Errorf("scale: pod size %d outside 1..%d (each pod owns a quarter of the 60-tone space)", q.PodSize, scaleMaxPodSize)
	case nodes > maxScaleNodes:
		return fmt.Errorf("scale: %d nodes exceed the %d-node harness cap", nodes, maxScaleNodes)
	case q.PodsX*q.PodsY*60 > aquago.MaxNetworkDevices:
		return fmt.Errorf("scale: %d pods exhaust the %d-device ID space (60 IDs per pod)", q.PodsX*q.PodsY, aquago.MaxNetworkDevices)
	case math.IsNaN(q.CSRangeM) || math.IsInf(q.CSRangeM, 0) || q.CSRangeM <= 0:
		return fmt.Errorf("scale: carrier-sense range %v m is not a usable distance", q.CSRangeM)
	case q.Msgs < 1 || q.Msgs > maxScaleMsgs:
		return fmt.Errorf("scale: message count %d outside 1..%d", q.Msgs, maxScaleMsgs)
	}
	return nil
}

// scaleDeviceID maps (pod, color, member) onto the public ID space:
// 60 IDs per pod, the pod's color selecting which 15-tone quarter its
// members occupy on the air (ID mod 60 = color*15 + member).
func scaleDeviceID(pod, color, member int) aquago.DeviceID {
	return aquago.DeviceID(pod*60 + color*scaleMaxPodSize + member)
}

// scaleLayout returns the harbor geometry: per joined node its device
// ID and position, pod-major, members ascending.
func scaleLayout(p ScalePoint) (ids []aquago.DeviceID, pos []aquago.Position) {
	spacing := scaleSpacing * p.CSRangeM
	radius := scaleRadius * p.CSRangeM
	for py := 0; py < p.PodsY; py++ {
		for px := 0; px < p.PodsX; px++ {
			pod := py*p.PodsX + px
			color := (px%2)*2 + py%2
			cx, cy := float64(px)*spacing, float64(py)*spacing
			for m := 0; m < p.PodSize; m++ {
				a := 2 * math.Pi * float64(m) / float64(p.PodSize)
				ids = append(ids, scaleDeviceID(pod, color, m))
				pos = append(pos, aquago.Position{
					X: cx + radius*math.Cos(a),
					Y: cy + radius*math.Sin(a),
					Z: 1,
				})
			}
		}
	}
	return ids, pos
}

// ScaleResult reports one harbor point. The traffic fields and
// Sched's Granted/Committed/AirtimeS counters are deterministic —
// identical for any worker count.
type ScaleResult struct {
	Nodes, Pods int
	// Msgs counts offered cross-harbor transfers; Delivered the ones
	// whose payload walked the whole path; BusyDrops/NoACKs transfers
	// that died on a hop's MAC deadline / attempt budget.
	Msgs, Delivered, BusyDrops, NoACKs int
	// TotalHops sums delivered messages' path hops.
	TotalHops int
	// MakespanS is the virtual time the last delivery completed at.
	MakespanS float64
	// Sched snapshots the network's scheduler counters.
	Sched aquago.SchedulerStats
}

// DeterministicKey digests the worker-count-independent fields; runs
// of the same point must produce equal keys for any Workers value
// (the scale determinism test pins this at ~500 nodes).
func (r ScaleResult) DeterministicKey() string {
	return fmt.Sprintf("nodes=%d pods=%d msgs=%d delivered=%d busy=%d noack=%d hops=%d makespan=%.9f granted=%d committed=%d airtime=%.9f",
		r.Nodes, r.Pods, r.Msgs, r.Delivered, r.BusyDrops, r.NoACKs,
		r.TotalHops, r.MakespanS, r.Sched.Granted, r.Sched.Committed, r.Sched.AirtimeS)
}

// RunScalePoint builds the harbor, resolves every cross-harbor route,
// then relays the transfers one at a time in arrival order.
func RunScalePoint(p ScalePoint) (ScaleResult, error) {
	if err := p.Validate(); err != nil {
		return ScaleResult{}, err
	}
	p = p.withDefaults()
	env := p.Env
	if env.Name == "" {
		env = aquago.Bridge
	}
	opts := []aquago.NetworkOption{
		aquago.WithNetworkSeed(p.Seed),
		aquago.WithCSRange(p.CSRangeM),
		aquago.WithNetworkWorkers(p.Workers),
	}
	if p.Retries >= 0 {
		opts = append(opts, aquago.WithNetworkRetries(p.Retries))
	}
	net, err := aquago.NewNetwork(env, opts...)
	if err != nil {
		return ScaleResult{}, err
	}
	ids, positions := scaleLayout(p)
	res := ScaleResult{
		Nodes: len(ids),
		Pods:  p.PodsX * p.PodsY,
		Msgs:  p.Msgs,
	}
	for i, id := range ids {
		if _, err := net.Join(id, positions[i], aquago.WithNodeClock(0)); err != nil {
			return ScaleResult{}, fmt.Errorf("scale: join %d of %d: %w", i, len(ids), err)
		}
	}

	// Cross-harbor schedule: message m departs a random west-column
	// pod member for a random east-column pod member, arriving on the
	// virtual timeline at half-second spacing.
	rng := rand.New(rand.NewSource(p.Seed*6521 + 9))
	numMsgs := len(aquago.Codebook())
	type scaleMsg struct {
		atS           float64
		src, dst      aquago.DeviceID
		first, second uint8
		path          []aquago.DeviceID
	}
	pickMember := func(px int) aquago.DeviceID {
		py := rng.Intn(p.PodsY)
		pod := py*p.PodsX + px
		color := (px%2)*2 + py%2
		return scaleDeviceID(pod, color, rng.Intn(p.PodSize))
	}
	schedule := make([]scaleMsg, p.Msgs)
	for m := range schedule {
		msg := scaleMsg{
			atS:    float64(m) * 0.5,
			src:    pickMember(0),
			dst:    pickMember(p.PodsX - 1),
			first:  uint8(rng.Intn(numMsgs)),
			second: uint8(rng.Intn(numMsgs)),
		}
		if msg.path, err = net.Route(msg.src, msg.dst); err != nil {
			return ScaleResult{}, fmt.Errorf("scale: route %d -> %d: %w", msg.src, msg.dst, err)
		}
		schedule[m] = msg
	}

	ctx := context.Background()
	for _, m := range schedule {
		src, _ := net.Node(m.src)
		src.AdvanceClock(m.atS)
		rres, err := net.SendVia(ctx, m.path, m.first, m.second)
		switch {
		case err == nil:
			res.Delivered++
			res.TotalHops += len(m.path) - 1
			if rres.DeliveredS > res.MakespanS {
				res.MakespanS = rres.DeliveredS
			}
		case errors.Is(err, aquago.ErrChannelBusy):
			res.BusyDrops++
		case errors.Is(err, aquago.ErrNoACK):
			res.NoACKs++
		default:
			return ScaleResult{}, fmt.Errorf("scale: %d -> %d at %.2fs: %w", m.src, m.dst, m.atS, err)
		}
	}
	res.Sched = net.SchedulerStats()
	return res, nil
}

// scaleSweep parameterizes the harness.
type scaleSweep struct {
	points []ScalePoint
}

func defaultScaleSweep(quick bool) scaleSweep {
	if quick {
		return scaleSweep{points: []ScalePoint{
			{PodsX: 5, PodsY: 5, PodSize: 10, Msgs: 4},   // 250 nodes
			{PodsX: 10, PodsY: 10, PodSize: 10, Msgs: 4}, // 1000 nodes
		}}
	}
	return scaleSweep{points: []ScalePoint{
		{PodsX: 5, PodsY: 5, PodSize: 10, Msgs: 8},   // 250 nodes
		{PodsX: 10, PodsY: 10, PodSize: 10, Msgs: 8}, // 1000 nodes
		{PodsX: 20, PodsY: 16, PodSize: 10, Msgs: 8}, // 3200 nodes
		{PodsX: 28, PodsY: 24, PodSize: 15, Msgs: 6}, // 10080 nodes
	}}
}

// Scale is the harbor-scale harness: cross-harbor relay outcomes
// versus node count, 250 to ~10k devices.
func Scale(cfg RunConfig) (Report, error) {
	cfg = cfg.withDefaults()
	return scaleReport(cfg, defaultScaleSweep(cfg.Quick))
}

func scaleReport(cfg RunConfig, sw scaleSweep) (Report, error) {
	rep := Report{
		ID:    "scale",
		Title: "Harbor scale: cross-harbor relay delivery, hops, makespan and committed exchanges, 250 to 10k nodes",
	}
	delivered := Series{Name: "delivered fraction vs nodes",
		XLabel: "nodes", YLabel: "delivered"}
	hops := Series{Name: "mean relay hops vs nodes",
		XLabel: "nodes", YLabel: "hops"}
	makespan := Series{Name: "makespan vs nodes",
		XLabel: "nodes", YLabel: "virtual s"}
	committed := Series{Name: "committed exchanges vs nodes",
		XLabel: "nodes", YLabel: "exchanges"}
	for i, pt := range sw.points {
		pt.Seed = cfg.Seed + int64(i)*7151
		pt.Retries = -1
		pt.Workers = cfg.Workers
		r, err := RunScalePoint(pt)
		if err != nil {
			return rep, err
		}
		meanHops := 0.0
		if r.Delivered > 0 {
			meanHops = float64(r.TotalHops) / float64(r.Delivered)
		}
		x := float64(r.Nodes)
		delivered.X = append(delivered.X, x)
		delivered.Y = append(delivered.Y, float64(r.Delivered)/float64(r.Msgs))
		hops.X = append(hops.X, x)
		hops.Y = append(hops.Y, meanHops)
		makespan.X = append(makespan.X, x)
		makespan.Y = append(makespan.Y, r.MakespanS)
		committed.X = append(committed.X, x)
		committed.Y = append(committed.Y, float64(r.Sched.Committed))
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%d nodes (%d pods): %d/%d relayed (mean %.1f hops, %d busy, %d no-ACK), last delivery at %.1f s, %d of %d granted exchanges committed",
			r.Nodes, r.Pods, r.Delivered, r.Msgs, meanHops, r.BusyDrops, r.NoACKs,
			r.MakespanS, r.Sched.Committed, r.Sched.Granted))
	}
	rep.Series = append(rep.Series, delivered, hops, makespan, committed)
	return rep, nil
}
