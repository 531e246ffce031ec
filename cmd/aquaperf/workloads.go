package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"

	"aquago"
	"aquago/internal/app"
)

// tally counts the messages (or route queries) an op tried and the ones
// that succeeded in the simulation.
type tally struct{ tried, ok int }

// scenario is one built workload.
type scenario interface {
	// lanes is the number of independent op sequences.
	lanes() int
	// op runs the lane's k-th op (k counts from 0 and increases by one
	// per call), writes its simulated outcome to out and returns what it
	// tried. An error is a failed output check or an error the
	// simulation should never produce.
	op(lane, k int, out io.Writer) (tally, error)
	// verify runs the checks that need the whole run.
	verify() error
}

// workload is one named set of inputs.
type workload struct {
	name  string
	build func(seed int64, workers int, tr *tracer) (scenario, error)
}

var workloads = []*workload{
	{name: "link", build: buildLink},
	{name: "pods", build: buildPods},
	{name: "collide", build: buildCollide},
	{name: "harbor", build: buildHarbor},
}

// minOps is the number of measured ops every run reaches, whatever
// -seconds says, so op_ms_p90 always has ten samples beyond it.
const minOps = 120

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scenarioSeed fixes each workload's scenario: the channel draws, the
// network's own seed (start clocks, MAC backoff draws) and the harbor's
// drifting anchors. The -seed flag draws the traffic on that scenario —
// messages, arrival instants, flows — so every seed asks for the same
// kind and amount of work.
const scenarioSeed = 1

// msgRand draws the codebook messages of one lane.
func msgRand(seed int64, lane int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(lane)*131 + 1))
}

func nextMsg(rng *rand.Rand) uint8 { return uint8(rng.Intn(app.NumMessages)) }

// sendOutcome digests, checks and counts one single-message send. Lost
// ACKs and busy channels are simulated outcomes, not errors; the check
// is that a delivered payload decodes to exactly the message sent.
func sendOutcome(out io.Writer, k int, msg uint8, res aquago.SendResult, err error) (tally, error) {
	fmt.Fprintf(out, "%d:%d/%d/%t/%t/%d-%d/%x/%t|", k, msg, res.Attempts, res.Delivered, res.Acknowledged,
		res.Last.Band.Lo, res.Last.Band.Hi, res.Last.Decoded, err != nil)
	if err != nil && !errors.Is(err, aquago.ErrNoACK) && !errors.Is(err, aquago.ErrChannelBusy) {
		return tally{tried: 1}, err
	}
	if res.Last.Delivered {
		got, derr := app.DecodePayload(res.Last.Decoded)
		if derr != nil || len(got) != 1 || got[0].ID != msg {
			return tally{tried: 1}, fmt.Errorf("message %d delivered as %x (%v)", msg, res.Last.Decoded, derr)
		}
	}
	if res.Delivered {
		return tally{tried: 1, ok: 1}, nil
	}
	return tally{tried: 1}, nil
}

// ---- link: the paper's point-to-point range sweep (Fig 12). ----

// linkRangesM are the distances the link workload cycles through, each
// over linkRealizations channel draws so one run covers several
// multipath and noise realizations.
var linkRangesM = []float64{5, 15, 30}

const (
	linkRealizations                   = 8
	linkSelf, linkPeer aquago.DeviceID = 1, 2
)

type linkScenario struct {
	session *aquago.Session
	media   []aquago.Medium // distance varies fastest
	rng     *rand.Rand
}

func buildLink(seed int64, _ int, tr *tracer) (scenario, error) {
	s, err := aquago.Dial(linkSelf)
	if err != nil {
		return nil, err
	}
	sc := &linkScenario{session: s, rng: msgRand(seed, 0)}
	for i := 0; i < linkRealizations*len(linkRangesM); i++ {
		m, err := aquago.SimulatedWater(aquago.Lake, aquago.AtDistance(linkRangesM[i%len(linkRangesM)]),
			aquago.WithSeed(scenarioSeed+int64(i)))
		if err != nil {
			return nil, err
		}
		if tr != nil {
			m = timedMedium{inner: m, tr: tr}
		}
		sc.media = append(sc.media, m)
	}
	if tr != nil {
		s.SetTrace(aquago.TraceFunc(func(ev aquago.StageEvent) { tr.stage(0, ev) }))
	}
	return sc, nil
}

func (sc *linkScenario) lanes() int    { return 1 }
func (sc *linkScenario) verify() error { return nil }

func (sc *linkScenario) op(_, k int, out io.Writer) (tally, error) {
	msg := nextMsg(sc.rng)
	res, err := sc.session.Send(sc.media[k%len(sc.media)], linkPeer, msg, aquago.NoMessage)
	return sendOutcome(out, k, msg, res, err)
}

// timedMedium times channel rendering for the ledger.
type timedMedium struct {
	inner aquago.Medium
	tr    *tracer
}

func (m timedMedium) Forward(tx []float64, atS float64) []float64 {
	start := m.tr.now()
	rx := m.inner.Forward(tx, atS)
	m.tr.render(0, start, len(rx))
	return rx
}

func (m timedMedium) Backward(tx []float64, atS float64) []float64 {
	start := m.tr.now()
	rx := m.inner.Backward(tx, atS)
	m.tr.render(0, start, len(rx))
	return rx
}

// ---- pods: independent contention domains on one network. ----

const (
	podCount    = 4
	podSize     = 5   // a head and four members
	podGapM     = 100 // between pod centres: mutually inaudible at podCSRange
	podRadiusM  = 5
	podCSRangeM = 30
)

type podsScenario struct {
	net  *aquago.Network
	pods [][]*aquago.Node // [pod][member]; member 0 is the head
	rngs []*rand.Rand
}

func buildPods(seed int64, workers int, tr *tracer) (scenario, error) {
	net, err := aquago.NewNetwork(aquago.Bridge, aquago.WithNetworkSeed(scenarioSeed),
		aquago.WithCSRange(podCSRangeM), aquago.WithNetworkWorkers(workers))
	if err != nil {
		return nil, err
	}
	sc := &podsScenario{net: net}
	sc.pods, err = joinPods(net, func(p int) []aquago.NodeOption {
		if tr == nil {
			return nil
		}
		return []aquago.NodeOption{aquago.WithNodeTrace(aquago.TraceFunc(func(ev aquago.StageEvent) { tr.stage(p, ev) }))}
	})
	if err != nil {
		return nil, err
	}
	for p := range sc.pods {
		sc.rngs = append(sc.rngs, msgRand(seed, p))
	}
	return sc, nil
}

// joinPods joins podCount pods of podSize nodes along the x axis: member
// 0 of each pod is its head at the centre, the others ring it.
func joinPods(net *aquago.Network, opts func(pod int) []aquago.NodeOption) ([][]*aquago.Node, error) {
	var pods [][]*aquago.Node
	for p := 0; p < podCount; p++ {
		var pod []*aquago.Node
		for m := 0; m < podSize; m++ {
			pos := aquago.Position{X: float64(p) * podGapM, Z: 1}
			if m > 0 {
				a := 2 * math.Pi * float64(m-1) / float64(podSize-1)
				pos.X += podRadiusM * math.Cos(a)
				pos.Y += podRadiusM * math.Sin(a)
			}
			nd, err := net.Join(aquago.DeviceID(p*podSize+m), pos, opts(p)...)
			if err != nil {
				return nil, err
			}
			pod = append(pod, nd)
		}
		pods = append(pods, pod)
	}
	return pods, nil
}

func (sc *podsScenario) lanes() int               { return podCount }
func (sc *podsScenario) verify() error            { return nil }
func (sc *podsScenario) network() *aquago.Network { return sc.net }

func (sc *podsScenario) op(p, k int, out io.Writer) (tally, error) {
	pod := sc.pods[p]
	msg := nextMsg(sc.rngs[p])
	res, err := pod[1+k%(podSize-1)].Send(context.Background(), pod[0].ID(), msg)
	return sendOutcome(out, k, msg, res, err)
}

// ---- collide: waveform collisions in one conflict domain. ----

// The collide network holds podCount pods like the pods workload, and
// round k runs in pod k mod podCount alone, so every round is one
// conflict domain while a run averages over four sets of channel draws.

// collideArrivalS spreads each round's arrivals: every member's message
// arrives at a seeded instant within this window after the round starts,
// so the overlaps, and the collisions they cause, vary round to round.
const collideArrivalS = 1.5

type collideScenario struct {
	net  *aquago.Network
	pods [][]*aquago.Node // [pod][member]; member 0 is the head
	rng  *rand.Rand
	tr   *tracer
}

func buildCollide(seed int64, workers int, tr *tracer) (scenario, error) {
	opts := []aquago.NetworkOption{
		aquago.WithNetworkSeed(scenarioSeed),
		aquago.WithContentionMode(aquago.WaveformContention),
		aquago.WithoutCarrierSense(),
		aquago.WithCSRange(podCSRangeM),
		aquago.WithNetworkWorkers(workers),
	}
	if tr != nil {
		opts = append(opts,
			aquago.WithNetworkTrace(aquago.TraceFunc(func(ev aquago.StageEvent) { tr.stage(0, ev) })),
			aquago.WithSIRProbe(func(s aquago.SIRSample) {
				tr.count(0, "sir.windows", 1)
				if s.InterferencePower > 0 {
					tr.count(0, "sir.interfered", 1)
					tr.sample(0, "sir.db", s.SIRdB())
				}
			}))
	}
	net, err := aquago.NewNetwork(aquago.Bridge, opts...)
	if err != nil {
		return nil, err
	}
	sc := &collideScenario{net: net, rng: msgRand(seed, 0), tr: tr}
	if sc.pods, err = joinPods(net, func(int) []aquago.NodeOption { return nil }); err != nil {
		return nil, err
	}
	return sc, nil
}

func (sc *collideScenario) lanes() int               { return 1 }
func (sc *collideScenario) verify() error            { return nil }
func (sc *collideScenario) network() *aquago.Network { return sc.net }

// op is one round in pod k mod podCount: every member queues one
// message to the head, in ID order, and the round ends when the queues
// drain. Without carrier sense the members transmit as their messages
// arrive, so they collide.
func (sc *collideScenario) op(_, k int, out io.Writer) (tally, error) {
	ctx := context.Background()
	pod := sc.pods[k%len(sc.pods)]
	head, members := pod[0], pod[1:]
	// Every round starts at the latest clock in the network, so the four
	// pods' timelines stay within a few rounds of each other and the
	// network can prune the waveforms behind the slowest.
	var roundS float64
	for _, p := range sc.pods {
		for _, nd := range p {
			roundS = max(roundS, nd.ClockS())
		}
	}
	head.AdvanceClock(roundS)
	msgs := make([]uint8, len(members))
	handles := make([]*aquago.TxHandle, len(members))
	var enqErr error
	for i, nd := range members {
		msgs[i] = nextMsg(sc.rng)
		nd.AdvanceClock(roundS + collideArrivalS*sc.rng.Float64())
		start := sc.tr.now()
		h, err := nd.SendAsync(ctx, head.ID(), msgs[i])
		sc.tr.child(0, "txq.enqueue", start)
		if err != nil {
			enqErr = err
			break
		}
		handles[i] = h
	}
	if err := sc.net.Flush(ctx); err != nil {
		return tally{}, err
	}
	if enqErr != nil {
		return tally{}, enqErr
	}
	var t tally
	for i, h := range handles {
		res, err := h.Result()
		ti, err := sendOutcome(out, k*len(members)+i, msgs[i], res, err)
		t.tried += ti.tried
		t.ok += ti.ok
		if err != nil {
			return t, err
		}
	}
	return t, nil
}

// ---- harbor: the control plane at scale. ----

// The harbor is the scale harness's lattice: pods of members on a
// circle around the pod centre, centres 0.9 carrier-sense ranges apart,
// and a 2x2 colouring that gives each pod a quarter of the 60 on-air
// tones, so pods that can hear each other never share one.
const (
	harborPodsX    = 14
	harborPodsY    = 14
	harborPodSize  = 10
	harborCSRangeM = 30
	harborSpacingM = 0.9 * harborCSRangeM
	harborRadiusM  = 0.15 * harborCSRangeM
	harborEpochS   = 2
	harborFlows    = 16
	// One pod in each 2x2 block of pods has its anchor (member 0) drift
	// back and forth harborDriftM metres from home at harborDriftMS: far
	// enough to leave its pod's audibility and, head-on, to come within
	// earshot of the next same-tone anchor (which parks it). The zig-zag
	// keeps every stretch of the run equally busy, where a one-way
	// drift would leave the harbor or stop.
	harborDriftM  = 25
	harborDriftMS = 0.5
	harborTrackS  = 40000 // longer than any run's virtual time
)

type harborFlow struct{ src, dst aquago.DeviceID }

type harborScenario struct {
	net    *aquago.Network
	tr     *tracer
	nodes  map[aquago.DeviceID]*aquago.Node
	index  map[aquago.DeviceID]int
	pos    []aquago.Position          // by join index, as this benchmark computes them
	tracks map[int]aquago.MotionTrack // by join index, for the drifting anchors
	flows  []harborFlow
	last   [][]aquago.DeviceID // the latest epoch's route per flow
	clockS float64
}

func harborID(pod, color, member int) aquago.DeviceID {
	return aquago.DeviceID(pod*60 + color*15 + member)
}

// zigzag is a track between home and home+d, out and back at speed v.
func zigzag(home aquago.Position, dx, dy, v float64) aquago.MotionTrack {
	legS := math.Hypot(dx, dy) / v
	far := aquago.Position{X: home.X + dx, Y: home.Y + dy, Z: home.Z}
	var tr aquago.MotionTrack
	for i := 0; float64(i)*legS <= harborTrackS; i++ {
		p := home
		if i%2 == 1 {
			p = far
		}
		tr.Waypoints = append(tr.Waypoints, aquago.Waypoint{AtS: float64(i) * legS, Pos: p})
	}
	return tr
}

func buildHarbor(seed int64, workers int, tr *tracer) (scenario, error) {
	net, err := aquago.NewNetwork(aquago.Bay, aquago.WithNetworkSeed(scenarioSeed),
		aquago.WithCSRange(harborCSRangeM), aquago.WithNetworkWorkers(workers))
	if err != nil {
		return nil, err
	}
	sc := &harborScenario{
		net:    net,
		tr:     tr,
		nodes:  map[aquago.DeviceID]*aquago.Node{},
		index:  map[aquago.DeviceID]int{},
		tracks: map[int]aquago.MotionTrack{},
	}
	// One pod of each 2x2 block drifts; the headings are spread evenly
	// around the compass.
	motion := rand.New(rand.NewSource(scenarioSeed))
	blocksX, blocks := harborPodsX/2, harborPodsX*harborPodsY/4
	heading := map[int]float64{} // by pod
	for b, h := range motion.Perm(blocks) {
		px, py := 2*(b%blocksX)+motion.Intn(2), 2*(b/blocksX)+motion.Intn(2)
		heading[py*harborPodsX+px] = 2 * math.Pi * float64(h) / float64(blocks)
	}
	for py := 0; py < harborPodsY; py++ {
		for px := 0; px < harborPodsX; px++ {
			pod := py*harborPodsX + px
			color := (px%2)*2 + py%2
			for m := 0; m < harborPodSize; m++ {
				a := 2 * math.Pi * float64(m) / harborPodSize
				pos := aquago.Position{
					X: float64(px)*harborSpacingM + harborRadiusM*math.Cos(a),
					Y: float64(py)*harborSpacingM + harborRadiusM*math.Sin(a),
					Z: 1,
				}
				id := harborID(pod, color, m)
				var opts []aquago.NodeOption
				if dir, ok := heading[pod]; ok && m == 0 {
					track := zigzag(pos, harborDriftM*math.Cos(dir), harborDriftM*math.Sin(dir), harborDriftMS)
					sc.tracks[len(sc.pos)] = track
					opts = append(opts, aquago.WithMotionTrack(track))
				}
				start := tr.now()
				nd, err := net.Join(id, pos, opts...)
				tr.setup("aquago.join", start)
				if err != nil {
					return nil, err
				}
				sc.nodes[id] = nd
				sc.index[id] = len(sc.pos)
				sc.pos = append(sc.pos, pos)
			}
		}
	}
	// Every flow crosses half the harbor west to east along one pod row,
	// between fixed members (never an anchor), the rows spread evenly; the
	// seed picks where each flow starts and its members.
	rng := rand.New(rand.NewSource(seed*104729 + 3))
	member := func(px, py int) aquago.DeviceID {
		return harborID(py*harborPodsX+px, (px%2)*2+py%2, 1+rng.Intn(harborPodSize-1))
	}
	for f := 0; f < harborFlows; f++ {
		px, py := rng.Intn(harborPodsX/2), f*harborPodsY/harborFlows
		sc.flows = append(sc.flows, harborFlow{member(px, py), member(px+harborPodsX/2, py)})
	}
	sc.last = make([][]aquago.DeviceID, harborFlows)
	return sc, nil
}

func (sc *harborScenario) lanes() int               { return 1 }
func (sc *harborScenario) network() *aquago.Network { return sc.net }

// op is one motion epoch followed by a route query per flow.
func (sc *harborScenario) op(_, k int, out io.Writer) (tally, error) {
	sc.clockS += harborEpochS
	start := sc.tr.now()
	ep, err := sc.net.AdvanceMotion(sc.clockS)
	sc.tr.child(0, "motion.advance", start)
	sc.tr.count(0, "motion.moved", float64(len(ep.Moved)))
	sc.tr.count(0, "motion.parked", float64(len(ep.Parked)))
	if err != nil {
		return tally{}, err
	}
	for _, id := range ep.Moved {
		i := sc.index[id]
		sc.pos[i] = sc.tracks[i].At(ep.AtS)
	}
	fmt.Fprintf(out, "%d:%v/%v|", k, ep.Moved, ep.Parked)
	var t tally
	for f, fl := range sc.flows {
		start := sc.tr.now()
		path, err := sc.net.Route(fl.src, fl.dst)
		sc.tr.child(0, "route.query", start)
		t.tried++
		sc.last[f] = path
		fmt.Fprintf(out, "%v|", path)
		if errors.Is(err, aquago.ErrNoRoute) {
			continue
		}
		if err != nil {
			return t, err
		}
		if err := sc.checkPath(fl, path); err != nil {
			return t, err
		}
		t.ok++
		sc.tr.count(0, "route.found", 1)
		sc.tr.count(0, "route.hops", float64(len(path)-1))
	}
	return t, nil
}

// checkPath checks that a route joins the flow's endpoints, visits no
// node twice and keeps every hop within carrier-sense range of the
// nodes' current positions.
func (sc *harborScenario) checkPath(fl harborFlow, path []aquago.DeviceID) error {
	if len(path) < 2 || path[0] != fl.src || path[len(path)-1] != fl.dst {
		return fmt.Errorf("route %d->%d is %v", fl.src, fl.dst, path)
	}
	seen := make(map[aquago.DeviceID]bool, len(path))
	var prev aquago.Position
	for i, id := range path {
		nd, ok := sc.nodes[id]
		if !ok || seen[id] {
			return fmt.Errorf("route %d->%d revisits or invents node %d: %v", fl.src, fl.dst, id, path)
		}
		seen[id] = true
		pos := nd.Position()
		if i > 0 && prev.DistanceTo(pos) > harborCSRangeM {
			return fmt.Errorf("route %d->%d hop %d->%d spans %.1f m", fl.src, fl.dst, path[i-1], id, prev.DistanceTo(pos))
		}
		prev = pos
	}
	return nil
}

// verify checks the final epoch's routes against a breadth-first search
// over the positions this benchmark computed: min-hop routing must find
// exactly the fewest hops.
func (sc *harborScenario) verify() error {
	n := len(sc.pos)
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if sc.pos[i].DistanceTo(sc.pos[j]) <= harborCSRangeM {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	for f, fl := range sc.flows {
		hops := make([]int, n)
		for i := range hops {
			hops[i] = -1
		}
		src, dst := sc.index[fl.src], sc.index[fl.dst]
		hops[src] = 0
		for queue := []int{src}; len(queue) > 0; queue = queue[1:] {
			for _, j := range adj[queue[0]] {
				if hops[j] < 0 {
					hops[j] = hops[queue[0]] + 1
					queue = append(queue, j)
				}
			}
		}
		if got := len(sc.last[f]) - 1; got != hops[dst] { // -1 both for no route and unreachable
			return fmt.Errorf("route %d->%d has %d hops, breadth-first search finds %d", fl.src, fl.dst, got, hops[dst])
		}
	}
	return nil
}
