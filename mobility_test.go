package aquago

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// In-package property tests for the motion layer (motion.go): after
// every position epoch the incrementally maintained structures — grid
// buckets, audibility adjacency, route/ETX caches, scheduler conflict
// edges — must equal a brute-force recomputation from the current
// geometry, across seeds, carrier-sense ranges and drift speeds. Plus
// the satellite regressions: Leave invalidating routes, and the
// address-clash rule re-validated under motion.

func TestMotionTrackAt(t *testing.T) {
	tr := MotionTrack{Waypoints: []Waypoint{
		{AtS: 10, Pos: Position{X: 0, Y: 0, Z: 2}},
		{AtS: 20, Pos: Position{X: 10, Y: -4, Z: 2}},
		{AtS: 25, Pos: Position{X: 10, Y: -4, Z: 7}},
	}}
	cases := []struct {
		tS   float64
		want Position
	}{
		{-5, Position{X: 0, Y: 0, Z: 2}},  // clamp before
		{10, Position{X: 0, Y: 0, Z: 2}},  // first waypoint
		{15, Position{X: 5, Y: -2, Z: 2}}, // midpoint of leg 1
		{20, Position{X: 10, Y: -4, Z: 2}},
		{24, Position{X: 10, Y: -4, Z: 6}}, // 4/5 of leg 2
		{99, Position{X: 10, Y: -4, Z: 7}}, // clamp after
	}
	for _, c := range cases {
		if got := tr.At(c.tS); got != c.want {
			t.Fatalf("At(%g) = %+v, want %+v", c.tS, got, c.want)
		}
	}
	drift := DriftTrack(Position{X: 1, Y: 2, Z: 3}, 0.5, -0.25, 0, 40)
	if got, want := drift.At(20), (Position{X: 11, Y: -3, Z: 3}); got != want {
		t.Fatalf("drift At(20) = %+v, want %+v", got, want)
	}
	if got, want := drift.At(100), (Position{X: 21, Y: -8, Z: 3}); got != want {
		t.Fatalf("drift holds station: At(100) = %+v, want %+v", got, want)
	}
}

func TestMotionTrackValidation(t *testing.T) {
	bad := []MotionTrack{
		{}, // no waypoints
		{Waypoints: []Waypoint{{AtS: math.NaN(), Pos: Position{Z: 1}}}},
		{Waypoints: []Waypoint{{AtS: 0, Pos: Position{X: math.Inf(1), Z: 1}}}},
		{Waypoints: []Waypoint{{AtS: 5, Pos: Position{Z: 1}}, {AtS: 5, Pos: Position{X: 1, Z: 1}}}}, // not ascending
	}
	for i, tr := range bad {
		net, err := NewNetwork(Bridge)
		if err != nil {
			t.Fatal(err)
		}
		_, err = net.Join(0, Position{Z: 1}, WithMotionTrack(tr))
		if !errors.Is(err, ErrBadTrack) {
			t.Fatalf("track %d: Join err = %v, want ErrBadTrack", i, err)
		}
	}
	net, err := NewNetwork(Bridge)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := net.Join(0, Position{Z: 1}, WithMotionTrack(DriftTrack(Position{Z: 1}, 1, 0, 0, 10)))
	if err != nil {
		t.Fatalf("valid track refused: %v", err)
	}
	if err := nd.SetPosition(Position{X: math.NaN(), Z: 1}); !errors.Is(err, ErrBadTrack) {
		t.Fatalf("non-finite SetPosition err = %v, want ErrBadTrack", err)
	}
	if _, err := net.AdvanceMotion(math.Inf(1)); !errors.Is(err, ErrBadTrack) {
		t.Fatalf("non-finite AdvanceMotion err = %v, want ErrBadTrack", err)
	}
}

// moveRandom applies one random position epoch to a random node.
// Below 60 nodes every tone is unique, so ErrAddressClash (tolerated:
// a refused move leaves a consistent geometry) cannot actually fire.
func moveRandom(t *testing.T, net *Network, rng *rand.Rand, stepM float64) int {
	t.Helper()
	i := rng.Intn(len(net.order))
	nd := net.order[i]
	p := nd.Position()
	p.X += (rng.Float64()*2 - 1) * stepM
	p.Y += (rng.Float64()*2 - 1) * stepM
	p.Z = 1 + rng.Float64()*4
	if err := nd.SetPosition(p); err != nil && !errors.Is(err, ErrAddressClash) && !errors.Is(err, ErrNodeLeft) {
		t.Fatalf("SetPosition: %v", err)
	}
	return i
}

// TestAdjacencyMatchesBruteUnderMotion drives random position epochs
// and checks, after every one, that the incrementally patched
// adjacency rows and the grid's range queries equal the brute-force
// O(N^2) recomputation from current positions.
func TestAdjacencyMatchesBruteUnderMotion(t *testing.T) {
	for _, cs := range []float64{0, 7.5, 30} {
		for _, stepM := range []float64{2, 12} {
			for seed := int64(1); seed <= 3; seed++ {
				net := scatterNetwork(t, 40, cs, seed)
				rng := rand.New(rand.NewSource(seed*86243 + int64(stepM)))
				for epoch := 0; epoch < 25; epoch++ {
					moveRandom(t, net, rng, stepM)
					net.mu.Lock()
					for i := range net.order {
						got := audibleOf(net, i)
						want := bruteAudible(net, i)
						if fmt.Sprint(got) != fmt.Sprint(want) {
							net.mu.Unlock()
							t.Fatalf("cs=%g step=%g seed=%d epoch %d node %d: adjacency %v != brute %v",
								cs, stepM, seed, epoch, i, got, want)
						}
						if cs > 0 {
							grid := net.grid.AppendWithin(nil, net.pos[i], cs)
							var wantG []int
							for j := range net.order {
								if net.pos[i].DistanceTo(net.pos[j]) <= cs {
									wantG = append(wantG, j)
								}
							}
							if fmt.Sprint(grid) != fmt.Sprint(wantG) {
								net.mu.Unlock()
								t.Fatalf("cs=%g step=%g seed=%d epoch %d node %d: grid query %v != brute %v",
									cs, stepM, seed, epoch, i, grid, wantG)
							}
						}
					}
					net.mu.Unlock()
				}
			}
		}
	}
}

// TestRoutesMatchBruteUnderMotion checks that the cache-consulting
// route layer stays exact under motion: after every epoch, sampled
// routeLocked answers (which reuse any cache entry the epoch's
// invalidation kept) must equal the brute-force Dijkstra over current
// geometry — proving noteMoveLocked drops everything stale and
// nothing it shouldn't. The MinETX cases additionally prove every
// surviving cached ETX weight equals a fresh probe of the pair at its
// current positions. In the leave cases a node Leaves after each of
// the first epochs' queries, so warm routes must stop relaying through
// it; the 100-node MinETX case runs long multi-hop paths.
func TestRoutesMatchBruteUnderMotion(t *testing.T) {
	cases := []struct {
		n      int
		cs     float64
		stepM  float64
		epochs int
		policy RoutingPolicy
		leave  int
		seeds  int64
	}{
		{40, 20, 6, 8, MinHop, 0, 2},
		{40, 12, 15, 8, MinHop, 0, 2},
		{10, 20, 8, 4, MinETX, 0, 2},
		{16, 20, 8, 8, MinETX, 0, 2},
		{40, 20, 6, 8, MinHop, 5, 2},
		{100, 15, 8, 4, MinETX, 2, 1},
	}
	// A pair's weight is a pure function of the pair and its two
	// positions, and the same in both directions (the product of the
	// two hop probabilities), so fresh probes are memoized per
	// unordered pair and geometry: most pairs never move.
	type probeKey struct {
		a, b   int
		pa, pb Position
	}
	fresh := map[probeKey]float64{}
	for _, c := range cases {
		for seed := int64(1); seed <= c.seeds; seed++ {
			net := scatterNetwork(t, c.n, c.cs, seed, WithRouting(c.policy))
			clear(fresh)
			rng := rand.New(rand.NewSource(seed*57737 + int64(c.n)))
			for epoch := 0; epoch < c.epochs; epoch++ {
				// Warm the caches, then move: survivors must still be exact.
				net.mu.Lock()
				for trial := 0; trial < 6; trial++ {
					src, dst := livePair(net, rng)
					got, gotErr := net.routeLocked(src, dst)
					want, wantErr := bruteRouteLocked(net, src, dst)
					if (gotErr == nil) != (wantErr == nil) || fmt.Sprint(got) != fmt.Sprint(want) {
						net.mu.Unlock()
						t.Fatalf("%v n=%d seed=%d epoch %d %d->%d: path %v (%v) != brute %v (%v)",
							c.policy, c.n, seed, epoch, src, dst, got, gotErr, want, wantErr)
					}
				}
				if c.policy == MinETX {
					for key, cached := range net.etxCache {
						a, b := min(key[0], key[1]), max(key[0], key[1])
						pk := probeKey{a, b, net.pos[a], net.pos[b]}
						w, ok := fresh[pk]
						if !ok {
							fwd, bwd, err := net.links.PairSNRdB(a, b)
							if err != nil {
								net.mu.Unlock()
								t.Fatal(err)
							}
							w = 1 / (hopProbability(fwd) * hopProbability(bwd))
							fresh[pk] = w
						}
						if cached != w {
							net.mu.Unlock()
							t.Fatalf("n=%d seed=%d epoch %d: stale ETX cache %v: cached %g, fresh probe %g",
								c.n, seed, epoch, key, cached, w)
						}
					}
				}
				leaver := -1
				if epoch < c.leave {
					leaver, _ = livePair(net, rng)
				}
				net.mu.Unlock()
				if leaver >= 0 {
					net.order[leaver].Leave()
				}
				moveRandom(t, net, rng, c.stepM)
			}
		}
	}
}

// TestAdvanceMotionFollowsTracks pins the track-driven epoch loop:
// positions follow MotionTrack.At on the monotone motion clock,
// trackless nodes hold station, and the epoch report lists movers.
func TestAdvanceMotionFollowsTracks(t *testing.T) {
	net, err := NewNetwork(Bridge, WithCSRange(30))
	if err != nil {
		t.Fatal(err)
	}
	track := DriftTrack(Position{Z: 2}, 0.5, 0, 0, 60)
	diver, err := net.Join(0, Position{Z: 2}, WithMotionTrack(track))
	if err != nil {
		t.Fatal(err)
	}
	anchor, err := net.Join(1, Position{X: 10, Z: 2}, WithNodeMotion(Static))
	if err != nil {
		t.Fatal(err)
	}
	ep, err := net.AdvanceMotion(20)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ep.Moved) != "[0]" || len(ep.Parked) != 0 {
		t.Fatalf("epoch report %+v, want moved=[0]", ep)
	}
	if got, want := diver.Position(), track.At(20); got != want {
		t.Fatalf("diver at %+v, want %+v", got, want)
	}
	if got := anchor.Position(); got != (Position{X: 10, Z: 2}) {
		t.Fatalf("trackless anchor moved to %+v", got)
	}
	// The motion clock is monotone: rewinding re-evaluates at 20 s.
	if _, err := net.AdvanceMotion(5); err != nil {
		t.Fatal(err)
	}
	if got, want := diver.Position(), track.At(20); got != want {
		t.Fatalf("motion clock rewound: diver at %+v, want %+v", got, want)
	}
	if net.MotionEpochs() == 0 {
		t.Fatal("MotionEpochs still zero after a move")
	}
}

// TestSetPositionAddressClash pins the satellite: the spatial
// tone-reuse rule is re-validated on every position change. Device 60
// shares device 0's on-air tone; moving it into earshot must refuse
// with ErrAddressClash leaving the position unchanged, AdvanceMotion
// must park it instead of moving it, and the parked node must
// complete its track the moment the clash clears.
func TestSetPositionAddressClash(t *testing.T) {
	net, err := NewNetwork(Bridge, WithCSRange(30))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Join(0, Position{Z: 1}); err != nil {
		t.Fatal(err)
	}
	// Same tone (60 mod 60 = 0), 100 m away — legal, out of earshot,
	// on a track that would drive it on top of device 0.
	twin, err := net.Join(60, Position{X: 100, Z: 1},
		WithMotionTrack(DriftTrack(Position{X: 100, Z: 1}, -10, 0, 0, 10)))
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.SetPosition(Position{X: 20, Z: 1}); !errors.Is(err, ErrAddressClash) {
		t.Fatalf("clashing move err = %v, want ErrAddressClash", err)
	}
	if got := twin.Position(); got != (Position{X: 100, Z: 1}) {
		t.Fatalf("refused move changed position to %+v", got)
	}
	ep, err := net.AdvanceMotion(10) // track target X=0: on top of the clash
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ep.Parked) != "[60]" || len(ep.Moved) != 0 {
		t.Fatalf("epoch report %+v, want parked=[60]", ep)
	}
	if got := twin.Position(); got != (Position{X: 100, Z: 1}) {
		t.Fatalf("parked node moved to %+v", got)
	}
	// The clash clears (device 0 leaves the shared tone's earshot by
	// departing the whole network is NOT the rule — it must *move*);
	// the parked node then jumps to its track position.
	if err := net.order[0].SetPosition(Position{X: 200, Z: 1}); err != nil {
		t.Fatal(err)
	}
	ep, err = net.AdvanceMotion(10)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ep.Moved) != "[60]" {
		t.Fatalf("epoch report %+v, want moved=[60] after clash cleared", ep)
	}
	if got := twin.Position(); got != (Position{Z: 1}) {
		t.Fatalf("unparked node at %+v, want track end {0 0 1}", got)
	}
}

// TestRouteAfterLeave pins the satellite bugfix: Leave must invalidate
// cached routes through the departed node, Route must never relay
// through departed nodes, and departed endpoints must refuse with
// ErrNodeLeft. Geometry: a 3-hop line S - R1 - R2 - T with a longer
// detour D, audible at 30 m.
func TestRouteAfterLeave(t *testing.T) {
	net, err := NewNetwork(Bridge, WithCSRange(30))
	if err != nil {
		t.Fatal(err)
	}
	lay := map[DeviceID]Position{
		0: {X: 0, Z: 1},         // S
		1: {X: 25, Z: 1},        // R1: on the short path
		2: {X: 50, Z: 1},        // R2
		3: {X: 75, Z: 1},        // T
		4: {X: 25, Y: 15, Z: 1}, // D: detour around R1 (~29.2 m from both S and R2)
	}
	for id := DeviceID(0); id <= 4; id++ {
		if _, err := net.Join(id, lay[id]); err != nil {
			t.Fatal(err)
		}
	}
	before, err := net.Route(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(before) != "[0 1 2 3]" {
		t.Fatalf("pre-Leave route %v, want the line [0 1 2 3]", before)
	}
	r1, _ := net.Node(1)
	r1.Leave()
	after, err := net.Route(0, 3)
	if err != nil {
		t.Fatalf("route after Leave: %v (stale cache through the departed node?)", err)
	}
	for _, id := range after {
		if id == 1 {
			t.Fatalf("route %v relays through departed node 1", after)
		}
	}
	if fmt.Sprint(after) != "[0 4 2 3]" {
		t.Fatalf("post-Leave route %v, want the detour [0 4 2 3]", after)
	}
	if _, err := net.Route(1, 3); !errors.Is(err, ErrNodeLeft) {
		t.Fatalf("route from departed src err = %v, want ErrNodeLeft", err)
	}
	if _, err := net.Route(0, 1); !errors.Is(err, ErrNodeLeft) {
		t.Fatalf("route to departed dst err = %v, want ErrNodeLeft", err)
	}
	// An untouched pair's cache survives: D->R2 avoids R1 entirely.
	if _, err := net.Route(4, 2); err != nil {
		t.Fatal(err)
	}
	net.mu.Lock()
	_, held := net.routeCache[[2]int{4, 2}]
	net.mu.Unlock()
	if !held {
		t.Fatal("D->R2 missing from cache after warming")
	}
}

// TestMoveInvalidatesRoutesIncrementally mirrors the Join test: a
// position epoch must drop exactly the cached routes it could have
// changed — paths through the mover, and paths the mover's new
// position can beat — and keep the rest.
func TestMoveInvalidatesRoutesIncrementally(t *testing.T) {
	net, err := NewNetwork(Bridge, WithCSRange(30))
	if err != nil {
		t.Fatal(err)
	}
	// S and T 50 m apart, connected over the arc A-B-C; X idles far
	// away, then moves between S and T to shortcut them.
	lay := map[DeviceID]Position{
		0: {X: 0, Z: 1},           // S
		1: {X: 0, Y: 28, Z: 1},    // A
		2: {X: 25, Y: 42, Z: 1},   // B
		3: {X: 50, Y: 28, Z: 1},   // C
		4: {X: 50, Z: 1},          // T
		5: {X: 200, Y: 200, Z: 1}, // X, initially isolated
	}
	for id := DeviceID(0); id <= 5; id++ {
		if _, err := net.Join(id, lay[id]); err != nil {
			t.Fatal(err)
		}
	}
	long, err := net.Route(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(long) != 5 {
		t.Fatalf("pre-move S->T path %v, want the 4-hop arc", long)
	}
	if _, err := net.Route(1, 2); err != nil { // A->B: X cannot touch it
		t.Fatal(err)
	}
	x, _ := net.Node(5)
	if err := x.SetPosition(Position{X: 25, Z: 1}); err != nil {
		t.Fatal(err)
	}
	net.mu.Lock()
	_, stHeld := net.routeCache[[2]int{0, 4}]
	_, abHeld := net.routeCache[[2]int{1, 2}]
	net.mu.Unlock()
	if stHeld {
		t.Fatal("S->T survived a move that shortcuts it")
	}
	if !abHeld {
		t.Fatal("A->B was invalidated by a move that cannot improve it")
	}
	short, err := net.Route(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(short) != "[0 5 4]" {
		t.Fatalf("post-move S->T = %v, want [0 5 4]", short)
	}
	// Moving X away again must drop the path through it.
	if err := x.SetPosition(Position{X: 200, Y: 200, Z: 1}); err != nil {
		t.Fatal(err)
	}
	again, err := net.Route(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 5 {
		t.Fatalf("S->T after X left the gap = %v, want the arc back", again)
	}
}

// TestMoveProbesNoLinks pins that a move probes no channel link under
// MinETX: the mover lands inside the hop-floor ellipse of a warm route,
// so the route is dropped, but invalidation reads positions only — the
// ETX cache must hold no pair touching the mover until a route build
// relaxes its edges, and that build must return the brute-force path.
func TestMoveProbesNoLinks(t *testing.T) {
	net, err := NewNetwork(Bridge, WithCSRange(30), WithRouting(MinETX))
	if err != nil {
		t.Fatal(err)
	}
	// S and T 50 m apart over the arc A-B-C; X idles out of earshot,
	// then moves between S and T, one hop floor from each.
	lay := map[DeviceID]Position{
		0: {X: 0, Z: 1},           // S
		1: {X: 0, Y: 28, Z: 1},    // A
		2: {X: 25, Y: 42, Z: 1},   // B
		3: {X: 50, Y: 28, Z: 1},   // C
		4: {X: 50, Z: 1},          // T
		5: {X: 200, Y: 200, Z: 1}, // X
	}
	for id := DeviceID(0); id <= 5; id++ {
		if _, err := net.Join(id, lay[id]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Route(0, 4); err != nil {
		t.Fatal(err)
	}
	x, _ := net.Node(5)
	if err := x.SetPosition(Position{X: 25, Z: 1}); err != nil {
		t.Fatal(err)
	}
	net.mu.Lock()
	_, held := net.routeCache[[2]int{0, 4}]
	var probed [][2]int
	for key := range net.etxCache {
		if key[0] == x.idx || key[1] == x.idx {
			probed = append(probed, key)
		}
	}
	net.mu.Unlock()
	if held {
		t.Fatal("S->T survived a move inside its hop-floor ellipse")
	}
	if len(probed) > 0 {
		t.Fatalf("the move probed the mover's links %v", sortKeys(probed))
	}
	got, err := net.Route(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	net.mu.Lock()
	want, err := bruteRouteLocked(net, 0, 4)
	net.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("post-move S->T = %v, brute force %v", got, want)
	}
}

// TestStaticNetworksUntouchedByMotionLayer pins the byte-identity
// contract's cheapest observable: a network that never moves reports
// zero epochs and its bulk transfers never consult the reroute path.
func TestStaticNetworksUntouchedByMotionLayer(t *testing.T) {
	net := scatterNetwork(t, 8, 25, 3)
	if net.MotionEpochs() != 0 {
		t.Fatal("static network reports motion epochs")
	}
	net.mu.Lock()
	nodes := append([]*Node(nil), net.order[:3]...)
	net.mu.Unlock()
	got, changed, err := net.rerouteBulkHop(nodes, 0)
	if err != nil || changed {
		t.Fatalf("static reroute check: changed=%v err=%v, want untouched", changed, err)
	}
	if &got[0] != &nodes[0] {
		t.Fatal("static reroute check reallocated the path")
	}
}
